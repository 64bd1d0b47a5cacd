"""Tests for the CMFSD model (Eq. 5) and its state indexing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CMFSDModel,
    CorrelationModel,
    FluidParameters,
    MFCDModel,
)
from repro.core.cmfsd import StateIndex


def make_model(params, p, rho):
    corr = CorrelationModel(num_files=params.num_files, p=p)
    return CMFSDModel.from_correlation(params, corr, rho=rho)


class TestStateIndex:
    def test_counts(self):
        idx = StateIndex.build(4)
        assert idx.n_pairs == 10  # 4*5/2
        assert idx.state_dim == 14

    def test_pair_index_round_trip(self):
        idx = StateIndex.build(5)
        seen = set()
        for i in range(1, 6):
            for j in range(1, i + 1):
                k = idx.pair_index(i, j)
                assert idx.i_of_pair[k] == i
                assert idx.j_of_pair[k] == j
                seen.add(k)
        assert seen == set(range(idx.n_pairs))

    def test_prev_pair_links_stages(self):
        idx = StateIndex.build(4)
        for i in range(1, 5):
            for j in range(2, i + 1):
                assert idx.prev_pair[idx.pair_index(i, j)] == idx.pair_index(i, j - 1)
            assert idx.prev_pair[idx.pair_index(i, 1)] == -1

    def test_last_pair_of_class(self):
        idx = StateIndex.build(4)
        for i in range(1, 5):
            assert idx.last_pair_of_class[i - 1] == idx.pair_index(i, i)

    def test_bounds_checked(self):
        idx = StateIndex.build(3)
        with pytest.raises(ValueError, match="1 <= j <= i"):
            idx.pair_index(2, 3)
        with pytest.raises(ValueError, match="class"):
            idx.seed_index(4)

    def test_split_views(self):
        idx = StateIndex.build(3)
        state = np.arange(idx.state_dim, dtype=float)
        x, y = idx.split(state)
        assert x.size == idx.n_pairs
        assert y.size == 3
        assert y[0] == idx.n_pairs  # first seed slot follows the pairs


class TestConstruction:
    def test_rho_scalar_broadcast(self, paper_params, high_correlation):
        model = CMFSDModel.from_correlation(paper_params, high_correlation, rho=0.3)
        assert model.p_function(5, 2) == pytest.approx(0.3)

    def test_rho_vector_per_class(self, paper_params, high_correlation):
        rho = np.linspace(0, 1, 10)
        model = CMFSDModel.from_correlation(paper_params, high_correlation, rho=rho)
        assert model.p_function(4, 2) == pytest.approx(rho[3])

    def test_p_function_boundaries(self, paper_params, high_correlation):
        model = CMFSDModel.from_correlation(paper_params, high_correlation, rho=0.3)
        assert model.p_function(1, 1) == 1.0  # class 1 never virtual-seeds
        assert model.p_function(7, 1) == 1.0  # first file: nothing to seed yet
        assert model.p_function(7, 2) == pytest.approx(0.3)

    def test_rho_out_of_range(self, paper_params, high_correlation):
        with pytest.raises(ValueError, match="rho"):
            CMFSDModel.from_correlation(paper_params, high_correlation, rho=1.5)

    def test_rho_bad_shape(self, paper_params, high_correlation):
        with pytest.raises(ValueError, match="rho"):
            CMFSDModel.from_correlation(paper_params, high_correlation, rho=np.ones(3))

    def test_rates_shape(self, paper_params):
        with pytest.raises(ValueError, match="shape"):
            CMFSDModel(params=paper_params, class_rates=np.ones(2))


class TestSteadyState:
    def test_flow_conservation_every_stage(self, paper_params):
        """At steady state, flow through every stage of class i is lambda_i."""
        model = make_model(paper_params, 0.9, 0.2)
        ss = model.steady_state()
        assert ss.converged
        # Recompute stage outflows from the stationary state.
        idx = model.index
        x, y = idx.split(ss.state)
        deriv = model.rhs(0.0, ss.state)
        np.testing.assert_allclose(deriv, 0.0, atol=1e-8)
        # Seeds: lambda_i = gamma * y_i for populated classes.
        for i in range(1, 11):
            lam = model.class_rates[i - 1]
            assert ss.y(i) == pytest.approx(lam / paper_params.gamma, rel=1e-6, abs=1e-9)

    def test_rho_one_matches_mfcd_aggregate(self, paper_params):
        """The paper's claim: at rho = 1 CMFSD performs as MFCD."""
        for p in (0.2, 0.9):
            corr = CorrelationModel(num_files=10, p=p)
            cmfsd = CMFSDModel.from_correlation(paper_params, corr, rho=1.0)
            mfcd = MFCDModel.from_correlation(paper_params, corr)
            assert cmfsd.system_metrics().avg_online_time_per_file == pytest.approx(
                mfcd.system_metrics().avg_online_time_per_file, rel=1e-6
            )

    def test_online_time_monotone_in_rho(self, paper_params):
        """rho = 0 is the system optimum (Fig. 4a shape)."""
        values = [
            make_model(paper_params, 0.9, rho).system_metrics().avg_online_time_per_file
            for rho in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_improvement_grows_with_correlation(self, paper_params):
        """Gain of rho=0 over rho=1 increases with p (Fig. 4a shape)."""
        def gain(p):
            worst = make_model(paper_params, p, 1.0).system_metrics()
            best = make_model(paper_params, p, 0.0).system_metrics()
            return worst.avg_online_time_per_file / best.avg_online_time_per_file

        assert gain(0.9) > gain(0.3) > 1.0

    def test_degenerates_to_single_torrent_for_K1(self):
        params = FluidParameters(num_files=1)
        model = CMFSDModel(params=params, class_rates=np.array([1.0]), rho=0.5)
        metrics = model.system_metrics()
        assert metrics.avg_download_time_per_file == pytest.approx(60.0, rel=1e-6)
        assert metrics.avg_online_time_per_file == pytest.approx(80.0, rel=1e-6)

    def test_empty_workload(self, paper_params):
        model = CMFSDModel(params=paper_params, class_rates=np.zeros(10), rho=0.5)
        ss = model.steady_state()
        assert ss.converged
        np.testing.assert_array_equal(ss.state, 0.0)

    def test_accessors(self, paper_params):
        model = make_model(paper_params, 0.9, 0.1)
        ss = model.steady_state()
        total = sum(ss.x(i, j) for i in range(1, 11) for j in range(1, i + 1))
        assert ss.total_downloaders == pytest.approx(total)
        assert ss.class_downloaders(3) == pytest.approx(sum(ss.x(3, j) for j in (1, 2, 3)))

    @settings(max_examples=8, deadline=None)
    @given(
        p=st.floats(0.1, 1.0),
        rho=st.floats(0.0, 1.0),
        K=st.integers(2, 6),
    )
    def test_steady_state_residual_small_for_arbitrary_settings(self, p, rho, K):
        params = FluidParameters(num_files=K)
        corr = CorrelationModel(num_files=K, p=p)
        model = CMFSDModel.from_correlation(params, corr, rho=rho)
        ss = model.steady_state()
        assert ss.converged
        assert ss.residual < 1e-8
        assert np.all(ss.state >= 0)


class TestWarmStart:
    def test_warm_start_matches_cold_solution(self, paper_params):
        corr = CorrelationModel(num_files=10, p=0.9)
        cold = CMFSDModel.from_correlation(paper_params, corr, rho=0.3).steady_state()
        near = CMFSDModel.from_correlation(paper_params, corr, rho=0.35)
        warm = near.steady_state(initial_state=cold.state)
        cold35 = near.steady_state()
        assert warm.converged
        np.testing.assert_allclose(warm.state, cold35.state, rtol=1e-6, atol=1e-9)

    def test_bad_initial_shape_rejected(self, paper_params):
        model = make_model(paper_params, 0.9, 0.2)
        with pytest.raises(ValueError, match="initial_state"):
            model.steady_state(initial_state=np.zeros(3))

    def test_poor_guess_falls_back_to_robust_path(self, paper_params):
        """A wild guess must not poison the answer: it only seeds the
        root's bracket."""
        model = make_model(paper_params, 0.9, 0.2)
        reference = model.steady_state()
        wild = model.steady_state(
            initial_state=np.full(model.state_dim, 1e6)
        )
        assert wild.converged
        np.testing.assert_allclose(wild.state, reference.state, rtol=1e-4, atol=1e-6)


class TestMetrics:
    def test_class1_unaffected_by_own_rho_definition(self, paper_params):
        """Class-1 peers have P = 1 always; their time changes only through
        the shared pool, so two rho vectors differing only in rho_1 agree."""
        corr = CorrelationModel(num_files=10, p=0.9)
        rho_a = np.full(10, 0.3)
        rho_b = rho_a.copy()
        rho_b[0] = 0.9
        a = CMFSDModel.from_correlation(paper_params, corr, rho=rho_a).system_metrics()
        b = CMFSDModel.from_correlation(paper_params, corr, rho=rho_b).system_metrics()
        assert a.avg_online_time_per_file == pytest.approx(
            b.avg_online_time_per_file, rel=1e-9
        )

    def test_single_file_peers_download_faster(self, paper_params):
        """The unfairness of Sec. 4.2.2: class 1 beats class K per file."""
        model = make_model(paper_params, 0.1, 0.1)
        ss = model.steady_state()
        t1 = model.class_metrics(1, ss).download_time_per_file
        tK = model.class_metrics(10, ss).download_time_per_file
        assert t1 < tK

    def test_empty_class_metrics_nan(self, paper_params):
        rates = np.zeros(10)
        rates[9] = 1.0  # p = 1 style workload
        model = CMFSDModel(params=paper_params, class_rates=rates, rho=0.2)
        ss = model.steady_state()
        assert np.isnan(model.class_metrics(2, ss).total_download_time)
        assert np.isfinite(model.class_metrics(10, ss).total_download_time)

    def test_class_bounds(self, paper_params):
        model = make_model(paper_params, 0.9, 0.2)
        with pytest.raises(ValueError, match="class index"):
            model.class_metrics(0)


class TestVirtualSeedBalance:
    def test_class1_is_pure_taker(self, paper_params):
        model = make_model(paper_params, 0.9, 0.0)
        deltas = model.virtual_seed_balance()
        assert deltas[0] < 0  # class 1 never gives

    def test_balance_sums_to_zero_over_population(self, paper_params):
        """Total give equals total take (the pool is conserved)."""
        model = make_model(paper_params, 0.9, 0.3)
        ss = model.steady_state()
        deltas = model.virtual_seed_balance(ss)
        pops = np.array([ss.class_downloaders(i) for i in range(1, 11)])
        mask = np.isfinite(deltas)
        assert float(np.sum(deltas[mask] * pops[mask])) == pytest.approx(0.0, abs=1e-10)

    def test_rho_one_removes_all_imbalance(self, paper_params):
        model = make_model(paper_params, 0.9, 1.0)
        deltas = model.virtual_seed_balance()
        np.testing.assert_allclose(deltas[np.isfinite(deltas)], 0.0, atol=1e-12)


class TestTransient:
    def test_transient_reaches_steady_state(self, paper_params):
        model = make_model(paper_params, 0.9, 0.2)
        ss = model.steady_state()
        traj = model.transient((0.0, 8000.0))
        assert traj.success
        np.testing.assert_allclose(traj.final_state, ss.state, rtol=1e-3, atol=1e-6)

    def test_population_nonnegative_along_trajectory(self, paper_params):
        traj = make_model(paper_params, 0.5, 0.5).transient((0.0, 500.0))
        assert np.all(traj.y >= -1e-9)
