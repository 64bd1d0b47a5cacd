"""Tests for the MTCD model (Eq. 1 dynamics, Eq. 2 closed form)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CorrelationModel, FluidParameters, MTCDModel
from repro.ode.reference import find_steady_state


def make_model(params, p):
    corr = CorrelationModel(num_files=params.num_files, p=p)
    return MTCDModel.from_correlation(params, corr)


class TestConstruction:
    def test_rate_shape_enforced(self, paper_params):
        with pytest.raises(ValueError, match="shape"):
            MTCDModel(params=paper_params, per_torrent_rates=np.ones(3))

    def test_negative_rates_rejected(self, paper_params):
        rates = np.zeros(10)
        rates[0] = -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            MTCDModel(params=paper_params, per_torrent_rates=rates)

    def test_correlation_K_mismatch(self, paper_params):
        corr = CorrelationModel(num_files=4, p=0.5)
        with pytest.raises(ValueError, match="K="):
            MTCDModel.from_correlation(paper_params, corr)


class TestClosedForm:
    def test_degenerates_to_single_torrent_for_K1(self):
        """The paper's own correctness check (end of Sec. 3.3)."""
        params = FluidParameters(num_files=1)
        model = MTCDModel(params=params, per_torrent_rates=np.array([1.0]))
        assert model.download_time_per_file() == pytest.approx(60.0)
        cm = model.class_metrics(1)
        assert cm.total_online_time == pytest.approx(80.0)

    def test_download_time_limits(self, paper_params):
        """c(p) runs from the single-torrent T at p->0 to 1/(mu*eta) - 1/(K*gamma*eta)."""
        c_low = make_model(paper_params, 1e-9).download_time_per_file()
        c_high = make_model(paper_params, 1.0).download_time_per_file()
        assert c_low == pytest.approx(60.0, rel=1e-6)
        assert c_high == pytest.approx(96.0)

    def test_closed_form_matches_paper_expression(self, paper_params):
        """x_j^i = i * lambda_j^i * c and y_j^i = lambda_j^i / gamma."""
        model = make_model(paper_params, 0.4)
        ss = model.steady_state()
        c = model.download_time_per_file()
        i = np.arange(1, 11)
        np.testing.assert_allclose(ss.downloaders, i * model.per_torrent_rates * c)
        np.testing.assert_allclose(ss.seeds, model.per_torrent_rates / 0.05)

    def test_closed_form_is_stationary_point_of_eq1(self, paper_params):
        model = make_model(paper_params, 0.6)
        ss = model.steady_state()
        state = np.concatenate([ss.downloaders, ss.seeds])
        np.testing.assert_allclose(model.rhs(0.0, state), 0.0, atol=1e-12)

    def test_numeric_steady_state_matches_closed_form(
        self, paper_params, fast_steady_options
    ):
        model = make_model(paper_params, 0.5)
        ss = model.steady_state()
        numeric = find_steady_state(model.rhs, np.zeros(model.state_dim), fast_steady_options)
        assert numeric.converged
        expected = np.concatenate([ss.downloaders, ss.seeds])
        # fast_steady_options solves to a 1e-8 scaled residual, which for
        # this system means ~1e-4 absolute accuracy in the populations.
        np.testing.assert_allclose(numeric.state, expected, rtol=1e-3, atol=1e-6)

    def test_unstable_configuration_raises(self):
        params = FluidParameters(mu=0.06, gamma=0.05, num_files=2)
        model = MTCDModel(params=params, per_torrent_rates=np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="unstable"):
            model.download_time_per_file()

    def test_empty_workload_gives_nan(self, paper_params):
        model = MTCDModel(params=paper_params, per_torrent_rates=np.zeros(10))
        assert np.isnan(model.download_time_per_file())

    @settings(max_examples=20, deadline=None)
    @given(
        K=st.integers(2, 12),
        p=st.floats(0.01, 1.0),
        seed=st.integers(0, 1000),
    )
    def test_equation2_stationary_for_arbitrary_rate_vectors(self, K, p, seed):
        rng = np.random.default_rng(seed)
        params = FluidParameters(num_files=K)
        rates = rng.uniform(0.0, 2.0, size=K)
        rates[rng.integers(K)] += 0.1  # ensure some mass
        model = MTCDModel(params=params, per_torrent_rates=rates)
        ss = model.steady_state()
        state = np.concatenate([ss.downloaders, ss.seeds])
        np.testing.assert_allclose(model.rhs(0.0, state), 0.0, atol=1e-10)


class TestMetrics:
    def test_download_time_per_file_is_class_independent(self, paper_params):
        """Fairness in download time (paper Sec. 4.2.1)."""
        model = make_model(paper_params, 0.3)
        c = model.download_time_per_file()
        for i in range(1, 11):
            assert model.class_metrics(i).download_time_per_file == pytest.approx(c)

    def test_online_time_per_file_decreases_with_class(self, paper_params):
        """Multi-file peers amortise the seeding phase."""
        model = make_model(paper_params, 0.3)
        per_file = [model.class_metrics(i).online_time_per_file for i in range(1, 11)]
        assert all(a > b for a, b in zip(per_file, per_file[1:]))

    def test_online_time_total_is_ic_plus_seed(self, paper_params):
        model = make_model(paper_params, 0.7)
        c = model.download_time_per_file()
        cm = model.class_metrics(4)
        assert cm.total_online_time == pytest.approx(4 * c + 20.0)

    def test_aggregate_closed_form(self, paper_params):
        """avg online/file = 1/(mu*eta) - (1/(gamma*eta) - 1/gamma) * r(p)."""
        p = 0.45
        model = make_model(paper_params, p)
        K = 10
        r = (1 - (1 - p) ** K) / (K * p)
        expected = 1 / (0.02 * 0.5) - (1 / (0.05 * 0.5) - 1 / 0.05) * r
        assert model.system_metrics().avg_online_time_per_file == pytest.approx(expected)

    def test_aggregate_monotone_in_correlation(self, paper_params):
        values = [
            make_model(paper_params, p).system_metrics().avg_online_time_per_file
            for p in np.linspace(0.05, 1.0, 12)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_class_index_bounds(self, paper_params):
        model = make_model(paper_params, 0.5)
        with pytest.raises(ValueError, match="class index"):
            model.class_metrics(0)
        with pytest.raises(ValueError, match="class index"):
            model.class_metrics(11)
