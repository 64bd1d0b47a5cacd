"""CMFSD stationary points from the scalar root of ``h(r)``.

The production solver (:meth:`CMFSDModel.steady_state` and
:func:`steady_state_path`) builds the stationary point of Eq. (5) from one
monotone scalar equation.  These tests hold it to the numerical ODE driver
(:func:`repro.ode.find_steady_state`, the reference), to a tight Newton
reference where rare classes magnify any slack, and to the counted
fallback when no root exists.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import CMFSDModel, CorrelationModel, FluidParameters, PAPER_PARAMETERS
from repro.core.cmfsd import CMFSDSteadyState, StateIndex, steady_state_path
from repro.obs import capture
from repro.ode import (
    SteadyStateOptions,
    find_steady_state,
    integrate_to_steady_state,
    newton_steady_state,
    residual_norm,
)


def scaled_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


def cmfsd(p: float, rho, params: FluidParameters = PAPER_PARAMETERS) -> CMFSDModel:
    corr = CorrelationModel(num_files=params.num_files, p=p)
    return CMFSDModel.from_correlation(params, corr, rho=rho)


@st.composite
def models(draw) -> CMFSDModel:
    K = draw(st.integers(1, 12))
    mu = draw(st.floats(0.005, 0.05))
    params = FluidParameters(
        mu=mu,
        eta=draw(st.floats(0.05, 1.0)),
        gamma=mu * draw(st.floats(1.2, 6.0)),
        num_files=K,
        download_bandwidth=draw(st.one_of(st.none(), st.floats(0.005, 0.5))),
    )
    rho = draw(
        st.one_of(
            st.floats(0.0, 1.0),
            st.lists(st.floats(0.0, 1.0), min_size=K, max_size=K).map(np.array),
        )
    )
    return cmfsd(draw(st.floats(0.1, 1.0)), rho, params)


class TestAgainstODEDriver:
    @settings(max_examples=100, deadline=None)
    @given(model=models())
    def test_root_matches_find_steady_state(self, model):
        steady = model.steady_state()
        assert steady.converged
        assert steady.residual == residual_norm(model.rhs, steady.state)
        assert steady.residual <= 1e-12
        # at the default tol=1e-10 the driver's own state error reaches ~1e-8
        # on slow systems (small mu), so the reference is solved tighter
        reference = find_steady_state(
            model.rhs, np.zeros(model.state_dim), SteadyStateOptions(tol=1e-13)
        )
        # the driver can diverge from the empty torrent on weak tit-for-tat
        # (see test_root_where_the_driver_diverges); it is no reference there
        assume(reference.converged)
        assert scaled_distance(steady.state, reference.state) <= 1e-8

    def test_root_where_the_driver_diverges(self):
        params = FluidParameters(mu=0.01953125, eta=0.05078125, gamma=0.0390625, num_files=3)
        rates = np.array([0.04101563, 0.28710938, 0.66992188])
        model = CMFSDModel(params=params, class_rates=rates, rho=0.5)
        steady = model.steady_state()
        assert steady.converged and steady.residual <= 1e-12
        assert not find_steady_state(model.rhs, np.zeros(model.state_dim)).converged
        flowed = integrate_to_steady_state(model.rhs, np.zeros(model.state_dim))
        assert flowed.converged
        assert scaled_distance(steady.state, flowed.state) <= 1e-7

    def test_path_matches_cold_path(self):
        models_ = [cmfsd(0.4, float(rho)) for rho in np.linspace(0.0, 1.0, 9)]
        root = steady_state_path(models_)
        cold = steady_state_path(models_, warm_start=False)
        for r, c in zip(root, cold):
            assert r.converged and c.converged
            assert scaled_distance(r.state, c.state) <= 1e-8

    def test_path_equals_single_model_solves(self):
        models_ = [cmfsd(0.7, float(rho)) for rho in np.linspace(0.0, 1.0, 5)]
        for path_point, m in zip(steady_state_path(models_), models_):
            single = m.steady_state()
            np.testing.assert_allclose(path_point.state, single.state, rtol=1e-14)


class TestRareClasses:
    def test_figure4c_point_matches_tight_newton_reference(self):
        # p = 0.1: class 10 arrives at ~1e-10, so its download time x/lambda
        # magnifies any error in its stage populations.
        model = cmfsd(0.1, 0.1)
        steady = model.steady_state()
        cold = find_steady_state(model.rhs, np.zeros(model.state_dim))
        ref = newton_steady_state(model.rhs, cold.state, SteadyStateOptions(tol=1e-16))
        assert ref.converged
        reference = CMFSDSteadyState(
            index=model.index,
            state=np.clip(ref.state, 0.0, None),
            residual=ref.residual,
            converged=True,
        )
        for i in range(1, model.params.num_files + 1):
            got = model.class_metrics(i, steady).total_download_time
            want = model.class_metrics(i, reference).total_download_time
            assert got == pytest.approx(want, rel=1e-12), i


class TestFallback:
    def test_no_root_takes_counted_fallback(self):
        # K = 1 with gamma < mu and no cap: h(inf) = lambda*(1/mu - 1/gamma) < 0
        params = FluidParameters(mu=0.05, eta=0.5, gamma=0.02, num_files=1)
        model = CMFSDModel(params=params, class_rates=np.array([1.0]), rho=0.5)
        with capture(trace=False) as obs:
            steady = model.steady_state()
        counters = obs.registry.counters
        assert counters["core.cmfsd.root.fallbacks"] == 1
        assert counters["core.cmfsd.root.solves"] == 0
        reference = find_steady_state(model.rhs, np.zeros(model.state_dim))
        np.testing.assert_array_equal(steady.state, np.clip(reference.state, 0.0, None))
        assert steady.converged == reference.converged

    def test_cap_restores_the_root(self):
        params = FluidParameters(
            mu=0.05, eta=0.5, gamma=0.02, num_files=1, download_bandwidth=0.1
        )
        model = CMFSDModel(params=params, class_rates=np.array([1.0]), rho=0.5)
        with capture(trace=False) as obs:
            steady = model.steady_state()
        assert obs.registry.counters["core.cmfsd.root.fallbacks"] == 0
        assert steady.converged and steady.residual <= 1e-12


class TestCountersAndGuesses:
    def test_path_counts_one_solve_per_model(self):
        models_ = [cmfsd(0.9, float(rho)) for rho in np.linspace(0.0, 1.0, 11)]
        with capture(trace=False) as obs:
            steady_state_path(models_)
        counters = obs.registry.counters
        assert counters["core.cmfsd.root.solves"] == len(models_)
        assert counters["core.cmfsd.root.fallbacks"] == 0
        assert 1 <= counters["core.cmfsd.root.iterations"] <= 10
        assert "ode.rhs_evals" not in counters

    # (downloader, seed) scales: the guess is the state's seed-to-downloader
    # ratio, so each pair seeds the bracket differently (0 downloaders: none)
    @pytest.mark.parametrize("scales", [(1.0, 1.0), (1.0, 1e-6), (1e-6, 1.0), (0.0, 1.0)])
    def test_initial_state_only_seeds_the_bracket(self, scales):
        model = cmfsd(0.9, 0.2)
        reference = model.steady_state()
        x, y = model.index.split(reference.state)
        guess = np.concatenate([scales[0] * x, scales[1] * y])
        guessed = model.steady_state(initial_state=guess)
        np.testing.assert_allclose(guessed.state, reference.state, rtol=1e-14)

    def test_empty_workload_is_the_zero_state(self):
        model = CMFSDModel(params=PAPER_PARAMETERS, class_rates=np.zeros(10), rho=0.5)
        (steady,) = steady_state_path([model])
        assert steady.converged and steady.residual == 0.0
        np.testing.assert_array_equal(steady.state, 0.0)


class TestSharedIndex:
    def test_one_read_only_instance_per_K(self):
        assert StateIndex.build(7) is StateIndex.build(7)
        assert cmfsd(0.5, 0.3).index is StateIndex.build(10)
        with pytest.raises(ValueError):
            StateIndex.build(4).i_of_pair[0] = 2

    def test_class_downloaders_sum_stage_populations(self):
        model = cmfsd(0.5, 0.3)
        steady = model.steady_state()
        for i in range(1, 11):
            lam = float(model.class_rates[i - 1])
            expected = sum(steady.x(i, j) for j in range(1, i + 1)) / lam
            assert model.class_metrics(i, steady).total_download_time == expected
