"""The reference steady-state driver: pseudo-transient continuation + Newton.

:func:`find_steady_state` no longer integrates, so its answers are checked
against the integration oracle (:func:`integrate_to_steady_state` followed
by the same Newton polish) on every model that calls it.  The Newton
polisher's one-evaluation-per-iterate contract is pinned with a counting
RHS and against the four-evaluation loop it replaced.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    CMFSDModel,
    CorrelationModel,
    FluidParameters,
    MTCDModel,
    PAPER_PARAMETERS,
    SingleTorrentModel,
)
from repro.core.cmfsd import CMFSDSteadyState
from repro.obs import capture
from repro.ode import SteadyStateOptions, residual_norm
from repro.ode.reference import (
    PTC_MAX_STEPS,
    _numerical_jacobian,
    find_steady_state,
    integrate_to_steady_state,
    newton_steady_state,
)
from repro.scenario import compile_fluid, load_spec

TIERS_YAML = Path(__file__).resolve().parents[2] / "examples" / "tiers.yaml"
OPTS = SteadyStateOptions()
ORACLE_DIST = 1e-6


def scaled_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


def oracle(rhs, y0: np.ndarray) -> np.ndarray:
    coarse = integrate_to_steady_state(rhs, y0, OPTS)
    polished = newton_steady_state(rhs, coarse.state, OPTS)
    best = polished if polished.residual <= coarse.residual else coarse
    assert best.converged
    return best.state


def assert_matches_oracle(rhs, dim: int) -> None:
    y0 = np.zeros(dim)
    result = find_steady_state(rhs, y0, OPTS)
    assert result.converged
    assert result.method == "ptc+newton"
    assert residual_norm(rhs, result.state) < OPTS.tol
    assert scaled_distance(result.state, oracle(rhs, y0)) <= ORACLE_DIST


def cmfsd(p: float, rho, params: FluidParameters = PAPER_PARAMETERS) -> CMFSDModel:
    corr = CorrelationModel(num_files=params.num_files, p=p)
    return CMFSDModel.from_correlation(params, corr, rho=rho)


class TestAgainstIntegrationOracle:
    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_cmfsd_grid(self, p, rho):
        model = cmfsd(p, rho)
        assert_matches_oracle(model.rhs, model.state_dim)

    def test_cmfsd_per_class_rho(self):
        model = cmfsd(0.6, np.linspace(0.0, 1.0, PAPER_PARAMETERS.num_files))
        assert_matches_oracle(model.rhs, model.state_dim)

    def test_cmfsd_with_download_bandwidth(self):
        params = FluidParameters(
            mu=0.02, eta=0.5, gamma=0.05, num_files=6, download_bandwidth=0.03
        )
        model = cmfsd(0.7, 0.3, params)
        assert_matches_oracle(model.rhs, model.state_dim)

    def test_mtcd(self):
        corr = CorrelationModel(num_files=PAPER_PARAMETERS.num_files, p=0.5)
        model = MTCDModel.from_correlation(PAPER_PARAMETERS, corr)
        assert_matches_oracle(model.rhs, model.state_dim)

    def test_single_torrent(self):
        model = SingleTorrentModel(PAPER_PARAMETERS, arrival_rate=0.8)
        assert_matches_oracle(model.rhs, model.state_dim)

    def test_heterogeneous_tiers_example(self):
        model = compile_fluid(load_spec(TIERS_YAML))
        assert_matches_oracle(model.rhs, model.state_dim)


class TestContinuation:
    def test_no_equilibrium_gives_up_within_bounded_steps(self):
        with capture(trace=False) as obs:
            result = find_steady_state(lambda t, y: np.ones_like(y), np.zeros(2))
        assert not result.converged
        assert result.n_iterations <= PTC_MAX_STEPS + OPTS.max_newton_iter
        assert obs.registry.counters["ode.steady_state.not_converged"] == 1

    def test_non_finite_trial_is_rejected_and_the_step_shrunk(self):
        # f is undefined past y = 3; the first full-length step from 0.01
        # lands at ~3.9, so only a shrunk step keeps the solve on track.
        def rhs(t, y):
            return np.where(y <= 3.0, 4.0 - y**2, np.nan)

        result = find_steady_state(rhs, np.array([0.01]))
        assert result.converged
        assert result.state[0] == pytest.approx(2.0, rel=1e-10)

    def test_counts_its_rhs_evaluations(self):
        model = cmfsd(0.5, 0.5)
        with capture(trace=False) as obs:
            find_steady_state(model.rhs, np.zeros(model.state_dim))
        counters = obs.registry.counters
        assert counters["ode.ptc.rhs_evals"] > 0
        assert counters["ode.rhs_evals"] == (
            counters["ode.ptc.rhs_evals"] + counters["ode.newton.rhs_evals"]
        )

    def test_rare_class_download_time_matches_tight_reference(self):
        # Figure 4(c)'s cold point: class 10 arrives at rate 1e-10, so its
        # download time x/lambda magnifies any slack in the residual.
        model = cmfsd(0.1, 0.1)
        steady = model.steady_state()
        ref = newton_steady_state(model.rhs, steady.state, SteadyStateOptions(tol=1e-16))
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
            assert got == pytest.approx(want, rel=1e-9), i


class ShapeLog:
    """Vectorised RHS wrapper logging how many columns each call carried."""

    def __init__(self, rhs):
        self.rhs = rhs
        self.calls: list[int] = []
        # share the wrapped function's memoised batch capability
        self.batch_key = rhs.__func__

    def __call__(self, t, y):
        self.calls.append(y.shape[1] if y.ndim == 2 else 0)
        return self.rhs(t, y)


def reference_newton(rhs, y0, opts):
    """The Newton loop before iterates were evaluated once (four times each)."""
    y = np.array(y0, dtype=float)
    for _ in range(opts.max_newton_iter):
        f = np.asarray(rhs(0.0, y), dtype=float)
        if residual_norm(rhs, y) < opts.tol:
            return y
        jac = _numerical_jacobian(rhs, y, opts.fd_eps)
        step = np.linalg.solve(jac, -f)
        fnorm = float(np.linalg.norm(f))
        alpha = 1.0
        for _ in range(30):
            y_trial = y + alpha * step
            if opts.nonnegative:
                y_trial = np.clip(y_trial, 0.0, None)
            if float(np.linalg.norm(rhs(0.0, y_trial))) < fnorm:
                break
            alpha *= 0.5
        else:
            return y
        y = y_trial
    return y


class TestNewtonEvaluatesEachIterateOnce:
    def test_one_scalar_call_per_iterate_and_one_batched_jacobian(self):
        model = cmfsd(0.5, 0.5)
        steady = find_steady_state(model.rhs, np.zeros(model.state_dim)).state
        start = 2.0 * steady  # every full Newton step is accepted from here
        _numerical_jacobian(model.rhs, start, OPTS.fd_eps)  # settle batch probe
        log = ShapeLog(model.rhs)
        result = newton_steady_state(log, start, OPTS)
        assert result.converged and result.n_iterations >= 2
        scalar = [c for c in log.calls if c == 0]
        batched = [c for c in log.calls if c > 0]
        assert len(scalar) == result.n_iterations + 1
        assert batched == [model.state_dim] * result.n_iterations

    @pytest.mark.parametrize("scale", [0.5, 0.9, 1.3])
    def test_iterates_bit_identical_to_four_evaluation_loop(self, scale):
        model = cmfsd(0.3, 0.4)
        steady = find_steady_state(model.rhs, np.zeros(model.state_dim)).state
        start = scale * steady
        result = newton_steady_state(model.rhs, start, OPTS)
        np.testing.assert_array_equal(
            result.state, reference_newton(model.rhs, start, OPTS)
        )
