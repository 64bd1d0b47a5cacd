"""End-to-end instrumentation: solvers, simulator and runner feed the registry.

The invariants here are the load-bearing ones: profiling must not change
numerical results, and counter totals must not depend on how the work was
scheduled (inline vs. process pool).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import capture, validate_chrome_trace
from repro.ode import find_steady_state, integrate_rk4, integrate_rk45, integrate_scipy
from repro.runner import run_experiments
from repro.sim import Simulator

# Fast registry experiments that exercise the ODE layer (and between them,
# both closed-form and numerically solved models).
ODE_IDS = ["figure4bc", "flashcrowd"]


def decay(t, y):
    return -y


class TestSolverInstrumentation:
    def test_rk45_counters_match_result(self):
        with capture() as obs:
            res = integrate_rk45(decay, np.ones(2), (0.0, 1.0))
        c = obs.registry.counters
        assert c["ode.rk45.solves"] == 1
        assert c["ode.rk45.steps"] == res.n_steps
        assert c["ode.rk45.rhs_evals"] == res.n_rhs_evals
        assert c["ode.rk45.rejected"] == res.n_rejected
        assert c["ode.rk45.stop.completed"] == 1
        # family-agnostic rollups
        assert c["ode.solves"] == 1
        assert c["ode.rhs_evals"] == res.n_rhs_evals

    def test_rk45_step_size_trace(self):
        with capture() as obs:
            res = integrate_rk45(decay, np.ones(1), (0.0, 1.0))
        h = obs.registry.histograms["ode.rk45.step_size"]
        assert h.count == res.n_steps
        assert 0 < h.min <= h.max <= 1.0

    def test_rk4_and_scipy_counters(self):
        with capture() as obs:
            integrate_rk4(decay, np.ones(1), (0.0, 1.0), n_steps=10)
            integrate_scipy(decay, np.ones(1), (0.0, 1.0))
        c = obs.registry.counters
        assert c["ode.rk4.solves"] == 1
        assert c["ode.rk4.steps"] == 10
        assert c["ode.rk4.rhs_evals"] == 40
        assert c["ode.scipy-RK45.solves"] == 1
        assert c["ode.scipy-RK45.stop.completed"] == 1
        assert c["ode.solves"] == 2

    def test_solvers_emit_trace_spans(self):
        with capture() as obs:
            integrate_rk45(decay, np.ones(1), (0.0, 1.0))
        names = [e["name"] for e in obs.tracer.events]
        assert "ode.integrate" in names
        validate_chrome_trace(obs.tracer.to_chrome_trace())

    def test_profiling_does_not_change_results(self):
        plain = integrate_rk45(decay, np.ones(3), (0.0, 2.0))
        with capture():
            profiled = integrate_rk45(decay, np.ones(3), (0.0, 2.0))
        np.testing.assert_array_equal(plain.t, profiled.t)
        np.testing.assert_array_equal(plain.y, profiled.y)
        assert plain.n_rhs_evals == profiled.n_rhs_evals

    def test_steady_state_counters(self):
        with capture() as obs:
            res = find_steady_state(lambda t, y: 1.0 - y, np.zeros(1))
        assert res.converged
        c = obs.registry.counters
        assert c["ode.steady_state.solves"] == 1
        assert c["ode.steady_state.iterations"] == res.n_iterations
        assert "ode.steady_state.not_converged" not in c
        assert any(
            e["name"] == "ode.find_steady_state" for e in obs.tracer.events
        )


def _chain_simulation(sim: Simulator, fired: list, n: int = 5) -> None:
    """Schedule a self-rescheduling chain of ``n`` events one unit apart."""

    def step(k: int) -> None:
        fired.append((sim.now, k))
        if k + 1 < n:
            sim.schedule_after(1.0, lambda: step(k + 1))

    sim.schedule_at(1.0, lambda: step(0))


class TestSimulatorInstrumentation:
    def test_instrumented_run_matches_plain(self):
        plain_sim, plain_fired = Simulator(), []
        _chain_simulation(plain_sim, plain_fired)
        plain_count = plain_sim.run_until(10.0)

        obs_sim, obs_fired = Simulator(), []
        _chain_simulation(obs_sim, obs_fired)
        with capture() as obs:
            obs_count = obs_sim.run_until(10.0)

        assert obs_fired == plain_fired
        assert obs_count == plain_count == 5
        assert obs_sim.now == plain_sim.now == 10.0
        assert obs_sim.events_processed == plain_sim.events_processed

    def test_sim_counters_and_histograms(self):
        sim, fired = Simulator(), []
        _chain_simulation(sim, fired)
        with capture() as obs:
            sim.run_until(10.0)
        reg = obs.registry
        assert reg.counters["sim.events"] == 5
        assert reg.counters["sim.run_until_calls"] == 1
        assert reg.histograms["sim.queue_depth"].count == 5
        assert reg.histograms["sim.run_until_seconds"].count == 1
        # the chain's lambdas classify under one callback label
        callback_keys = [
            k for k in reg.histograms if k.startswith("sim.callback.")
        ]
        assert callback_keys
        assert sum(reg.histograms[k].count for k in callback_keys) == 5
        assert any(e["name"] == "sim.run_until" for e in obs.tracer.events)

    def test_max_events_raise_still_counts(self):
        sim, fired = Simulator(), []
        _chain_simulation(sim, fired, n=10)
        with capture() as obs:
            with pytest.raises(RuntimeError, match="max_events"):
                sim.run_until(20.0, max_events=3)
        assert obs.registry.counters["sim.events"] == 3
        assert sim.events_processed == 3


class TestRunnerInstrumentation:
    def test_parallel_counter_totals_match_serial(self):
        with capture() as obs_serial:
            run_experiments(ODE_IDS, jobs=1)
        with capture() as obs_parallel:
            run_experiments(ODE_IDS, jobs=2)
        # Every driver runs under its own fresh registry (inline or in a
        # worker), so the merged totals are scheduling-independent.
        assert obs_serial.registry.counters == obs_parallel.registry.counters
        assert obs_serial.registry.counters["ode.solves"] > 0
        assert obs_serial.registry.counters["runner.experiments"] == len(ODE_IDS)

    def test_parallel_trace_validates_and_covers_workers(self):
        with capture() as obs:
            run_experiments(ODE_IDS, jobs=2)
        validate_chrome_trace(obs.tracer.to_chrome_trace())
        names = [e["name"] for e in obs.tracer.events]
        assert "runner.run_experiments" in names
        assert names.count("runner.experiment") == len(ODE_IDS)
        # worker spans carry worker pids, parent spans the parent pid
        assert len({e["pid"] for e in obs.tracer.events}) >= 2

    def test_profiled_results_carry_obs_snapshot(self):
        with capture():
            summary = run_experiments(["figure4bc"])
        (result,) = summary.results
        assert result.obs is not None
        assert result.obs["counters"]["core.cmfsd.root.solves"] > 0
        round_tripped = type(result).from_dict(result.to_dict())
        assert round_tripped.obs == result.obs

    def test_unprofiled_results_have_no_obs(self):
        summary = run_experiments(["table1"])
        (result,) = summary.results
        assert result.obs is None
        assert "obs" not in result.to_dict()

    def test_cache_counters(self, tmp_path):
        with capture() as cold:
            run_experiments(["table1", "figure2"], cache_dir=tmp_path)
        assert cold.registry.counters["runner.cache.misses"] == 2
        assert "runner.cache.hits" not in cold.registry.counters
        with capture() as warm:
            run_experiments(["table1", "figure2"], cache_dir=tmp_path)
        assert warm.registry.counters["runner.cache.hits"] == 2
        assert "runner.cache.misses" not in warm.registry.counters
        assert sum(
            1 for e in warm.tracer.events if e["name"] == "runner.cache_hit"
        ) == 2

    def test_run_gauges(self):
        with capture() as obs:
            run_experiments(["table1"], jobs=1)
        g = obs.registry.gauges
        assert g["runner.jobs"] == 1
        assert g["runner.wall_clock_seconds"] > 0
        # gauges key by task index so sweep points never overwrite each other
        assert "runner.task.0.table1.seconds" in g
