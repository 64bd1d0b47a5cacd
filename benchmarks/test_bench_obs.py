"""Observability overhead benchmark: profiled vs. un-profiled hot paths.

The obs layer promises that un-profiled runs pay essentially nothing (the
null-instrument fast path) and that full capture stays cheap enough to leave
on for whole experiment fleets.  This bench times both modes over the
hottest consumers -- the adaptive solver, the event loop and a
tracker-limited DES leg, whose tracker and topology timers split the event
loop's self time -- and asserts the instrumented run actually recorded what
it claims to record.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Scheme
from repro.core.correlation import CorrelationModel
from repro.core.parameters import PAPER_PARAMETERS
from repro.obs import capture
from repro.ode import integrate_rk45
from repro.sim import ScenarioConfig, Simulator, build_simulation

N_SOLVES = 50
N_EVENTS = 20_000
#: virtual seconds of the tracker-limited (numwant 20) MTSD leg
NEIGHBOR_HORIZON = 400.0


def _solve_batch() -> int:
    total = 0
    for k in range(N_SOLVES):
        res = integrate_rk45(
            lambda t, y: -y, np.ones(4), (0.0, 5.0 + 0.1 * k), rtol=1e-8
        )
        total += res.n_steps
    return total


def _event_batch() -> int:
    sim = Simulator()

    def tick(k: int) -> None:
        if k + 1 < N_EVENTS:
            sim.schedule_after(1.0, lambda: tick(k + 1))

    sim.schedule_at(1.0, lambda: tick(0))
    return sim.run_until(float(N_EVENTS + 1))


def _neighbor_leg() -> int:
    """Run a short MTSD leg under a numwant-20 tracker; returns its announces."""
    config = ScenarioConfig(
        params=PAPER_PARAMETERS,
        correlation=CorrelationModel(
            num_files=PAPER_PARAMETERS.num_files, p=0.9, visit_rate=1.0
        ),
        scheme=Scheme.MTSD,
        neighbor_limit=20,
        t_end=NEIGHBOR_HORIZON,
        warmup=0.0,
        seed=3,
    )
    system, arrivals = build_simulation(config)
    arrivals.start()
    system.run_until(NEIGHBOR_HORIZON)
    return system.tracker.announces


@pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])
def test_bench_solver_instrumentation_overhead(benchmark, profiled):
    def run():
        if not profiled:
            return _solve_batch(), None
        with capture() as obs:
            steps = _solve_batch()
        return steps, obs

    steps, obs = benchmark.pedantic(run, rounds=3, iterations=1)
    assert steps > 0
    if profiled:
        assert obs.registry.counters["ode.rk45.solves"] == N_SOLVES
        assert obs.registry.histograms["ode.rk45.step_size"].count == steps


@pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])
def test_bench_simulator_instrumentation_overhead(benchmark, profiled):
    def run():
        if not profiled:
            return _event_batch(), None
        with capture() as obs:
            fired = _event_batch()
        return fired, obs

    fired, obs = benchmark.pedantic(run, rounds=3, iterations=1)
    assert fired == N_EVENTS
    if profiled:
        assert obs.registry.counters["sim.events"] == N_EVENTS
        assert obs.registry.histograms["sim.queue_depth"].count == N_EVENTS


@pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])
def test_bench_neighbor_leg_instrumentation_overhead(benchmark, profiled):
    def run():
        if not profiled:
            return _neighbor_leg(), None
        with capture() as obs:
            announces = _neighbor_leg()
        return announces, obs

    announces, obs = benchmark.pedantic(run, rounds=3, iterations=1)
    assert announces > 0
    if profiled:
        histograms = obs.registry.histograms
        # every announce the DES makes is timed ...
        assert histograms["sim.tracker.seconds"].count == announces
        # ... and so is every topology hook; without virtual seeds each one
        # also counts a row update
        rows = obs.registry.counters["sim.kernel.neighbor.rows"]
        assert histograms["sim.topology.seconds"].count == rows > 0
