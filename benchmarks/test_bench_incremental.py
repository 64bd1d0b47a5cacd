"""Benchmarks: the incremental rate path against the eager oracle.

Two guards keep the hot path honest in CI:

* a wall-clock speedup pin of the production path (dirty-row incremental
  recomputation + deferred windows) against the fully-eager oracle (run
  under ``repro.sim.reference.oracle_mode()`` and ``eager_integration()``:
  full kernels, per-event dispatch, no windows), and
* a counter guard asserting completions actually retire through the
  windowed per-row path -- a silent fallback to full kernel passes keeps
  results correct and may even pass a generous timing pin on fast
  hardware, but it cannot fake the kernel counters.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import run_once
from repro.core import CorrelationModel, PAPER_PARAMETERS, Scheme
from repro.sim import ScenarioConfig, run_scenario
from repro.sim.reference import eager_integration, oracle_mode

#: measured ~2.5x solo and ~1.8x inside the full benchmark session on the
#: reference container; the margin absorbs CI noise (the counter guard
#: below is the sharp detector for a degraded fast path)
MIN_SPEEDUP = 1.4


def _config(**kw):
    base = dict(
        scheme=Scheme.MTCD,
        params=PAPER_PARAMETERS,
        correlation=CorrelationModel(
            num_files=PAPER_PARAMETERS.num_files, p=0.9, visit_rate=0.8
        ),
        t_end=2000.0,
        warmup=500.0,
        seed=21,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def test_bench_incremental_speedup(benchmark, bench_registry):
    """Default path vs eager oracle on a seed-heavy MTCD workload."""
    started = time.perf_counter()
    with oracle_mode(), eager_integration():
        oracle = run_scenario(_config())
    oracle_s = time.perf_counter() - started

    fast_s = []

    def fast_run():
        t0 = time.perf_counter()
        summary = run_scenario(_config())
        fast_s.append(time.perf_counter() - t0)
        return summary

    fast = run_once(benchmark, fast_run)
    speedup = oracle_s / fast_s[0]
    benchmark.extra_info["speedup"] = round(speedup, 2)
    bench_registry.inc("bench.incremental.speedup_x100", round(100 * speedup))

    # the two paths differ only in float summation order (a straggler
    # completion may land just across the horizon in one of them)
    assert fast.n_users_completed == pytest.approx(oracle.n_users_completed, abs=3)
    assert fast.avg_download_time_per_file == pytest.approx(
        oracle.avg_download_time_per_file, rel=0.01
    )
    assert speedup >= MIN_SPEEDUP, (
        f"incremental path only {speedup:.2f}x faster than the eager oracle "
        f"({fast_s[0]:.2f}s vs {oracle_s:.2f}s): fast path degraded?"
    )


def test_bench_incremental_counter_guard(benchmark, bench_registry):
    """Completions must retire through windows, not full kernel passes."""
    summary = run_once(benchmark, run_scenario, _config())
    assert summary.n_users_completed > 100
    counters = bench_registry.counters
    full = counters.get("sim.kernel.mesh.full", 0.0)
    incremental = counters.get("sim.kernel.mesh.incremental", 0.0)
    completed = counters.get("sim.window.complete", 0.0)
    full_rows = counters.get("sim.kernel.mesh.peers", 0.0)
    benchmark.extra_info["mesh_full"] = int(full)
    benchmark.extra_info["mesh_incremental"] = int(incremental)
    benchmark.extra_info["window_complete"] = int(completed)

    # virtually every file completion retires inside an open window
    assert completed > 1000
    # full passes exist only to (re)open windows after structural breaks;
    # historically this workload did one full pass *per completion*
    assert full < completed / 50, (full, completed)
    # window refreshes absorb seed churn in O(changes), not full passes
    assert incremental > 10 * full, (incremental, full)
    # total peer-rows touched by full passes stays far below the
    # one-full-pass-per-completion regime (~swarm_size rows per completion)
    assert full_rows < 10 * completed, (full_rows, completed)
