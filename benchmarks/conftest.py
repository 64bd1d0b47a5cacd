"""Shared helpers for the benchmark harness.

Each benchmark regenerates one paper artifact (table or figure), asserts
the expected qualitative shape, writes the numeric series to ``results/``
and reports wall-clock timing through pytest-benchmark.  Run with::

    pytest benchmarks/ --benchmark-only

Every benchmark test additionally runs under a fresh
:class:`repro.obs.MetricsRegistry`, and the session merges its records
into ``results/BENCH_results.json`` -- per-test wall-clock, peak process
RSS plus every obs counter the run produced -- so CI can archive
machine-readable evidence alongside the human-readable pytest-benchmark
table.  Records of tests this session did not run are kept, except ids
that no longer exist: when a bench file was collected but one of its
recorded ids was neither run nor deselected, that id is dropped (a
renamed or removed parametrisation must not linger as a baseline).

Memory is tracked via ``getrusage`` high-water marks: ``max_rss_kb`` is
the process peak after the test and ``rss_growth_kb`` how much this test
raised it.  The high-water mark never falls, so growth attributes peak
memory to the *first* test that needed it -- exactly the number a
memory-regression gate wants (a test that newly doubles the peak shows
up; one that reuses already-paid-for memory doesn't).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, use_registry

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: test nodeid -> {"wall_clock_s": ..., "counters": {...}}, in run order
_BENCH_RECORDS: dict[str, dict] = {}

#: every nodeid this session collected, selected or deselected
_COLLECTED: set[str] = set()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def run_once(benchmark, fn, *args, **kwargs):
    """Time one full execution of a heavy experiment driver."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture(autouse=True)
def bench_registry() -> MetricsRegistry:
    """Fresh metrics registry around every benchmark test.

    Kernel invocations, solver iterations and RHS evaluations recorded by
    the instrumented layers land here and end up in BENCH_results.json.
    Tests may also ``inc`` their own ``bench.*`` counters for numbers they
    computed themselves (speedup ratios, eval savings).
    """
    registry = MetricsRegistry()
    with use_registry(registry):
        yield registry


def max_rss_kb() -> int:
    """Peak RSS of this process in KiB (ru_maxrss is bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak // 1024) if sys.platform == "darwin" else int(peak)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    rss_before = max_rss_kb()
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    rss_after = max_rss_kb()
    registry = item.funcargs.get("bench_registry")
    _BENCH_RECORDS[item.nodeid] = {
        "wall_clock_s": round(elapsed, 6),
        "max_rss_kb": rss_after,
        "rss_growth_kb": max(0, rss_after - rss_before),
        "counters": dict(sorted(registry.counters.items())) if registry else {},
    }


def _file_of(nodeid: str) -> str:
    return nodeid.split("::", 1)[0]


def write_results(
    path: Path,
    records: dict[str, dict],
    exit_status: int,
    collected: frozenset[str] | set[str] = frozenset(),
) -> None:
    """Merge this session's per-test ``records`` into the results file.

    Tests run in earlier sessions keep their records, so running one bench
    file does not erase every other bench's baseline; a test that ran again
    takes this session's record.  A recorded id whose file this session
    collected but which is not among the ``collected`` ids (run or
    deselected) no longer exists and is dropped.  An unreadable file is
    replaced.
    """
    merged: dict[str, dict] = {}
    try:
        previous = json.loads(path.read_text())
    except (OSError, ValueError):
        previous = None
    if isinstance(previous, dict) and isinstance(previous.get("results"), dict):
        seen_files = {_file_of(nodeid) for nodeid in collected}
        merged.update(
            (nodeid, record)
            for nodeid, record in previous["results"].items()
            if nodeid in collected or _file_of(nodeid) not in seen_files
        )
    merged.update(records)
    payload = {
        "schema": "repro-bt/bench-results/v1",
        "generated_unix": round(time.time(), 3),
        "exit_status": int(exit_status),
        "results": merged,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")


def pytest_deselected(items):
    _COLLECTED.update(item.nodeid for item in items)


def pytest_collection_finish(session):
    _COLLECTED.update(item.nodeid for item in session.items)


def pytest_sessionfinish(session, exitstatus):
    if not _BENCH_RECORDS:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    write_results(
        RESULTS_DIR / "BENCH_results.json", _BENCH_RECORDS, exitstatus, _COLLECTED
    )
