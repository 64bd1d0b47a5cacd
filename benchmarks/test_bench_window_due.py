"""Micro-bench pinning the window's due judgement against the full scan.

Every completion event of a windowed rate domain asks
:meth:`repro.sim.bandwidth.RateWindow.due` which rows are due.  It walks
each store's lanes (rows sharing ``(tft_upload, download_cap)``) from
their heads; :func:`repro.sim.reference.win_due_scan` recomputes every
row.  Two shapes bracket the design:

* a CMFSD-like pool -- 10 stores of 54 rows in 2 lanes each -- where the
  lane walk must be at least 3x faster per call than the scan;
* one store of 512 rows, each its own lane, which crosses
  ``SCALAR_KERNEL_CUTOFF`` lanes and takes the scan's vector pass, so it
  must cost at most 1.25x the scan.

Both sides answer on the same state and must agree exactly.
"""

from __future__ import annotations

import math
import time

import numpy as np

from benchmarks.conftest import run_once
from repro.obs import current_registry
from repro.sim import DownloadEntry, SeedPolicy, SwarmGroup
from repro.sim.bandwidth import SCALAR_KERNEL_CUTOFF, RateWindow
from repro.sim.reference import win_due_scan

ETA = 0.5
EPS = 1e-6


def _pool(n_stores: int, rows: int, lanes_per_store: int | None, seed: int):
    """Stores filled with rows at random remaining work, plus an open window
    that has run long enough to carry a deferred fold but has no row due
    yet (the judgement a completion event fired at a stale bound makes).

    ``lanes_per_store=None`` gives every row its own ``(tft, cap)`` pair.
    """
    rng = np.random.default_rng(seed)
    group = SwarmGroup(0, tuple(range(n_stores)), eta=ETA, policy=SeedPolicy.GLOBAL_POOL)
    palette = [(0.01 * (k + 1), 0.2) for k in range(lanes_per_store or 0)]
    uid = 0
    for file_id in range(n_stores):
        for i in range(rows):
            if lanes_per_store is None:
                tft, cap = float(rng.uniform(0.005, 0.04)), float(rng.uniform(0.05, 0.5))
            else:
                tft, cap = palette[i % lanes_per_store]
            group.add_downloader(
                DownloadEntry(
                    user_id=uid,
                    file_id=file_id,
                    user_class=1,
                    stage=1,
                    tft_upload=tft,
                    download_cap=cap,
                    remaining=float(rng.uniform(0.05, 1.0)),
                )
            )
            uid += 1
    win = RateWindow()
    win.start(
        eta=ETA,
        t=100.0,
        q=0.05,
        qv=0.02,
        q_max=math.inf,
        ratio_min=0.0,
        total_cap=1.0,
        bound=math.inf,
    )
    win.accumulate(101.0)  # the window has run: rows carry a deferred fold
    return win, [swarm.store for swarm in group.swarms.values()]


def _best_of(fn, repeats: int = 7, inner: int = 200) -> float:
    """Best per-call seconds over ``repeats`` timed loops of ``inner`` calls."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def _time_both(win: RateWindow, stores) -> tuple[float, float]:
    """(index_seconds, scan_seconds) per call on the same state."""
    got = win.due(stores, EPS)  # builds the lane indexes
    want = win_due_scan(win, stores, EPS)
    assert got[0] == want[0] and got[2] == want[2]
    assert [id(e) for e in got[1]] == [id(e) for e in want[1]]
    index_s = _best_of(lambda: win.due(stores, EPS))
    scan_s = _best_of(lambda: win_due_scan(win, stores, EPS))
    return index_s, scan_s


def test_bench_window_due(benchmark):
    """Lane walk >= 3x faster than the scan on a pool; <= 1.25x on 512 lanes."""
    win, pool = _pool(10, 54, 2, seed=1)
    pool_index_s, pool_scan_s = _time_both(win, pool)
    win_wide, wide = _pool(1, 512, None, seed=2)
    assert len(wide[0].lanes()) > SCALAR_KERNEL_CUTOFF
    wide_index_s, wide_scan_s = _time_both(win_wide, wide)

    run_once(benchmark, lambda: win.due(pool, EPS))
    pool_speedup = pool_scan_s / pool_index_s
    wide_ratio = wide_index_s / wide_scan_s
    benchmark.extra_info["pool_index_us"] = round(pool_index_s * 1e6, 2)
    benchmark.extra_info["pool_scan_us"] = round(pool_scan_s * 1e6, 2)
    benchmark.extra_info["wide_index_us"] = round(wide_index_s * 1e6, 2)
    benchmark.extra_info["wide_scan_us"] = round(wide_scan_s * 1e6, 2)
    reg = current_registry()
    reg.inc("bench.window_due.pool_speedup_x1000", round(1000 * pool_speedup))
    reg.inc("bench.window_due.wide_ratio_x1000", round(1000 * wide_ratio))

    assert pool_speedup >= 3.0, (
        f"lane walk should be >= 3x the scan on a 10-store pool, got {pool_speedup:.2f}x"
    )
    assert wide_ratio <= 1.25, (
        f"512 single-row lanes should cost <= 1.25x the scan, got {wide_ratio:.2f}x"
    )
