"""Benchmarks pinning the two perf layers of this PR.

* The vectorised bandwidth-allocation kernels against their scalar
  reference oracles (:mod:`repro.sim.reference`) -- the neighbour-aware
  kernel must beat the scalar O(n^2) loop by >= 3x at 250 concurrent
  peers.
* The production CMFSD rho path (one scalar root-find) against cold
  per-point ODE solves -- same stationary points, no ODE RHS evaluations,
  less time.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.core import CorrelationModel, PAPER_PARAMETERS
from repro.core.cmfsd import CMFSDModel, steady_state_path
from repro.obs import capture, current_registry
from repro.sim import DownloadEntry, SwarmGroup
from repro.sim.reference import oracle_mode, recompute_rates_scalar

ETA = 0.5


def _build_neighbor_swarm(n_peers: int, n_seeds: int, degree: int, seed: int):
    """A neighbour-aware swarm with random capacities and tracker samples."""
    rng = np.random.default_rng(seed)
    group = SwarmGroup(0, (0,), eta=ETA)
    swarm = group.swarms[0]
    swarm.neighbor_aware = True
    for uid in range(n_peers):
        group.add_downloader(
            DownloadEntry(
                user_id=uid,
                file_id=0,
                user_class=1,
                stage=1,
                tft_upload=float(rng.uniform(0.005, 0.04)),
                download_cap=float(rng.uniform(0.05, 0.5)),
                remaining=float(rng.uniform(0.05, 1.0)),
            )
        )
    for k in range(n_seeds):
        group.add_seed(
            n_peers + k,
            0,
            bandwidth=float(rng.uniform(0.1, 0.6)),
            user_class=1,
            virtual=(k % 2 == 0),
        )
    everyone = list(range(n_peers + n_seeds))
    for uid in everyone:
        others = [u for u in everyone if u != uid]
        sample = rng.choice(others, size=min(degree, len(others)), replace=False)
        swarm.set_neighbor_sample(uid, (int(u) for u in sample))
    return group, swarm


def _best_of(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_neighbor_kernel_speedup(benchmark):
    """Adjacency+matmul kernel >= 3x over the scalar loop at 250 peers.

    This is the PR's headline acceptance number: the scalar reference
    walks every (downloader, downloader) pair and every (seed, downloader)
    pair in Python; the vectorised kernel builds a boolean adjacency
    matrix and allocates seed bandwidth with one matrix product.
    """
    group, swarm = _build_neighbor_swarm(n_peers=250, n_seeds=25, degree=40, seed=3)

    # Equivalence first: both kernels on the same swarm, same answer.
    recompute_rates_scalar(swarm, ETA)
    expected_rate = swarm.store.column("rate").copy()
    expected_rfv = swarm.store.column("rate_from_virtual").copy()
    swarm.recompute_rates(ETA)
    np.testing.assert_allclose(swarm.store.column("rate"), expected_rate, rtol=1e-9)
    np.testing.assert_allclose(
        swarm.store.column("rate_from_virtual"), expected_rfv, rtol=1e-9, atol=1e-15
    )

    scalar_s = _best_of(lambda: recompute_rates_scalar(swarm, ETA), repeats=3)
    run_once(benchmark, lambda: swarm.recompute_rates(ETA))
    vector_s = _best_of(lambda: swarm.recompute_rates(ETA), repeats=10)
    speedup = scalar_s / vector_s

    def cold_recompute():
        with oracle_mode():  # rebuild the topology instead of gathering it
            swarm.recompute_rates(ETA)

    cold_s = _best_of(cold_recompute, repeats=5)
    benchmark.extra_info["peers"] = swarm.n_downloaders
    benchmark.extra_info["scalar_ms"] = round(scalar_s * 1e3, 3)
    benchmark.extra_info["vector_ms"] = round(vector_s * 1e3, 3)
    benchmark.extra_info["vector_cold_ms"] = round(cold_s * 1e3, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["cold_speedup"] = round(scalar_s / cold_s, 2)
    reg = current_registry()
    reg.inc("bench.kernels.neighbor.speedup_x100", round(speedup * 100))
    assert speedup >= 3.0, (
        f"neighbor-aware kernel speedup {speedup:.2f}x < 3x "
        f"(scalar {scalar_s * 1e3:.2f}ms, vector {vector_s * 1e3:.2f}ms)"
    )


def test_bench_mesh_kernel_speedup(benchmark):
    """Full-mesh kernel vs scalar loop at 500 peers (informational)."""
    rng = np.random.default_rng(11)
    group = SwarmGroup(0, (0,), eta=ETA)
    swarm = group.swarms[0]
    for uid in range(500):
        group.add_downloader(
            DownloadEntry(
                user_id=uid,
                file_id=0,
                user_class=1,
                stage=1,
                tft_upload=float(rng.uniform(0.005, 0.04)),
                download_cap=float(rng.uniform(0.05, 0.5)),
                remaining=float(rng.uniform(0.05, 1.0)),
            )
        )
    for k in range(10):
        group.add_seed(500 + k, 0, 0.4, 1, virtual=(k % 2 == 0))

    recompute_rates_scalar(swarm, ETA)
    expected = swarm.store.column("rate").copy()
    swarm.recompute_rates(ETA)
    np.testing.assert_allclose(swarm.store.column("rate"), expected, rtol=1e-9)

    scalar_s = _best_of(lambda: recompute_rates_scalar(swarm, ETA), repeats=5)
    run_once(benchmark, lambda: swarm.recompute_rates(ETA))
    vector_s = _best_of(lambda: swarm.recompute_rates(ETA), repeats=20)
    speedup = scalar_s / vector_s
    benchmark.extra_info["peers"] = swarm.n_downloaders
    benchmark.extra_info["scalar_ms"] = round(scalar_s * 1e3, 3)
    benchmark.extra_info["vector_ms"] = round(vector_s * 1e3, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    current_registry().inc("bench.kernels.mesh.speedup_x100", round(speedup * 100))
    assert speedup > 1.0


def test_bench_cmfsd_root_vs_reference_path(benchmark):
    """The production rho path (one scalar root-find): same stationary
    points as the reference ODE path, no ODE RHS evaluations, less time."""
    corr = CorrelationModel(num_files=PAPER_PARAMETERS.num_files, p=0.6)
    rho_values = np.linspace(0.0, 1.0, 6)
    models = [
        CMFSDModel.from_correlation(PAPER_PARAMETERS, corr, rho=float(r))
        for r in rho_values
    ]

    started = time.perf_counter()
    with capture(trace=False) as reference_obs:
        reference = steady_state_path(models, warm_start=False)
    reference_s = time.perf_counter() - started
    reference_evals = reference_obs.registry.counters["ode.rhs_evals"]

    def root_run():
        started = time.perf_counter()
        with capture(trace=False) as root_obs:
            states = steady_state_path(models, warm_start=True)
        return states, root_obs.registry.counters, time.perf_counter() - started

    root, counters, root_s = run_once(benchmark, root_run)

    assert all(s.converged for s in reference) and all(s.converged for s in root)
    for ref, r in zip(reference, root):
        np.testing.assert_allclose(ref.state, r.state, rtol=1e-6, atol=1e-8)
    root_evals = counters.get("ode.rhs_evals", 0.0)
    benchmark.extra_info["reference_rhs_evals"] = int(reference_evals)
    benchmark.extra_info["root_rhs_evals"] = int(root_evals)
    benchmark.extra_info["reference_over_root_time"] = round(reference_s / root_s, 1)
    reg = current_registry()
    reg.inc("bench.cmfsd_path.reference_rhs_evals", reference_evals)
    reg.inc("bench.cmfsd_path.root_rhs_evals", root_evals)
    assert counters["core.cmfsd.root.solves"] == len(models)
    assert root_evals == 0, f"production path used {root_evals} ODE RHS evals"
    assert root_s < reference_s, (
        f"production path took {root_s:.4f} s vs {reference_s:.4f} s reference"
    )
