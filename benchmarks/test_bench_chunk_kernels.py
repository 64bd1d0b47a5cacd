"""Benchmarks pinning the vectorised chunk-level swarm engine.

* The array-kernel round loop (:class:`repro.chunks.swarm.ChunkSwarm`)
  against the scalar oracle (:mod:`repro.chunks.reference`) -- >= 5x per
  round at 250 peers / 100 chunks, with bit-identical accounting.
* The large-swarm eta point the scalar engine could not reach: a
  >= 1000-peer flash crowd measured end to end in under 60 s, landing in
  the paper's eta ~ 0.5 regime.
"""

from __future__ import annotations

import math
import time

from benchmarks.conftest import run_once
from repro.chunks import (
    ChunkSwarm,
    ChunkSwarmConfig,
    ReferenceChunkSwarm,
    measure_eta,
)
from repro.obs import current_registry

N_PEERS = 250
N_CHUNKS = 100
#: past the bootstrap: in the first rounds about one row per round has
#: anything to offer, so the ratio would measure per-round fixed costs
#: rather than choking and transfer at steady state
WARMUP_ROUNDS = 30
TIMED_ROUNDS = 6


def _build(cls, seed: int = 42):
    swarm = cls(ChunkSwarmConfig(n_chunks=N_CHUNKS), seed=seed)
    swarm.add_peers(2, is_seed=True)
    swarm.add_peers(N_PEERS - 2)
    for _ in range(WARMUP_ROUNDS):
        swarm.run_round()
    return swarm


def _time_rounds(swarm, rounds: int) -> float:
    t0 = time.perf_counter()
    for _ in range(rounds):
        swarm.run_round()
    return (time.perf_counter() - t0) / rounds


def test_bench_chunk_round_speedup(benchmark):
    """Vectorised round loop >= 5x over the scalar engine at 250 peers.

    This is the PR's headline acceptance number: the scalar engine walks
    every (uploader, receiver) pair and every piece bitmap in Python; the
    vectorised engine runs interest as one boolean matmul over the
    ownership matrix, choking as one batched tit-for-tat ranking of
    every row, and transfer accounting as scatter-adds into the store.
    Both engines advance the *same* swarm trajectory (same seed), so the
    timing compares identical work -- and the accounting afterwards must
    match bit for bit.  The timed rounds follow ``WARMUP_ROUNDS`` untimed
    ones, and ``ranked_rows`` records how many downloader rows the timed
    rounds ranked by tit-for-tat (how much steady-state work they saw).
    """
    vec = run_once(benchmark, _build, ChunkSwarm)
    ref = _build(ReferenceChunkSwarm)

    reg = current_registry()
    ranked = "chunks.kernel.choke.ranked_rows"
    ranked_before = reg.counters.get(ranked, 0)
    vector_s = _time_rounds(vec, TIMED_ROUNDS)
    ranked_rows = reg.counters.get(ranked, 0) - ranked_before
    scalar_s = _time_rounds(ref, TIMED_ROUNDS)
    speedup = scalar_s / vector_s

    # Same rounds from the same seed: identical state, not just similar.
    assert vec.rng.bit_generator.state == ref.rng.bit_generator.state
    assert vec.downloader_useful == ref.downloader_useful
    assert vec.downloader_capacity == ref.downloader_capacity
    assert vec.wasted_bytes == ref.wasted_bytes
    assert vec.history == ref.history

    benchmark.extra_info["peers"] = N_PEERS
    benchmark.extra_info["chunks"] = N_CHUNKS
    benchmark.extra_info["scalar_ms_per_round"] = round(scalar_s * 1e3, 3)
    benchmark.extra_info["vector_ms_per_round"] = round(vector_s * 1e3, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["ranked_rows"] = int(ranked_rows)
    reg.inc("bench.chunks.round.speedup_x100", round(speedup * 100))
    assert speedup >= 5.0, (
        f"chunk round-loop speedup {speedup:.2f}x < 5x "
        f"(scalar {scalar_s * 1e3:.2f}ms, vector {vector_s * 1e3:.2f}ms)"
    )


def test_bench_eta_large_swarm(benchmark):
    """A 1000-peer / 400-chunk eta measurement finishes in < 60 s.

    The scalar engine needs ~0.3 s *per round* at a quarter of this size;
    at 1000 peers the full flash-crowd lifecycle would take hours.  The
    measured eta must land in the paper's eta ~ 0.5 regime (well below
    Qiu--Srikant's eta -> 1, well above the coarse-grained floor).
    """
    t0 = time.perf_counter()
    m = run_once(
        benchmark,
        lambda: measure_eta(
            n_peers=1000,
            n_seeds=2,
            config=ChunkSwarmConfig(n_chunks=400),
            seed=0,
        ),
    )
    elapsed = time.perf_counter() - t0

    benchmark.extra_info["peers"] = m.n_peers
    benchmark.extra_info["chunks"] = m.n_chunks
    benchmark.extra_info["rounds"] = m.rounds
    benchmark.extra_info["eta_effective"] = round(m.eta_effective, 4)
    benchmark.extra_info["wall_clock_s"] = round(elapsed, 2)
    reg = current_registry()
    reg.inc("bench.chunks.large_swarm.eta_x1000", round(m.eta_effective * 1000))
    reg.inc("bench.chunks.large_swarm.rounds", m.rounds)
    assert elapsed < 60.0, f"1000-peer eta run took {elapsed:.1f}s (>= 60s)"
    assert 0.3 < m.eta_effective < 0.8, (
        f"eta {m.eta_effective:.3f} outside the paper's ~0.5 regime"
    )
    assert math.isfinite(m.mean_download_time) and m.mean_download_time > 0
