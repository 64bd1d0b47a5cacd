"""Bit-for-bit equivalence: array engines vs the scalar oracle.

Neither the vectorised ``ChunkSwarm`` nor the full-degree sparse
``SparseChunkSwarm`` is merely "statistically similar" to
:class:`repro.chunks.reference.ReferenceChunkSwarm` -- both replay the
exact same RNG draw sequence and float accumulation order, so *every*
observable must match exactly: final bitmaps, download times, the eta
numerator and denominator, per-peer counters, the full round history, and
even the terminal ``Generator`` state.  These tests pin that across all
unchoke policies, super-seeding on/off, seed departure on/off and
multiple seeds, for both engines (>= 48 seeded configurations).  For the
sparse engine the full-degree (``neighbor_degree=None``) adjacency rows
enumerate every other peer in ascending-id order, which is exactly the
oracle's candidate order; its auxiliary tracker/neighbour RNG streams
never touch the main generator.

One documented representational difference: the scalar engine's
``received_*`` dicts keep stale entries from uploaders that have since left
the swarm, while the store compacts those columns away (the bytes survive
in the totals that the ``"fastest"`` policy sums).  The dict comparison is
therefore restricted to peers still present -- dynamics never read the
stale entries, which the matching RNG states prove.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chunks import (
    ChunkSwarm,
    ChunkSwarmConfig,
    ReferenceChunkSwarm,
    SparseChunkSwarm,
)

POLICIES = ("random", "round_robin", "fastest")

#: both array engines are pinned against the oracle; the sparse one runs
#: in its full-degree (dense-equivalent) mode here
ENGINES = {"vector": ChunkSwarm, "sparse": SparseChunkSwarm}


def assert_swarms_equal(vec, ref: ReferenceChunkSwarm) -> None:
    """Every observable of the two engines matches exactly."""
    assert vec.rng.bit_generator.state == ref.rng.bit_generator.state
    assert vec.now == ref.now
    assert vec.rounds_run == ref.rounds_run
    assert vec.downloader_useful == ref.downloader_useful
    assert vec.downloader_capacity == ref.downloader_capacity
    assert vec.seed_useful == ref.seed_useful
    assert vec.seed_capacity == ref.seed_capacity
    assert vec.wasted_bytes == ref.wasted_bytes
    assert vec.history == ref.history
    assert set(vec.peers) == set(ref.peers)
    live = set(ref.peers)
    for pid, rp in ref.peers.items():
        vp = vec.peers[pid]
        assert np.array_equal(vp.bitmap, rp.bitmap), pid
        assert vp.finished_at == rp.finished_at, pid
        assert vp.joined_at == rp.joined_at, pid
        assert vp.uploaded_useful == rp.uploaded_useful, pid
        assert vp.partials == rp.partials, pid
        assert vp.active_chunks == rp.active_chunks, pid
        assert np.array_equal(vp.offered_counts, rp.offered_counts), pid
        assert vp.rotation_cursor == rp.rotation_cursor, pid
        for attr in ("received_last_round", "received_this_round"):
            vd = {k: v for k, v in getattr(vp, attr).items() if k in live}
            rd = {k: v for k, v in getattr(rp, attr).items() if k in live}
            assert vd == rd, (pid, attr)


def run_both(cfg: ChunkSwarmConfig, *, seed: int, n_seeds: int, n_leech: int,
             max_rounds: int = 400, engine: str = "vector"):
    vec = ENGINES[engine](cfg, seed=seed)
    ref = ReferenceChunkSwarm(cfg, seed=seed)
    for s in (vec, ref):
        s.add_peers(n_seeds, is_seed=True)
        s.add_peers(n_leech)
        s.run(max_rounds=max_rounds)
    return vec, ref


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("super_seeding", [False, True])
@pytest.mark.parametrize("policy", POLICIES)
def test_flash_crowd_equivalence(
    policy: str, super_seeding: bool, seed: int, engine: str
):
    """Seeds stay: the full flash-crowd lifecycle matches bit for bit."""
    cfg = ChunkSwarmConfig(
        n_chunks=20, seed_unchoke=policy, super_seeding=super_seeding
    )
    vec, ref = run_both(cfg, seed=seed, n_seeds=2, n_leech=12, engine=engine)
    assert_swarms_equal(vec, ref)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("super_seeding", [False, True])
@pytest.mark.parametrize("policy", POLICIES)
def test_multiword_bitset_equivalence(
    policy: str, super_seeding: bool, engine: str
):
    """130 chunks: every ownership/partial row spans three 64-bit words and
    ends in a part-filled byte, so bits past the first word (and the
    packing of a ragged last byte) carry the whole lifecycle."""
    cfg = ChunkSwarmConfig(
        n_chunks=130, seed_unchoke=policy, super_seeding=super_seeding
    )
    vec, ref = run_both(
        cfg, seed=0, n_seeds=2, n_leech=12, max_rounds=2000, engine=engine
    )
    assert_swarms_equal(vec, ref)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("super_seeding", [False, True])
@pytest.mark.parametrize("policy", POLICIES)
def test_departing_seeds_equivalence(
    policy: str, super_seeding: bool, seed: int, engine: str
):
    """seed_stays=False: finished peers leave; compaction must not disturb
    the draw order of the remaining rows."""
    cfg = ChunkSwarmConfig(
        n_chunks=15,
        seed_unchoke=policy,
        super_seeding=super_seeding,
        seed_stays=False,
    )
    vec = ENGINES[engine](cfg, seed=seed)
    ref = ReferenceChunkSwarm(cfg, seed=seed)
    for s in (vec, ref):
        s.add_peers(2, is_seed=True)
        s.add_peers(10)
        for _ in range(250):
            if s.all_done:
                break
            s.run_round()
    assert_swarms_equal(vec, ref)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("policy", POLICIES)
def test_churn_equivalence(policy: str, engine: str):
    """Scripted joins and removals mid-download stay in lockstep."""
    cfg = ChunkSwarmConfig(n_chunks=12, seed_unchoke=policy)
    vec = ENGINES[engine](cfg, seed=7)
    ref = ReferenceChunkSwarm(cfg, seed=7)
    for s in (vec, ref):
        s.add_peer(is_seed=True)
        s.add_peers(8)
    # interleave rounds with churn events at fixed times
    script = {3: ("remove", 4), 5: ("add", None), 8: ("remove", 2), 10: ("add", None)}
    for k in range(40):
        event = script.get(k)
        removed = []
        for s in (vec, ref):
            if event is not None:
                kind, pid = event
                if kind == "remove" and pid in s.peers:
                    removed.append(s.remove_peer(pid))
                elif kind == "add":
                    s.add_peer()
            s.run_round()
        if len(removed) == 2:
            v, r = removed
            assert np.array_equal(v.bitmap, r.bitmap)
            assert v.partials == r.partials == {}
    assert_swarms_equal(vec, ref)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_eta_accounting_equivalence(engine: str):
    """The eta numerator/denominator (the paper's measured quantity) match
    exactly on a larger config than the lifecycle tests use."""
    cfg = ChunkSwarmConfig(n_chunks=40)
    vec, ref = run_both(
        cfg, seed=3, n_seeds=1, n_leech=25, max_rounds=2000, engine=engine
    )
    assert vec.downloader_useful == ref.downloader_useful
    assert vec.downloader_capacity == ref.downloader_capacity
    assert vec.seed_useful == ref.seed_useful
    assert vec.seed_capacity == ref.seed_capacity
    times_v = sorted(p.finished_at for p in vec.peers.values())
    times_r = sorted(p.finished_at for p in ref.peers.values())
    assert times_v == times_r


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_select_unchoked_standalone_equivalence(engine: str):
    """The public choking entry point consumes RNG identically standalone."""
    for policy in POLICIES:
        cfg = ChunkSwarmConfig(n_chunks=10, seed_unchoke=policy)
        vec = ENGINES[engine](cfg, seed=11)
        ref = ReferenceChunkSwarm(cfg, seed=11)
        for s in (vec, ref):
            s.add_peer(is_seed=True)
            s.add_peers(7)
            for _ in range(5):
                s.run_round()
        for pid in list(ref.peers):
            assert vec._select_unchoked(vec.peers[pid]) == ref._select_unchoked(
                ref.peers[pid]
            ), (policy, pid)
        assert vec.rng.bit_generator.state == ref.rng.bit_generator.state


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("policy", POLICIES)
def test_in_order_equivalence(policy: str, seed: int, engine: str):
    """The streaming piece policy matches bit for bit too."""
    cfg = ChunkSwarmConfig(
        n_chunks=20, seed_unchoke=policy, piece_selection="in_order"
    )
    vec, ref = run_both(
        cfg, seed=seed, n_seeds=2, n_leech=10, max_rounds=2000, engine=engine
    )
    assert_swarms_equal(vec, ref)


def test_in_order_prioritizes_low_indices():
    """Under in_order, early pieces complete (weakly) before later ones."""
    from repro.chunks.measurement import measure_deadline_misses

    cfg = ChunkSwarmConfig(n_chunks=15, piece_selection="in_order")
    m = measure_deadline_misses(
        n_peers=8, config=cfg, playback_rate=0.02,
        startup_delays=(0.0, 1e9), seed=0, max_rounds=5000,
    )
    assert m.miss_rates[-1] == 0.0  # an infinite startup delay never misses
    assert 0.0 <= m.miss_rates[0] <= 1.0
