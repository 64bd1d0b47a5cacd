"""Behavioral tests for the bounded-degree :class:`SparseChunkSwarm`.

Full-degree bit-for-bit equivalence with the oracle lives in
``test_vector_equivalence.py``; here we pin what is *new* in the sparse
engine: bounded neighborhoods (sampling degree, connection-refusal cap),
tracker-backed membership, determinism of the auxiliary RNG streams, the
external-availability hook the sharded backend drives, and the peer
export/admit migration protocol.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chunks import (
    ChunkSwarm,
    ChunkSwarmConfig,
    PeerExport,
    ReferenceChunkSwarm,
    SparseChunkSwarm,
)
from repro.chunks.swarm import _RoundEngine


def bounded_cfg(degree: int = 4, **kw) -> ChunkSwarmConfig:
    return ChunkSwarmConfig(n_chunks=12, neighbor_degree=degree, **kw)


def test_dense_engines_reject_bounded_degree():
    cfg = bounded_cfg()
    with pytest.raises(ValueError, match="full mixing"):
        ChunkSwarm(cfg, seed=0)
    with pytest.raises(ValueError, match="full mixing"):
        ReferenceChunkSwarm(cfg, seed=0)


def test_config_rejects_bad_degree():
    with pytest.raises(ValueError, match="neighbor_degree"):
        ChunkSwarmConfig(n_chunks=4, neighbor_degree=0)


def test_bounded_flash_crowd_completes_with_degree_cap():
    sw = SparseChunkSwarm(bounded_cfg(degree=4), seed=1)
    sw.add_peers(2, is_seed=True)
    sw.add_peers(40)
    st = sw.store
    # joins respect the 2*degree connection-refusal cap
    assert int(st.deg[: st.n].max()) <= sw.max_degree
    rounds = sw.run(max_rounds=3000)
    assert rounds > 0 and sw.all_done
    assert int(st.deg[: st.n].max()) <= sw.max_degree
    assert sw.downloader_capacity > 0 and sw.seed_useful > 0
    # every leecher finished and the eta ratio is a sane fraction
    eta = sw.downloader_useful / sw.downloader_capacity
    assert 0.0 < eta <= 1.0


def test_bounded_runs_are_deterministic():
    def run_once() -> tuple:
        sw = SparseChunkSwarm(bounded_cfg(degree=3), seed=9)
        sw.add_peers(1, is_seed=True)
        sw.add_peers(20)
        sw.run(max_rounds=3000)
        return (sw.rounds_run, sw.downloader_useful, sw.seed_useful,
                tuple(sw.history[-1]))

    assert run_once() == run_once()


def test_tracker_tracks_membership_and_completions():
    cfg = bounded_cfg(degree=3, seed_stays=False)
    sw = SparseChunkSwarm(cfg, seed=2, file_id=7)
    sw.add_peers(1, is_seed=True)
    sw.add_peers(10)
    stats = sw.tracker.scrape(7)
    assert stats.seeders == 1 and stats.leechers == 10
    sw.run(max_rounds=3000)
    stats = sw.tracker.scrape(7)
    # seed_stays=False: finished leechers announce COMPLETED then STOPPED
    assert stats.completed == 10
    assert sw.tracker.members(7) == {0}  # only the original seed remains


def test_remove_peer_counts_waste_and_announces_stopped():
    sw = SparseChunkSwarm(bounded_cfg(degree=3), seed=3)
    sw.add_peers(1, is_seed=True)
    sw.add_peers(6)
    for _ in range(2):
        sw.run_round()
    victim = next(
        int(pid) for pid in sw.store.peer_id[: sw.store.n]
        if sw.store.partials[sw.store.row_of[int(pid)]]
    )
    pending = sum(
        e[0] for e in sw.store.partials[sw.store.row_of[victim]].values()
    )
    assert pending > 0
    sw.remove_peer(victim)
    assert sw.wasted_bytes == pytest.approx(pending)
    assert victim not in sw.tracker.members(0)
    with pytest.raises(KeyError):
        sw.remove_peer(victim)


def test_external_availability_changes_rarity_order():
    """The sharding hook: injected external counts must steer rarest-first
    away from chunks that are globally common."""
    cfg = ChunkSwarmConfig(n_chunks=4, neighbor_degree=None)

    def first_pick(external) -> int:
        sw = SparseChunkSwarm(cfg, seed=5)
        seed = sw.add_peer(is_seed=True)
        sw.add_peer()
        sw._external = external  # what run_round(external) installs
        row = sw.store.row_of[1]
        urow = sw.store.row_of[seed.peer_id]
        return sw._pick_chunk(row, urow, sw._pick_state(sw.store.n))

    # make every chunk except 2 common elsewhere: rarest-first must pick 2
    external = np.array([10, 10, 0, 10])
    assert first_pick(external) == 2


@pytest.mark.parametrize("engine", [ChunkSwarm, SparseChunkSwarm])
def test_engines_share_one_pick_and_transfer_kernel(engine):
    """Both array engines resolve rarest-first and transfer to the single
    ``_RoundEngine`` implementation; only the credit and availability
    hooks differ."""
    for name in ("_pick_chunk", "_pick_state", "_transfer"):
        assert getattr(engine, name) is getattr(_RoundEngine, name), name


def test_export_admit_round_trip_preserves_download_state():
    src = SparseChunkSwarm(bounded_cfg(degree=3), seed=11)
    src.add_peers(1, is_seed=True)
    src.add_peers(8)
    for _ in range(3):
        src.run_round()
    st = src.store
    pid = next(
        int(p) for p in st.peer_id[: st.n]
        if not st.initially_seed[st.row_of[int(p)]]
        and st.partials[st.row_of[int(p)]]
    )
    row = st.row_of[pid]
    bitmap = st.own[row].copy()
    partials = {c: list(e) for c, e in st.partials[row].items()}
    joined = float(st.joined_at[row])
    credit = float(st.uploaded_useful[row])
    n_before = st.n
    wasted_before = src.wasted_bytes

    (export,) = src.export_peers([pid])
    assert st.n == n_before - 1 and pid not in st.row_of
    # migration is not churn: partials travel, nothing is wasted
    assert src.wasted_bytes == wasted_before
    assert np.array_equal(export.bitmap, bitmap)
    assert export.partials == partials

    dst = SparseChunkSwarm(bounded_cfg(degree=3), seed=12)
    dst.add_peers(1, is_seed=True)
    dst.add_peers(4)
    view = dst.admit_peer(export)
    drow = dst.store.row_of[view.peer_id]
    assert np.array_equal(dst.store.own[drow], bitmap)
    assert dst.store.partials_dict(drow) == partials
    assert dst.store.joined_at[drow] == joined
    assert dst.store.uploaded_useful[drow] == credit
    assert not dst.store.initially_seed[drow]
    # the immigrant is wired into a bounded neighborhood and tracked
    assert 0 < int(dst.store.deg[drow]) <= dst.max_degree
    assert view.peer_id in dst.tracker.members(0)
    # ...and the destination swarm still converges
    dst.run(max_rounds=3000)
    assert dst.all_done


def test_admitted_complete_peer_counts_as_seed():
    dst = SparseChunkSwarm(bounded_cfg(degree=3), seed=13)
    dst.add_peers(1, is_seed=True)
    export = PeerExport(
        bitmap=np.ones(dst.config.n_chunks, dtype=bool),
        initially_seed=False,
        joined_at=0.0,
        finished_at=4.0,
        uploaded_useful=2.5,
    )
    view = dst.admit_peer(export)
    row = dst.store.row_of[view.peer_id]
    assert dst.store.finished_at[row] == 4.0
    assert len(dst.seeds) == 2
    assert dst.tracker.scrape(0).seeders == 2


def test_sample_migrants_never_touches_main_rng():
    sw = SparseChunkSwarm(bounded_cfg(degree=3), seed=17)
    sw.add_peers(1, is_seed=True)
    sw.add_peers(12)
    state = sw.rng.bit_generator.state
    migrants = sw.sample_migrants(5)
    assert len(migrants) == 5 and len(set(migrants)) == 5
    assert sw.rng.bit_generator.state == state
    assert sw.sample_migrants(0) == []
    assert len(sw.sample_migrants(100)) == sw.store.n


def test_stranded_peers_rewire_and_finish():
    """Regression: with departing seeds and a small degree, a leecher's
    whole neighborhood can finish and leave; the stranded peer must
    re-announce and re-wire instead of stalling isolated forever."""
    cfg = ChunkSwarmConfig(n_chunks=12, neighbor_degree=3, seed_stays=False)
    sw = SparseChunkSwarm(cfg, seed=2)
    sw.add_peers(1, is_seed=True)
    sw.add_peers(10)
    sw.run(max_rounds=3000)
    assert sw.all_done


def _strand_last_peer(depart) -> SparseChunkSwarm:
    """1 seed + 6 leechers at degree 2: after 3 rounds the newest peer has a
    single neighbour; ``depart(sw, pid)`` removes that neighbour."""
    cfg = ChunkSwarmConfig(n_chunks=12, neighbor_degree=2)
    sw = SparseChunkSwarm(cfg, seed=1)
    sw.add_peers(1, is_seed=True)
    sw.add_peers(6)
    for _ in range(3):
        sw.run_round()
    st = sw.store
    nbrs = st.neighbors(st.n - 1)
    assert nbrs.size == 1
    depart(sw, int(st.peer_id[nbrs[0]]))
    return sw


@pytest.mark.parametrize(
    "depart",
    [
        pytest.param(lambda sw, pid: sw.remove_peer(pid), id="churn"),
        pytest.param(lambda sw, pid: sw.export_peers([pid]), id="emigration"),
    ],
)
def test_departures_outside_the_round_rewire_stranded_peers(depart):
    """Regression: churn (``remove_peer``) and shard emigration
    (``export_peers``) share the in-round departure path, so a peer whose
    only neighbour leaves re-wires instead of stalling at degree 0."""
    sw = _strand_last_peer(depart)
    st = sw.store
    assert int(st.deg[: st.n].min()) >= 1
    sw.run(max_rounds=500)
    assert sw.all_done


def test_join_never_isolated_even_when_all_candidates_at_cap():
    """Regression: a joiner whose sampled candidates all sit at the
    connection cap attaches to the least-loaded one anyway."""
    cfg = ChunkSwarmConfig(n_chunks=12, neighbor_degree=2)
    sw = SparseChunkSwarm(cfg, seed=9)
    sw.add_peers(1, is_seed=True)
    sw.add_peers(60)
    st = sw.store
    assert int(st.deg[: st.n].min()) >= 1
