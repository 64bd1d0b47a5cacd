"""Unit tests for the structure-of-arrays :class:`repro.chunks.store.ChunkStore`.

The round kernels lean on invariants that are easy to break silently --
row order == insertion order, order-preserving compaction on both axes of
the P x P matrices, received totals surviving compaction, zeroed row reuse
after growth, partial dicts in creation order -- so they are pinned here
directly, below the engine-level equivalence suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chunks import ChunkStore


def test_add_assigns_rows_in_insertion_order():
    st = ChunkStore(n_chunks=5)
    for pid in (0, 3, 7):
        st.add(pid, is_seed=False, joined_at=0.0)
    assert st.n == 3
    assert list(st.peer_id[:3]) == [0, 3, 7]
    assert st.row_of == {0: 0, 3: 1, 7: 2}


def test_add_rejects_non_increasing_ids():
    st = ChunkStore(n_chunks=5)
    st.add(4, is_seed=False, joined_at=0.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        st.add(4, is_seed=False, joined_at=0.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        st.add(2, is_seed=False, joined_at=0.0)


def test_seed_row_initialisation():
    st = ChunkStore(n_chunks=4)
    st.add(0, is_seed=True, joined_at=1.5)
    st.add(1, is_seed=False, joined_at=2.5)
    assert st.own[0].all() and not st.own[1].any()
    assert st.n_owned[0] == 4 and st.n_owned[1] == 0
    assert st.finished_at[0] == 1.5 and np.isnan(st.finished_at[1])
    assert st.initially_seed[0] and not st.initially_seed[1]


def test_growth_preserves_state_and_zeroes_new_rows():
    st = ChunkStore(n_chunks=3, capacity=2)
    st.add(0, is_seed=True, joined_at=0.0)
    st.add(1, is_seed=False, joined_at=0.0)
    st.r_cur[1, 0] = 0.25
    st.partials[1][2] = [0.1, 0.1, 0.0]
    st.add(2, is_seed=False, joined_at=1.0)  # triggers _grow
    assert st._cap >= 3
    assert st.own[0].all()
    assert st.r_cur[1, 0] == 0.25
    assert st.partials_dict(1) == {2: [0.1, 0.1, 0.0]}
    assert not st.own[2].any()
    assert st.partials_dict(2) == {}
    assert st.r_cur[2, :3].sum() == 0.0
    assert np.isnan(st.finished_at[2])


def test_compact_is_order_preserving_on_both_axes():
    st = ChunkStore(n_chunks=3)
    for pid in range(4):
        st.add(pid, is_seed=False, joined_at=0.0)
    # distinctive values: r_cur[receiver, uploader] = 10*receiver + uploader
    for r in range(4):
        for u in range(4):
            st.r_cur[r, u] = 10 * r + u
    st.compact([1])
    assert st.n == 3
    assert list(st.peer_id[:3]) == [0, 2, 3]
    assert st.row_of == {0: 0, 2: 1, 3: 2}
    expected = np.array([[0, 2, 3], [20, 22, 23], [30, 32, 33]], dtype=float)
    assert np.array_equal(st.r_cur[:3, :3], expected)


def test_compact_keeps_received_totals_of_survivors():
    """Bytes from a departed uploader stay in the survivor's total (the
    scalar engine's dicts behave the same way for the 'fastest' policy)."""
    st = ChunkStore(n_chunks=3)
    for pid in range(3):
        st.add(pid, is_seed=False, joined_at=0.0)
    st.recv_total_cur[2] = 0.5  # includes bytes from soon-dropped row 0
    st.compact([0])
    assert st.recv_total_cur[st.row_of[2]] == 0.5


def test_compact_then_add_reuses_zeroed_rows():
    st = ChunkStore(n_chunks=3)
    for pid in range(3):
        st.add(pid, is_seed=False, joined_at=0.0)
    st.own[2] = True
    st.partials[2][1] = [0.01, 0.0, 0.01]
    st.active[2].add(1)
    st.compact([2])
    row = st.add(5, is_seed=False, joined_at=3.0)
    assert row == 2
    assert not st.own[2].any()
    assert st.partials_dict(2) == {}
    assert st.active_chunk_set(2) == set()


def test_rollover_swaps_and_clears():
    st = ChunkStore(n_chunks=2)
    st.add(0, is_seed=False, joined_at=0.0)
    st.add(1, is_seed=False, joined_at=0.0)
    st.r_cur[0, 1] = 0.3
    st.recv_total_cur[0] = 0.3
    st.active[0].add(1)
    st.rollover()
    assert st.r_prev[0, 1] == 0.3 and st.r_cur[0, 1] == 0.0
    assert st.recv_total_prev[0] == 0.3 and st.recv_total_cur[0] == 0.0
    assert st.active_chunk_set(0) == set()


def test_partials_dict_orders_by_creation_sequence():
    st = ChunkStore(n_chunks=5)
    st.add(0, is_seed=False, joined_at=0.0)
    # chunk 4 started before chunk 1
    st.partials[0][4] = [0.01, 0.01, 0.0]
    st.partials[0][1] = [0.02, 0.0, 0.02]
    assert list(st.partials_dict(0)) == [4, 1]
    # a completed chunk that restarts is the newest partial
    del st.partials[0][4]
    st.partials[0][4] = [0.005, 0.005, 0.0]
    assert list(st.partials_dict(0)) == [1, 4]
    st.clear_partials(0)
    assert st.partials_dict(0) == {}


def test_constructor_validation():
    with pytest.raises(ValueError, match="n_chunks"):
        ChunkStore(n_chunks=0)
    with pytest.raises(ValueError, match="capacity"):
        ChunkStore(n_chunks=3, capacity=0)


def test_compact_shrinks_capacity_when_mostly_empty():
    """A flash crowd that drains away must give its memory back: after
    compaction drops occupancy below a quarter of the allocation, the
    store reallocates down (regression: capacity only ever doubled)."""
    st = ChunkStore(n_chunks=4, capacity=16)
    for pid in range(600):
        st.add(pid, is_seed=False, joined_at=0.0)
    grown_cap = st._cap
    assert grown_cap >= 600
    st.recv_total_cur[5] = 0.25
    st.compact(list(range(10, 600)))
    assert st.n == 10
    assert st._cap < grown_cap
    assert st.n <= st._cap
    # the shrink is a real reallocation, not just bookkeeping
    assert st.own.shape[0] == st._cap
    assert st.r_cur.shape == (st._cap, st._cap)
    # survivors keep their state and order
    assert list(st.peer_id[: st.n]) == list(range(10))
    assert st.recv_total_cur[5] == 0.25


def test_compact_never_shrinks_below_floor_or_live_rows():
    st = ChunkStore(n_chunks=2, capacity=16)
    for pid in range(40):
        st.add(pid, is_seed=False, joined_at=0.0)
    st.compact(list(range(1, 40)))
    assert st.n == 1
    assert st._cap >= 16  # floor: small swarms shouldn't thrash
    # dropping everyone is fine too
    st.compact([0])
    assert st.n == 0
    assert st._cap >= 16
