"""The live neighbour topology against its full-rebuild oracle.

A tracker-limited swarm keeps its partner counts and seed-reach matrix live
from the moment it becomes neighbour-aware (:mod:`repro.sim.topology`).
These tests drive random mutation sequences through the public
``SwarmGroup`` / ``Swarm`` API and, after every operation, compare each
gathered array with :func:`repro.sim.reference.neighbor_topology_rebuild`
-- the rebuild from the tracker samples that production never runs.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.sim.entities import DownloadEntry
from repro.sim.reference import neighbor_topology_rebuild
from repro.sim.swarm import SwarmGroup

#: users that may download or seed; 90 and 91 are ghosts that only ever
#: appear in tracker samples (the tracker keeps samples of leavers)
MEMBERS = list(range(8))
IDS = MEMBERS + [90, 91]

member_st = st.sampled_from(MEMBERS)
id_st = st.sampled_from(IDS)
bandwidth_st = st.one_of(st.just(0.0), st.floats(0.01, 1.0))

#: every operation does something: "download" and "seed" toggle the
#: user's membership, "bandwidth" adds the seed when it is absent
op_st = st.one_of(
    st.tuples(st.just("download"), member_st),
    # samples may hold their own user (a self-loop) and ghost ids
    st.tuples(st.just("sample"), id_st, st.frozensets(id_st, max_size=6)),
    st.tuples(st.just("drop"), id_st),
    st.tuples(st.just("seed"), member_st, bandwidth_st, st.booleans()),
    st.tuples(st.just("bandwidth"), member_st, bandwidth_st, st.booleans()),
)


def _group() -> SwarmGroup:
    group = SwarmGroup(0, (0,), eta=0.5)
    group.swarms[0].neighbor_aware = True
    return group


def _entry(user: int) -> DownloadEntry:
    return DownloadEntry(
        user_id=user,
        file_id=0,
        user_class=1,
        stage=1,
        tft_upload=0.02,
        download_cap=0.2,
        remaining=1.0,
    )


def _apply(group: SwarmGroup, op: tuple) -> None:
    """Apply one operation through the public API."""
    swarm = group.swarms[0]
    kind, user = op[0], op[1]
    if kind == "download":
        if (user, 0) in swarm.downloaders:
            group.remove_downloader(user, 0)
        else:
            group.add_downloader(_entry(user))
    elif kind == "sample":
        swarm.set_neighbor_sample(user, op[2])
    elif kind == "drop":
        if user in swarm.neighbors:
            swarm.drop_neighbor_sample(user)
    else:
        bandwidth, virtual = op[2], op[3]
        table = swarm.virtual_seeds if virtual else swarm.real_seeds
        if user not in table:
            group.add_seed(user, 0, bandwidth, 1, virtual=virtual)
        elif kind == "seed":
            group.remove_seed(user, 0, virtual=virtual)
        else:
            group.set_seed_bandwidth(user, 0, bandwidth, virtual=virtual)


def _assert_matches_rebuild(group: SwarmGroup) -> None:
    swarm = group.swarms[0]
    _assert_bookkeeping(swarm)
    gathered = swarm._neighbor_topology()
    rebuilt = neighbor_topology_rebuild(swarm)
    for name, got, want in zip(
        ("has_partner", "connectivity", "bandwidth", "virtual_vec"), gathered, rebuilt
    ):
        if got is None or want is None:
            assert got is None and want is None, name
        else:
            assert np.array_equal(got, want), name


def _assert_bookkeeping(swarm) -> None:
    """Each slot's partner count is exactly its number of other connected
    downloaders (the gather only reads whether it is positive), and the
    reverse index holds exactly the samples' back-links, with no entry for
    a user no sample holds."""
    slot_users = [int(u) for u in swarm.store.column("user_id")]
    want = [
        sum(1 for v in slot_users if v != u and swarm.connected(u, v))
        for u in slot_users
    ]
    assert swarm._topo.partners == want
    back: dict[int, set] = {}
    for u, sample in swarm.neighbors.items():
        for v in sample:
            back.setdefault(v, set()).add(u)
    assert swarm._topo.rev == back


@settings(max_examples=500, deadline=None)
@given(ops=st.lists(op_st, max_size=80))
def test_live_topology_matches_rebuild(ops):
    group = _group()
    for op in ops:
        _apply(group, op)
        _assert_matches_rebuild(group)


def test_scripted_corner_cases():
    """Ghost ids, a self-loop sample, one user holding both a virtual and
    a real seed, a zero-bandwidth seed that later turns positive, and a
    slot reused after its reached downloader left."""
    group = _group()
    swarm = group.swarms[0]
    steps = [
        ("download", 0),
        ("download", 1),
        ("sample", 0, frozenset({1, 90})),  # 90 is a ghost
        ("seed", 2, 0.0, True),  # zero-bandwidth virtual seed
        ("seed", 2, 0.4, False),  # the same user's real seed
        ("sample", 2, frozenset({0, 2})),  # a self-loop
        ("download", 2),  # the seed user downloads too
        ("sample", 1, frozenset({2})),  # a downloader samples the seed ...
        ("sample", 1, frozenset({0})),  # ... and drops it again
        ("bandwidth", 2, 0.3, True),  # zero bandwidth turns positive
        ("seed", 2, 0.0, False),  # the real seed leaves
        ("drop", 0),
        ("download", 0),  # user 0 leaves
        ("sample", 3, frozenset({2})),
        ("download", 3),  # joins at the last slot, reached by seed 2
        ("download", 3),  # ... leaves it
        ("drop", 3),
        ("download", 3),  # ... and rejoins there unreached
    ]
    for op in steps:
        _apply(group, op)
        _assert_matches_rebuild(group)
    assert swarm.virtual_seeds == {2: (0.3, 1)}


def test_slot_and_row_growth():
    """Enough downloaders and seeds to outgrow the initial matrices."""
    group = _group()
    swarm = group.swarms[0]
    for user in range(40):
        group.add_downloader(_entry(user))
        swarm.set_neighbor_sample(user, {(user * 7) % 40, (user * 11 + 3) % 60})
    for user in range(40, 60):
        group.add_seed(user, 0, 0.1 * (user % 3), 1, virtual=user % 2 == 0)
        swarm.set_neighbor_sample(user, {user - 40, user - 20})
    _assert_matches_rebuild(group)
    for user in range(0, 40, 3):
        group.remove_downloader(user, 0)
    for user in range(41, 60, 4):
        group.remove_seed(user, 0, virtual=user % 2 == 0)
    _assert_matches_rebuild(group)


def test_samples_are_read_only():
    swarm = _group().swarms[0]
    swarm.set_neighbor_sample(1, {2})
    with pytest.raises(TypeError):
        swarm.neighbors[3] = frozenset({1})
    with pytest.raises(AttributeError):
        swarm.neighbors[1].add(3)
    assert swarm.neighbors == {1: {2}}


def test_neighbor_awareness_starts_on_an_empty_swarm():
    group = SwarmGroup(0, (0,), eta=0.5)
    group.add_downloader(_entry(1))
    with pytest.raises(ValueError, match="empty"):
        group.swarms[0].neighbor_aware = True


def test_mutual_pair_keeps_its_edge_when_one_side_drops():
    """Both users sampled each other; either side dropping or replacing
    its sample leaves the connection standing."""
    group = _group()
    swarm = group.swarms[0]
    steps = [
        ("download", 0),
        ("download", 1),
        ("seed", 2, 0.5, False),
        ("sample", 0, frozenset({1, 2})),
        ("sample", 1, frozenset({0})),
        ("sample", 2, frozenset({0})),
        ("sample", 0, frozenset({3})),  # 0 forgets 1 and 2; both keep it
        ("drop", 1),  # ... now the pair is gone
        ("drop", 2),  # ... and so is the seed's reach
    ]
    expect = [None, None, None, [1, 1], [1, 1], [1, 1], [1, 1], [0, 0], [0, 0]]
    for op, partners in zip(steps, expect):
        _apply(group, op)
        _assert_matches_rebuild(group)
        if partners is not None:
            assert swarm._topo.partners == partners
    hp, connectivity, *_ = swarm._neighbor_topology()
    assert not hp.any() and not connectivity.any()


def test_self_loop_reaches_only_the_seed_row():
    """A user sampling itself never counts as its own partner, but its seed
    allocation reaches its own download slot."""
    group = _group()
    swarm = group.swarms[0]
    for op in [
        ("download", 4),
        ("sample", 4, frozenset({4})),
        ("seed", 4, 0.3, True),
        ("download", 5),
        ("sample", 5, frozenset({5, 4})),
        ("sample", 4, frozenset()),  # the self-loop goes, 5 keeps the link
        ("sample", 4, frozenset({4, 5})),
    ]:
        _apply(group, op)
        _assert_matches_rebuild(group)
    assert swarm._topo.partners == [1, 1]


def test_counts_reach_zero_when_every_partner_leaves():
    """A hub sampled by everyone: as its partners leave one by one, its
    count falls to exactly 0.  The hub holds the last slot, so the first
    leave swap-fills it into the leaver's slot."""
    group = _group()
    swarm = group.swarms[0]
    hub = MEMBERS[-1]
    for user in MEMBERS[:-1]:
        group.add_downloader(_entry(user))
        swarm.set_neighbor_sample(user, {hub, 90})
    group.add_downloader(_entry(hub))
    _assert_matches_rebuild(group)
    topo = swarm._topo
    assert topo.partners[topo.slot_of[hub]] == len(MEMBERS) - 1
    for user in MEMBERS[:-1]:
        group.remove_downloader(user, 0)
        _assert_matches_rebuild(group)
    assert topo.slot_of == {hub: 0}
    assert topo.partners == [0]
    assert not swarm._neighbor_topology()[0].any()
