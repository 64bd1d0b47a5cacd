"""Vectorised kernels vs their scalar reference oracles.

Every allocation kernel in :mod:`repro.sim.swarm` replaced a per-entry
Python loop; those loops survive verbatim in :mod:`repro.sim.reference`.
These tests build randomised swarms -- including zero-capacity peers,
bandwidth-less seeds, isolated downloaders and neighbour samples pointing
at departed users -- and assert the array kernels reproduce the scalar
allocations to within float-summation reordering tolerance.

The neighbour-aware kernel additionally keeps its topology matrices live
across membership, sample and seed changes (:mod:`repro.sim.topology`),
so a dedicated block mutates each of those between recomputes and
re-checks against the oracle: a missed update shows up here as a rate
mismatch.
"""

from __future__ import annotations

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.sim.entities import DownloadEntry
from repro.sim.reference import (
    advance_scalar,
    next_completion_time_scalar,
    recompute_rates_all_scalar,
    recompute_rates_scalar,
)
from repro.sim.swarm import SeedPolicy, SwarmGroup

ETA = 0.5

#: per-downloader (tft_upload, download_cap, remaining); caps may be zero
downloader_st = st.tuples(
    st.floats(0.0, 0.1),
    st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
    st.floats(0.0, 2.0),
)

#: per-seed (bandwidth, virtual); bandwidth may be zero
seed_st = st.tuples(st.one_of(st.just(0.0), st.floats(0.01, 0.8)), st.booleans())


def _build_group(
    downloaders: list[tuple[float, float, float]],
    seeds: list[tuple[float, bool]],
    *,
    neighbor_aware: bool = False,
) -> SwarmGroup:
    group = SwarmGroup(0, (0,), eta=ETA)
    swarm = group.swarms[0]
    swarm.neighbor_aware = neighbor_aware
    for uid, (tft, cap, remaining) in enumerate(downloaders):
        group.add_downloader(
            DownloadEntry(
                user_id=uid,
                file_id=0,
                user_class=1,
                stage=1,
                tft_upload=tft,
                download_cap=cap,
                remaining=remaining,
            )
        )
    for k, (bw, virtual) in enumerate(seeds):
        group.add_seed(1000 + k, 0, bw, 1, virtual=virtual)
    return group


def _rates(swarm) -> tuple[np.ndarray, np.ndarray]:
    return (
        swarm.store.column("rate").copy(),
        swarm.store.column("rate_from_virtual").copy(),
    )


def _assert_matches_scalar(swarm, eta: float = ETA) -> None:
    """Run both kernels on ``swarm`` and compare the resulting rates."""
    recompute_rates_scalar(swarm, eta)
    expected_rate, expected_rfv = _rates(swarm)
    swarm.recompute_rates(eta)
    rate, rfv = _rates(swarm)
    np.testing.assert_allclose(rate, expected_rate, rtol=1e-9, atol=1e-15)
    np.testing.assert_allclose(rfv, expected_rfv, rtol=1e-9, atol=1e-15)


class TestFullMeshEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        downloaders=st.lists(downloader_st, max_size=25),
        seeds=st.lists(seed_st, max_size=6),
    )
    def test_random_swarms(self, downloaders, seeds):
        group = _build_group(downloaders, seeds)
        _assert_matches_scalar(group.swarms[0])

    def test_all_zero_capacity(self):
        group = _build_group([(0.02, 0.0, 1.0)] * 4, [(0.5, True)])
        _assert_matches_scalar(group.swarms[0])

    def test_empty_swarm_is_noop(self):
        group = _build_group([], [(0.5, False)])
        group.swarms[0].recompute_rates(ETA)
        assert group.swarms[0].store.n == 0


class TestPoolEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        per_file=st.lists(
            st.tuples(st.lists(downloader_st, max_size=10), st.lists(seed_st, max_size=3)),
            min_size=1,
            max_size=3,
        )
    )
    def test_random_groups(self, per_file):
        files = tuple(range(len(per_file)))
        group = SwarmGroup(0, files, eta=ETA, policy=SeedPolicy.GLOBAL_POOL)
        uid = 0
        for f, (downloaders, seeds) in enumerate(per_file):
            for tft, cap, remaining in downloaders:
                group.add_downloader(
                    DownloadEntry(
                        user_id=uid,
                        file_id=f,
                        user_class=1,
                        stage=1,
                        tft_upload=tft,
                        download_cap=cap,
                        remaining=remaining,
                    )
                )
                uid += 1
            for bw, virtual in seeds:
                group.add_seed(1000 + uid, f, bw, 1, virtual=virtual)
                uid += 1
        recompute_rates_all_scalar(group)
        expected = [_rates(s) for s in group.swarms.values()]
        group.recompute_rates_all()
        for swarm, (exp_rate, exp_rfv) in zip(group.swarms.values(), expected):
            rate, rfv = _rates(swarm)
            np.testing.assert_allclose(rate, exp_rate, rtol=1e-9, atol=1e-15)
            np.testing.assert_allclose(rfv, exp_rfv, rtol=1e-9, atol=1e-15)


class TestNeighborAwareEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_topologies(self, data):
        downloaders = data.draw(st.lists(downloader_st, max_size=15))
        seeds = data.draw(st.lists(seed_st, max_size=4))
        group = _build_group(downloaders, seeds, neighbor_aware=True)
        swarm = group.swarms[0]
        # Sample neighbour sets over downloaders, seeds *and* ghost ids of
        # users that never joined (the tracker keeps samples of leavers).
        population = (
            list(range(len(downloaders)))
            + [1000 + k for k in range(len(seeds))]
            + [5000, 5001]
        )
        for uid in population:
            sample = data.draw(
                st.sets(st.sampled_from(population), max_size=len(population))
            )
            if sample:
                swarm.set_neighbor_sample(uid, sample - {uid})
        _assert_matches_scalar(swarm)

    def test_no_partners_no_tft(self):
        group = _build_group([(0.05, 0.5, 1.0)] * 3, [], neighbor_aware=True)
        swarm = group.swarms[0]  # nobody knows anybody
        swarm.recompute_rates(ETA)
        np.testing.assert_array_equal(swarm.store.column("rate"), 0.0)
        _assert_matches_scalar(swarm)

    def test_zero_capacity_receiver_gets_no_seed_share(self):
        group = _build_group(
            [(0.05, 0.0, 1.0), (0.05, 0.4, 1.0)], [(0.6, True)], neighbor_aware=True
        )
        swarm = group.swarms[0]
        swarm.set_neighbor_sample(0, {1, 1000})
        swarm.set_neighbor_sample(1, {0, 1000})
        _assert_matches_scalar(swarm)
        assert swarm.store.entries[0].rate_from_virtual == pytest.approx(0.0)

    def test_user_holding_virtual_and_real_seed(self):
        group = _build_group([(0.03, 0.4, 1.0), (0.02, 0.3, 1.0)], [], neighbor_aware=True)
        swarm = group.swarms[0]
        group.add_seed(7, 0, 0.5, 1, virtual=True)
        group.add_seed(7, 0, 0.2, 1, virtual=False)
        swarm.set_neighbor_sample(0, {1, 7})
        swarm.set_neighbor_sample(7, {1})
        _assert_matches_scalar(swarm)


class TestTopologyCacheInvalidation:
    """Mutate each topology input between recomputes; rates must follow."""

    def _fresh(self) -> SwarmGroup:
        group = _build_group(
            [(0.05, 0.5, 1.0), (0.02, 0.3, 1.0), (0.04, 0.2, 1.0)],
            [(0.4, True), (0.3, False)],
            neighbor_aware=True,
        )
        swarm = group.swarms[0]
        swarm.set_neighbor_sample(0, {1, 1000})
        swarm.set_neighbor_sample(2, {1, 1001})
        swarm.recompute_rates(ETA)  # prime the seed plan
        return group

    def test_membership_change_invalidates(self):
        group = self._fresh()
        swarm = group.swarms[0]
        group.add_downloader(
            DownloadEntry(
                user_id=9, file_id=0, user_class=1, stage=1,
                tft_upload=0.03, download_cap=0.6, remaining=1.0,
            )
        )
        swarm.set_neighbor_sample(9, {0, 1000})
        _assert_matches_scalar(swarm)
        group.remove_downloader(0, 0)
        _assert_matches_scalar(swarm)

    def test_neighbor_change_invalidates(self):
        group = self._fresh()
        swarm = group.swarms[0]
        swarm.set_neighbor_sample(1, {0, 1001})
        _assert_matches_scalar(swarm)
        swarm.drop_neighbor_sample(0)
        _assert_matches_scalar(swarm)

    def test_seed_change_invalidates(self):
        group = self._fresh()
        swarm = group.swarms[0]
        group.remove_seed(1000, 0, virtual=True)
        _assert_matches_scalar(swarm)
        group.add_seed(1002, 0, 0.7, 1, virtual=False)
        swarm.set_neighbor_sample(1002, {1})
        _assert_matches_scalar(swarm)

    def test_bandwidth_change_invalidates(self):
        group = self._fresh()
        swarm = group.swarms[0]
        before = swarm.store.column("rate").copy()
        group.set_seed_bandwidth(1000, 0, 0.0, virtual=True)
        _assert_matches_scalar(swarm)
        assert not np.allclose(swarm.store.column("rate"), before)

    def test_capacity_change_needs_no_invalidation(self):
        # download caps enter the per-call math, not the live topology
        group = self._fresh()
        swarm = group.swarms[0]
        swarm.store.entries[1].download_cap = 0.9
        _assert_matches_scalar(swarm)


class TestProgressAndCompletionEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        downloaders=st.lists(downloader_st, max_size=15),
        seeds=st.lists(seed_st, max_size=4),
        dt=st.floats(0.0, 20.0),
    )
    def test_advance_matches_scalar(self, downloaders, seeds, dt):
        vec = _build_group(downloaders, seeds)
        ref = _build_group(downloaders, seeds)
        vec.swarms[0].recompute_rates(ETA)
        ref.swarms[0].recompute_rates(ETA)
        vec.swarms[0].advance(dt)
        advance_scalar(ref.swarms[0], dt, None)
        np.testing.assert_allclose(
            vec.swarms[0].store.column("remaining"),
            ref.swarms[0].store.column("remaining"),
            rtol=1e-9,
            atol=1e-15,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        downloaders=st.lists(downloader_st, max_size=15),
        seeds=st.lists(seed_st, max_size=4),
    )
    def test_completion_queries_match_scalar(self, downloaders, seeds):
        group = _build_group(downloaders, seeds)
        swarm = group.swarms[0]
        swarm.recompute_rates(ETA)
        expected_t = next_completion_time_scalar(swarm)
        got_t = swarm.next_completion_time()
        if math.isinf(expected_t):
            assert math.isinf(got_t)
        else:
            assert got_t == pytest.approx(expected_t, rel=1e-12)

    def test_snapshot_answers_from_frozen_state(self):
        group = _build_group([(0.05, 0.5, 1.0), (0.02, 0.3, 0.2)], [(0.4, True)])
        swarm = group.swarms[0]
        swarm.recompute_rates(ETA)
        snap = swarm.work_snapshot()
        expected_t = next_completion_time_scalar(swarm)
        expected_due = [e for e in swarm.downloaders.values() if e.remaining <= 0.25]
        # mutate the live store after the snapshot: answers must not move
        swarm.store.remaining[:2] = 0.0
        swarm.store.rate[:2] = 99.0
        assert snap.next_completion_time() == pytest.approx(expected_t, rel=1e-12)
        assert snap.due(0.25) == expected_due
        entry, eta = snap.earliest()
        assert entry is expected_due[0] if expected_due else entry is not None
        assert snap.epoch == swarm.epoch
