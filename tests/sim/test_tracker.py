"""Tests for the tracker and neighbour-limited connectivity."""

from __future__ import annotations

import hypothesis.strategies as hst
import numpy as np
import pytest
from hypothesis import given, settings

from repro.sim import (
    AnnounceEvent,
    SeedPolicy,
    Tracker,
    make_behavior,
)
from repro.sim.behaviors import BehaviorKind
from repro.sim.entities import DownloadEntry
from repro.sim.swarm import SwarmGroup
from repro.sim.system import SimulationSystem
from repro.sim.tracker import ScrapeStats


def make_tracker(numwant=3, seed=0):
    return Tracker(np.random.default_rng(seed), numwant=numwant)


class TestTracker:
    def test_started_registers_and_samples_others(self):
        t = make_tracker(numwant=10)
        assert t.announce(1, 0, AnnounceEvent.STARTED) == []
        sample = t.announce(2, 0, AnnounceEvent.STARTED)
        assert sample == [1]

    def test_sample_bounded_by_numwant(self):
        t = make_tracker(numwant=3)
        for uid in range(10):
            t.announce(uid, 0, AnnounceEvent.STARTED)
        sample = t.announce(99, 0, AnnounceEvent.STARTED)
        assert len(sample) == 3
        assert 99 not in sample

    def test_completed_flips_to_seeder_and_counts(self):
        t = make_tracker()
        t.announce(1, 0, AnnounceEvent.STARTED)
        t.announce(1, 0, AnnounceEvent.COMPLETED)
        stats = t.scrape(0)
        assert stats.seeders == 1
        assert stats.leechers == 0
        assert stats.completed == 1

    def test_completed_without_start_rejected(self):
        t = make_tracker()
        with pytest.raises(KeyError, match="without starting"):
            t.announce(7, 0, AnnounceEvent.COMPLETED)

    def test_stopped_removes(self):
        t = make_tracker()
        t.announce(1, 0, AnnounceEvent.STARTED)
        t.announce(1, 0, AnnounceEvent.STOPPED)
        assert t.scrape(0).total_peers == 0
        assert t.members(0) == set()

    def test_files_independent(self):
        t = make_tracker()
        t.announce(1, 0, AnnounceEvent.STARTED)
        t.announce(2, 5, AnnounceEvent.STARTED)
        assert t.members(0) == {1}
        assert t.members(5) == {2}

    def test_numwant_validated(self):
        with pytest.raises(ValueError, match="numwant"):
            make_tracker(numwant=0)


def list_building_announce(
    tables: dict[int, dict[int, bool]],
    rng: np.random.Generator,
    numwant: int,
    user_id: int,
    file_id: int,
    event: AnnounceEvent,
    is_seeder: bool,
    want_peers: bool,
) -> list[int]:
    """Copy of the list-building ``Tracker.announce`` draw: a list of every
    other member, then ``numwant`` distinct indices into it.  Any faster
    tracker must return the same samples and leave ``rng`` in the same
    state (the sparse chunk engine and the neighbour-aware DES both draw
    from it)."""
    table = tables.setdefault(file_id, {})
    if event is AnnounceEvent.STARTED:
        table[user_id] = is_seeder
    elif event is AnnounceEvent.COMPLETED:
        table[user_id] = True
    else:
        table.pop(user_id, None)
    if not want_peers:
        return []
    others = [uid for uid in table if uid != user_id]
    if len(others) <= numwant:
        return others
    picked = rng.choice(len(others), size=numwant, replace=False)
    return [others[k] for k in picked]


_ANNOUNCES = hst.lists(
    hst.tuples(
        hst.sampled_from(list(AnnounceEvent)),
        hst.integers(0, 40),  # user id
        hst.integers(0, 1),  # file id
        hst.booleans(),  # is_seeder
        hst.booleans(),  # want_peers
    ),
    max_size=120,
)


class TestAnnounceSamplesPinned:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=_ANNOUNCES,
        numwant=hst.integers(1, 8),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_samples_and_rng_match_list_building_draw(self, ops, numwant, seed):
        tracker = Tracker(np.random.default_rng(seed), numwant=numwant)
        ref_rng = np.random.default_rng(seed)
        tables: dict[int, dict[int, bool]] = {}
        for event, uid, fid, is_seeder, want_peers in ops:
            if event is AnnounceEvent.COMPLETED and uid not in tables.get(fid, {}):
                event = AnnounceEvent.STARTED  # completing needs a start
            got = tracker.announce(
                uid, fid, event, is_seeder=is_seeder, want_peers=want_peers
            )
            want = list_building_announce(
                tables, ref_rng, numwant, uid, fid, event, is_seeder, want_peers
            )
            assert got == want
        assert tracker.rng.bit_generator.state == ref_rng.bit_generator.state
        for fid, table in tables.items():
            assert tracker.members(fid) == set(table)

    def test_small_swarm_returns_everyone_without_drawing(self):
        tracker = make_tracker(numwant=5, seed=3)
        before = tracker.rng.bit_generator.state
        for uid in range(5):
            tracker.announce(uid, 0, AnnounceEvent.STARTED)
        assert tracker.announce(9, 0, AnnounceEvent.STARTED) == [0, 1, 2, 3, 4]
        assert tracker.rng.bit_generator.state == before

    @settings(max_examples=60, deadline=None)
    @given(
        ops=_ANNOUNCES,
        numwant=hst.integers(1, 8),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_discarding_announce_draws_like_list_building(self, ops, numwant, seed):
        """``announce_discarding`` builds no list but must leave the
        generator exactly where the list-building draw does, so the samples
        of the announces that are read stay the same.  Here the last flag
        of each operation picks the discarding announce."""
        tracker = Tracker(np.random.default_rng(seed), numwant=numwant)
        ref_rng = np.random.default_rng(seed)
        tables: dict[int, dict[int, bool]] = {}
        for event, uid, fid, is_seeder, discard in ops:
            if event is AnnounceEvent.COMPLETED and uid not in tables.get(fid, {}):
                event = AnnounceEvent.STARTED  # completing needs a start
            want = list_building_announce(
                tables, ref_rng, numwant, uid, fid, event, is_seeder, True
            )
            if discard:
                got = tracker.announce_discarding(uid, fid, event, is_seeder=is_seeder)
                assert got is None
            else:
                got = tracker.announce(uid, fid, event, is_seeder=is_seeder)
                assert got == want
            assert tracker.rng.bit_generator.state == ref_rng.bit_generator.state
        assert tracker.announces == len(ops)
        for fid, table in tables.items():
            assert tracker.members(fid) == set(table)

    def test_discarding_announce_draws_only_past_numwant(self):
        tracker = make_tracker(numwant=3, seed=5)
        for uid in range(4):
            tracker.announce(uid, 0, AnnounceEvent.STARTED)
        before = tracker.rng.bit_generator.state
        # three others: the list-building announce would return them all
        tracker.announce_discarding(0, 0, AnnounceEvent.COMPLETED)
        assert tracker.rng.bit_generator.state == before
        tracker.announce(4, 0, AnnounceEvent.STARTED)
        before = tracker.rng.bit_generator.state
        # four others after the stop: one numwant-sized draw
        tracker.announce_discarding(9, 0, AnnounceEvent.STOPPED)
        assert tracker.rng.bit_generator.state != before
        assert tracker.scrape(0) == ScrapeStats(leechers=4, seeders=1, completed=1)


class TestNeighborAwareRates:
    def _entry(self, user, tft=0.0, cap=0.2):
        return DownloadEntry(
            user_id=user, file_id=0, user_class=1, stage=1,
            tft_upload=tft, download_cap=cap, remaining=1.0,
        )

    def test_unconnected_seed_idles(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        swarm = g.swarms[0]
        swarm.neighbor_aware = True
        e = self._entry(1)
        g.add_downloader(e)
        g.add_seed(9, 0, 0.05, 1, virtual=False)
        swarm.set_neighbor_sample(1, ())  # nobody knows anybody
        swarm.set_neighbor_sample(9, ())
        swarm.recompute_rates(0.5)
        assert e.rate == 0.0

    def test_connected_seed_serves(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        swarm = g.swarms[0]
        swarm.neighbor_aware = True
        e = self._entry(1)
        g.add_downloader(e)
        g.add_seed(9, 0, 0.05, 1, virtual=False)
        swarm.set_neighbor_sample(1, {9})  # the downloader sampled the seed
        swarm.recompute_rates(0.5)
        assert e.rate == pytest.approx(0.05)

    def test_seed_splits_only_among_its_connections(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        swarm = g.swarms[0]
        swarm.neighbor_aware = True
        e1, e2 = self._entry(1), self._entry(2)
        g.add_downloader(e1)
        g.add_downloader(e2)
        g.add_seed(9, 0, 0.06, 1, virtual=False)
        swarm.set_neighbor_sample(9, {1})  # the seed only knows user 1
        swarm.recompute_rates(0.5)
        assert e1.rate == pytest.approx(0.06)
        assert e2.rate == 0.0

    def test_tft_needs_a_connected_partner(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        swarm = g.swarms[0]
        swarm.neighbor_aware = True
        lonely = self._entry(1, tft=0.02)
        paired_a = self._entry(2, tft=0.02)
        paired_b = self._entry(3, tft=0.02)
        for e in (lonely, paired_a, paired_b):
            g.add_downloader(e)
        swarm.set_neighbor_sample(2, {3})
        swarm.recompute_rates(0.5)
        assert lonely.rate == 0.0
        assert paired_a.rate == pytest.approx(0.01)
        assert paired_b.rate == pytest.approx(0.01)

    def test_connection_is_mutual(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        swarm = g.swarms[0]
        swarm.set_neighbor_sample(5, {7})
        assert swarm.connected(5, 7)
        assert swarm.connected(7, 5)
        assert not swarm.connected(5, 8)


class TestSystemIntegration:
    def _system(self, limit):
        system = SimulationSystem(
            mu=0.02, eta=0.5, gamma=0.05, num_classes=1, neighbor_limit=limit
        )
        system.add_group((0,), SeedPolicy.SUBTORRENT)
        system.seed_lifetime = lambda: 20.0
        return system

    def test_global_pool_rejected_with_neighbors(self):
        system = SimulationSystem(
            mu=0.02, eta=0.5, gamma=0.05, num_classes=2, neighbor_limit=5
        )
        with pytest.raises(ValueError, match="GLOBAL_POOL"):
            system.add_group((0, 1), SeedPolicy.GLOBAL_POOL)

    def test_membership_tracked_through_lifecycle(self):
        system = self._system(limit=5)
        uid = system.spawn_user(make_behavior(BehaviorKind.SEQUENTIAL), (0,))
        assert system.tracker.members(0) == {uid}
        system.run_until(150.0)  # downloading done (solo: needs a partner!)
        # A lone neighbour-limited peer has nobody to trade with: stalled.
        rec = system.metrics.records[uid]
        assert rec.downloads_done_time is None
        # A second user arrives; they sample each other and progress.
        uid2 = system.spawn_user(make_behavior(BehaviorKind.SEQUENTIAL), (0,))
        system.run_until(5000.0)
        assert system.metrics.records[uid].is_departed
        assert system.metrics.records[uid2].is_departed
        assert system.tracker.members(0) == set()
        assert system.tracker.scrape(0).completed == 2

    def test_large_numwant_matches_full_mesh(self):
        """With numwant far above the swarm size the neighbour graph is the
        complete graph (everyone samples everyone present or is sampled by
        later arrivals)... up to the arrival-order asymmetry, so compare
        against the full-mesh run loosely."""
        from repro.core import CorrelationModel
        from repro.sim.arrivals import ArrivalProcess

        corr = CorrelationModel(num_files=1, p=0.9, visit_rate=0.6)
        results = {}
        for limit in (None, 500):
            system = SimulationSystem(
                mu=0.02, eta=0.5, gamma=0.05, num_classes=1, neighbor_limit=limit
            )
            system.add_group((0,), SeedPolicy.SUBTORRENT)
            arrivals = ArrivalProcess(
                system, corr, make_behavior(BehaviorKind.SEQUENTIAL), t_end=1500.0
            )
            arrivals.start()
            system.run_until(1500.0)
            summary = system.metrics.summarize(warmup=400.0, horizon=1500.0)
            results[limit] = float(
                np.nanmean(summary.entry_download_time_by_class)
            )
        assert results[500] == pytest.approx(results[None], rel=0.05)
