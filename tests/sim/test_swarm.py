"""Tests for swarms, swarm groups and lazy progress advancement."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.sim import DownloadEntry, SeedPolicy, SwarmGroup, UserRecord


def entry(user=0, file=0, klass=1, stage=1, tft=0.02, cap=0.2, remaining=1.0):
    return DownloadEntry(
        user_id=user,
        file_id=file,
        user_class=klass,
        stage=stage,
        tft_upload=tft,
        download_cap=cap,
        remaining=remaining,
    )


class TestMembership:
    def test_duplicate_downloader_rejected(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        g.add_downloader(entry())
        with pytest.raises(ValueError, match="duplicate"):
            g.add_downloader(entry())

    def test_remove_unknown_downloader(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        with pytest.raises(KeyError, match="no download entry"):
            g.remove_downloader(5, 0)

    def test_unknown_file(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        with pytest.raises(KeyError, match="not published"):
            g.add_downloader(entry(file=3))

    def test_seed_lifecycle(self):
        g = SwarmGroup(0, (0, 1), eta=0.5)
        g.add_seed(7, 1, 0.02, 3, virtual=True)
        assert g.swarms[1].virtual_capacity == pytest.approx(0.02)
        g.set_seed_bandwidth(7, 1, 0.01, virtual=True)
        assert g.swarms[1].virtual_capacity == pytest.approx(0.01)
        returned = g.remove_seed(7, 1, virtual=True)
        assert returned == pytest.approx(0.01)
        assert g.swarms[1].virtual_capacity == 0.0

    def test_duplicate_seed_rejected(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        g.add_seed(1, 0, 0.02, 1, virtual=False)
        with pytest.raises(ValueError, match="already has"):
            g.add_seed(1, 0, 0.02, 1, virtual=False)

    def test_negative_seed_bandwidth_rejected(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            g.add_seed(1, 0, -0.1, 1, virtual=False)

    def test_group_needs_files(self):
        with pytest.raises(ValueError, match="at least one"):
            SwarmGroup(0, (), eta=0.5)

    def test_counts_by_class(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        g.add_downloader(entry(user=1, klass=2))
        g.add_downloader(entry(user=2, klass=2))
        g.add_downloader(entry(user=3, klass=5))
        g.add_seed(9, 0, 0.02, 3, virtual=False)
        np.testing.assert_array_equal(
            g.swarms[0].downloader_count_by_class(5), [0, 2, 0, 0, 1]
        )
        np.testing.assert_array_equal(g.swarms[0].seed_count_by_class(5), [0, 0, 1, 0, 0])


class TestSubtorrentRates:
    def test_tft_component(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        e = entry(tft=0.02)
        g.add_downloader(e)
        g.swarms[0].recompute_rates(0.5)
        assert e.rate == pytest.approx(0.01)
        assert e.rate_from_virtual == 0.0

    def test_seed_share_by_download_cap(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        e1 = entry(user=1, tft=0.0, cap=0.1)
        e2 = entry(user=2, tft=0.0, cap=0.3)
        g.add_downloader(e1)
        g.add_downloader(e2)
        g.add_seed(9, 0, 0.04, 1, virtual=False)
        g.swarms[0].recompute_rates(0.5)
        assert e1.rate == pytest.approx(0.01)
        assert e2.rate == pytest.approx(0.03)

    def test_virtual_attribution_tracked(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        e = entry(tft=0.0)
        g.add_downloader(e)
        g.add_seed(8, 0, 0.01, 2, virtual=True)
        g.add_seed(9, 0, 0.03, 2, virtual=False)
        g.swarms[0].recompute_rates(0.5)
        assert e.rate == pytest.approx(0.04)
        assert e.rate_from_virtual == pytest.approx(0.01)

    def test_epoch_bumped(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        before = g.swarms[0].epoch
        g.swarms[0].recompute_rates(0.5)
        assert g.swarms[0].epoch == before + 1

    def test_rates_isolated_between_swarms(self):
        g = SwarmGroup(0, (0, 1), eta=0.5, policy=SeedPolicy.SUBTORRENT)
        e0 = entry(user=1, file=0, tft=0.0)
        e1 = entry(user=2, file=1, tft=0.0)
        g.add_downloader(e0)
        g.add_downloader(e1)
        g.add_seed(9, 0, 0.05, 1, virtual=False)
        for s in g.swarms.values():
            s.recompute_rates(0.5)
        assert e0.rate == pytest.approx(0.05)
        assert e1.rate == 0.0  # swarm 1 has no seed


class TestGlobalPoolRates:
    def test_pool_spans_swarms(self):
        g = SwarmGroup(0, (0, 1), eta=0.5, policy=SeedPolicy.GLOBAL_POOL)
        e0 = entry(user=1, file=0, tft=0.0, cap=0.2)
        e1 = entry(user=2, file=1, tft=0.0, cap=0.2)
        g.add_downloader(e0)
        g.add_downloader(e1)
        g.add_seed(9, 0, 0.04, 1, virtual=False)  # attached to file 0
        g.recompute_rates_all()
        # Pool serves both swarms equally despite the attachment.
        assert e0.rate == pytest.approx(0.02)
        assert e1.rate == pytest.approx(0.02)

    def test_virtual_pool_attribution(self):
        g = SwarmGroup(0, (0, 1), eta=0.5, policy=SeedPolicy.GLOBAL_POOL)
        e = entry(user=1, file=0, tft=0.0, cap=0.2)
        g.add_downloader(e)
        g.add_seed(8, 1, 0.01, 2, virtual=True)
        g.recompute_rates_all()
        assert e.rate_from_virtual == pytest.approx(0.01)


class TestAdvance:
    def test_progress_integration(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        e = entry(tft=0.02, remaining=1.0)
        g.add_downloader(e)
        g.swarms[0].recompute_rates(0.5)  # rate = 0.01
        g.swarms[0].advance(30.0)
        assert e.remaining == pytest.approx(0.7)
        assert g.swarms[0].last_update == 30.0

    def test_advance_clamps_at_zero(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        e = entry(tft=0.02, remaining=0.005)
        g.add_downloader(e)
        g.swarms[0].recompute_rates(0.5)
        g.swarms[0].advance(100.0)
        assert e.remaining == 0.0

    def test_backwards_advance_rejected(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        g.swarms[0].advance(5.0)
        with pytest.raises(ValueError, match="backwards"):
            g.swarms[0].advance(1.0)

    def test_give_take_accounting(self):
        records = {
            1: UserRecord(1, 0.0, 2, (0, 1), "cmfsd"),
            2: UserRecord(2, 0.0, 1, (0,), "cmfsd"),
        }
        g = SwarmGroup(0, (0,), eta=0.5, records=records)
        e = entry(user=2, file=0, tft=0.0, cap=0.2)
        g.add_downloader(e)
        g.add_seed(1, 0, 0.01, 2, virtual=True)  # user 1 virtual-seeds
        g.swarms[0].recompute_rates(0.5)
        g.swarms[0].advance(10.0)
        g.sync_accounting()
        assert records[1].uploaded_virtual == pytest.approx(0.1)
        assert records[2].received_virtual == pytest.approx(0.1)

    def test_idle_virtual_seed_gives_nothing_subtorrent(self):
        records = {1: UserRecord(1, 0.0, 2, (0, 1), "cmfsd")}
        g = SwarmGroup(0, (0,), eta=0.5, records=records)
        g.add_seed(1, 0, 0.01, 2, virtual=True)
        g.swarms[0].recompute_rates(0.5)
        g.swarms[0].advance(10.0)
        g.sync_accounting()
        assert records[1].uploaded_virtual == 0.0

    def test_pool_busy_virtual_seed_gives_global(self):
        """Under GLOBAL_POOL a virtual seed on an empty swarm still uploads
        as long as anyone in the group downloads."""
        records = {
            1: UserRecord(1, 0.0, 2, (0, 1), "cmfsd"),
            2: UserRecord(2, 0.0, 1, (1,), "cmfsd"),
        }
        g = SwarmGroup(0, (0, 1), eta=0.5, policy=SeedPolicy.GLOBAL_POOL, records=records)
        g.add_seed(1, 0, 0.01, 2, virtual=True)  # swarm 0: no downloaders
        g.add_downloader(entry(user=2, file=1, tft=0.0, cap=0.2))
        g.recompute_rates_all()
        g.advance(10.0)
        g.sync_accounting()
        assert records[1].uploaded_virtual == pytest.approx(0.1)


class TestCompletionQueries:
    def test_next_completion_time(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        e = entry(tft=0.02, remaining=0.5)
        g.add_downloader(e)
        g.swarms[0].recompute_rates(0.5)  # rate 0.01 -> eta 50
        assert g.swarms[0].next_completion_time() == pytest.approx(50.0)
        assert g.next_completion_time() == pytest.approx(50.0)

    def test_stalled_entry_never_completes(self):
        g = SwarmGroup(0, (0,), eta=0.5)
        g.add_downloader(entry(tft=0.0))
        g.swarms[0].recompute_rates(0.5)
        assert math.isinf(g.next_completion_time())

