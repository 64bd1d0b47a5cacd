"""The window's due judgement against the full scan.

:meth:`repro.sim.bandwidth.RateWindow.due` walks each store's lanes (rows
sharing ``(tft_upload, download_cap)``, sorted by stored remaining work)
from their heads; :func:`repro.sim.reference.win_due_scan` recomputes every
row.  The property test drives a pooled group and a lone swarm through
random joins, completions, seed changes, entry writes and window restarts,
and after every step asks both for ``(t_next, due, t_rest)``: the answers
must be equal, with the same entries in the same order.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.correlation import CorrelationModel
from repro.core.parameters import PAPER_PARAMETERS
from repro.core.schemes import Scheme
from repro.obs import capture
from repro.sim import SeedPolicy, SimulationSystem
from repro.sim.bandwidth import SCALAR_KERNEL_CUTOFF, RateWindow
from repro.sim.entities import DownloadEntry, UserRecord
from repro.sim.reference import win_due_scan
from repro.sim.scenarios import ScenarioConfig, run_scenario

MU, ETA, GAMMA = 0.02, 0.5, 0.05

#: shared (tft, cap) pairs, so lanes hold several rows; distinct pairs are
#: drawn on top of these
PALETTE = ((0.01, 0.2), (0.02, 0.2), (0.01, 0.1), (0.0, 0.2))

#: judgement tolerances: production's ``1e-6`` and wider ones, so due
#: prefixes end anywhere in a lane (a fresh row on a palette lane with no
#: seeds completes in 100-200 time units)
EPS = st.one_of(st.just(1e-6), st.floats(1.0, 250.0))
SPOT_EPS = (1e-6, 5.0, 50.0, 150.0)


class _Drive:
    """A system with one rate domain and the bookkeeping the steps need."""

    def __init__(self, n_files: int, policy: SeedPolicy):
        self.system = SimulationSystem(mu=MU, eta=ETA, gamma=GAMMA, num_classes=1)
        self.files = tuple(range(n_files))
        group = self.system.add_group(self.files, policy)
        self.domain = group if policy is SeedPolicy.GLOBAL_POOL else group.swarms[0]
        self.group = group
        self.users = 0
        self.seeds: list[tuple[int, int, bool]] = []
        self.checked = 0

    def join(self, file_id: int, tft: float, cap: float) -> None:
        system = self.system
        uid = self.users
        self.users += 1
        system.metrics.new_record(
            UserRecord(
                user_id=uid,
                arrival_time=system.now,
                user_class=1,
                files=(file_id,),
                scheme="test",
            )
        )
        system.start_download(
            uid, file_id, user_class=1, stage=1, tft_upload=tft, download_cap=cap
        )

    def entries(self):
        return [e for s in self.group.swarms.values() for e in s.downloaders.values()]

    def check(self, eps: float) -> None:
        """Production judgement == the scan, whenever a window is open."""
        domain = self.domain
        win = domain.win
        if not win.active:
            return
        domain.win_accumulate(self.system.now)
        stores = [swarm.store for swarm in domain._members]
        got = win.due(stores, eps)
        want = win_due_scan(win, stores, eps)
        assert got[0] == want[0]
        assert got[2] == want[2]
        assert len(got[1]) == len(want[1])
        assert all(a is b for a, b in zip(got[1], want[1]))
        self.checked += 1


def _lane(data, distinct: bool) -> tuple[float, float]:
    if distinct:
        return (
            data.draw(st.floats(0.0, 0.05, allow_subnormal=False)),
            data.draw(st.floats(0.05, 0.3, allow_subnormal=False)),
        )
    return data.draw(st.sampled_from(PALETTE))


def _step(drive: _Drive, data) -> None:
    system = drive.system
    kind = data.draw(
        st.sampled_from(
            [
                "join",
                "join",
                "bulk",
                "advance",
                "advance",
                "seed_add",
                "seed_remove",
                "seed_bw",
                "tft",
                "remaining",
                "materialize",
            ]
        )
    )
    if kind == "join":
        # several joins at one instant on one lane tie their remaining work;
        # joining an occupied lane puts older rows ahead of the new ones
        file_id = data.draw(st.sampled_from(drive.files))
        entries = drive.entries()
        if entries and data.draw(st.booleans()):
            other = data.draw(st.sampled_from(entries))
            lane = (other.tft_upload, other.download_cap)
        else:
            lane = _lane(data, data.draw(st.booleans()))
        for _ in range(data.draw(st.integers(1, 3))):
            drive.join(file_id, *lane)
    elif kind == "bulk":
        # one lane per row, so a store can cross SCALAR_KERNEL_CUTOFF lanes
        file_id = data.draw(st.sampled_from(drive.files))
        for i in range(data.draw(st.integers(20, 40))):
            drive.join(file_id, 0.001 * (drive.users % 37), 0.05 + 0.001 * drive.users)
    elif kind == "advance":
        # windowed completions fire; the window stays open
        system.sim.run_until(system.now + data.draw(st.floats(0.1, 100.0)))
    elif kind == "materialize":
        # fold every window; the next flush with dirt opens a fresh one
        system.run_until(system.now + data.draw(st.floats(0.0, 5.0)))
    elif kind == "seed_add":
        file_id = data.draw(st.sampled_from(drive.files))
        virtual = data.draw(st.booleans())
        uid = 10_000 + drive.users
        drive.users += 1
        system.add_seed(uid, file_id, data.draw(st.floats(0.0, 0.1)), 1, virtual=virtual)
        drive.seeds.append((uid, file_id, virtual))
    elif kind in ("seed_remove", "seed_bw"):
        if not drive.seeds:
            return
        i = data.draw(st.integers(0, len(drive.seeds) - 1))
        uid, file_id, virtual = drive.seeds[i]
        if kind == "seed_remove":
            system.remove_seed(uid, file_id, virtual=virtual)
            drive.seeds.pop(i)
        else:
            system.set_seed_bandwidth(
                uid, file_id, data.draw(st.floats(0.0, 0.1)), virtual=virtual
            )
    else:
        entries = drive.entries()
        if not entries:
            return
        entry = data.draw(st.sampled_from(entries))
        if kind == "tft":
            # through the system (its flush refreshes the row's rate), so
            # the write lands on ``entry.tft_upload``
            system.set_tft_upload(
                entry.user_id, entry.file_id, _lane(data, data.draw(st.booleans()))[0]
            )
        else:
            # tie it with another row's remaining work, or pick a value
            other = data.draw(st.sampled_from(entries))
            if data.draw(st.booleans()):
                entry.remaining = other.remaining
            else:
                entry.remaining = data.draw(st.floats(0.0, 1.0))
    system.flush()


@pytest.mark.parametrize(
    ("n_files", "policy"),
    [(3, SeedPolicy.GLOBAL_POOL), (1, SeedPolicy.SUBTORRENT)],
    ids=["pooled-group", "lone-swarm"],
)
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_due_judgement_matches_the_scan(n_files, policy, data):
    drive = _Drive(n_files, policy)
    for _ in range(data.draw(st.integers(1, 25))):
        _step(drive, data)
        drive.check(data.draw(EPS))


def test_a_store_crosses_the_lane_cutoff_both_ways():
    """Above ``SCALAR_KERNEL_CUTOFF`` lanes a store takes the vector pass,
    and back below it the lane walk; both agree with the scan."""
    drive = _Drive(1, SeedPolicy.SUBTORRENT)
    system = drive.system
    store = drive.group.swarms[0].store
    for i in range(SCALAR_KERNEL_CUTOFF + 8):
        drive.join(0, 0.0005 * i, 0.05 + 0.002 * i)
    system.flush()
    for eps in SPOT_EPS:
        drive.check(eps)
    assert len(store.lanes()) > SCALAR_KERNEL_CUTOFF
    while len(store.lanes()) > SCALAR_KERNEL_CUTOFF // 2:
        system.sim.run_until(system.now + 5.0)
        system.add_seed(10_000 + drive.users, 0, 0.01, 1, virtual=True)
        drive.users += 1
        system.flush()
        for eps in SPOT_EPS:
            drive.check(eps)
    assert drive.checked > 3 * len(SPOT_EPS)


def test_lanes_follow_joins_and_leaves():
    """The index is built once, then kept in step by joins and departures
    across windows; a write through an entry drops it."""
    drive = _Drive(1, SeedPolicy.SUBTORRENT)
    system = drive.system
    store = drive.group.swarms[0].store
    sweep = [1e-6, *range(1, 250, 3)]  # every split of every lane
    for i in range(6):
        drive.join(0, *PALETTE[i % 2])
    system.flush()
    for eps in sweep:
        drive.check(eps)
    lanes = store.lanes()
    assert sorted(len(lane) for lane in lanes.values()) == [3, 3]
    system.run_until(system.now + 10.0)  # fold the window
    drive.join(0, *PALETTE[0])  # behind three older rows of its lane
    system.flush()
    for eps in sweep:
        drive.check(eps)
    assert store.lanes() is lanes  # kept across windows
    assert sum(map(len, lanes.values())) == store.n == 7
    system.sim.run_until(system.now + 400.0)  # every row completes
    assert store.n == 0 and not lanes
    drive.join(0, *PALETTE[2])
    system.flush()
    drive.entries()[0].tft_upload = 0.03
    assert store._lanes is None


def test_group_downloader_count_follows_joins_and_leaves():
    drive = _Drive(3, SeedPolicy.GLOBAL_POOL)
    system = drive.system
    group = drive.group

    def counted() -> int:
        return sum(len(s.downloaders) for s in group.swarms.values())

    for i in range(7):
        drive.join(i % 3, *PALETTE[i % 3])
        system.flush()
        assert group.n_downloaders == counted() == i + 1
    system.sim.run_until(system.now + 1000.0)  # windowed completions
    assert group.n_downloaders == counted() == 0
    entry = DownloadEntry(
        user_id=99, file_id=1, user_class=1, stage=1,
        tft_upload=0.01, download_cap=0.2, remaining=1.0,
    )
    group.add_downloader(entry)
    assert group.n_downloaders == 1
    group.remove_downloader(99, 1)
    assert group.n_downloaders == counted() == 0


def test_pool_run_judges_a_small_share_of_rows():
    """On a CMFSD pool run the judgement reads well under 10% of the
    domain's rows per scan, and the lane index is rarely rebuilt."""
    corr = CorrelationModel(num_files=PAPER_PARAMETERS.num_files, p=0.9, visit_rate=1.0)
    config = ScenarioConfig(
        params=PAPER_PARAMETERS,
        correlation=corr,
        scheme=Scheme.CMFSD,
        rho=0.5,
        seed_policy=SeedPolicy.GLOBAL_POOL,
        t_end=1200.0,
        warmup=0.0,
        seed=7000,
    )
    domain_rows = 0
    production = RateWindow.due

    def counting(win, stores, eps):
        nonlocal domain_rows
        stores = list(stores)
        domain_rows += sum(store.n for store in stores)
        return production(win, stores, eps)

    with pytest.MonkeyPatch.context() as mp, capture(trace=False) as obs:
        mp.setattr(RateWindow, "due", counting)
        run_scenario(config)
    counters = obs.registry.counters
    scans = counters["sim.window.due.scans"]
    rows = counters["sim.window.due.rows"]
    builds = counters["sim.window.due.index_builds"]
    assert scans > 1000
    assert rows < 0.1 * domain_rows
    assert builds < scans / 50
