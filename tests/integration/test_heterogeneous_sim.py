"""Integration: heterogeneous-bandwidth simulation vs the Sec.-2 model.

Two access tiers share one torrent; the simulator's per-user bandwidths
must reproduce the general multi-class fluid model's download times --
closing the last fluid-vs-sim loop (the heterogeneity experiment is
fluid-only).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HeterogeneousModel, PeerClass
from repro.sim import SeedPolicy, make_behavior
from repro.sim.behaviors import BehaviorKind
from repro.sim.system import SimulationSystem

ETA, GAMMA = 0.5, 0.05
TIERS = (
    {"mu": 0.008, "download_cap": 0.08, "rate": 0.5},  # dsl
    {"mu": 0.04, "download_cap": 0.4, "rate": 0.3},  # fast
)


def fluid_times():
    classes = tuple(
        PeerClass(
            upload=t["mu"],
            download=t["download_cap"],
            arrival_rate=t["rate"],
            seed_departure_rate=GAMMA,
        )
        for t in TIERS
    )
    steady = HeterogeneousModel(classes=classes, eta=ETA).steady_state()
    assert steady.converged
    return steady.download_times


def run_sim(t_end=2500.0, warmup=700.0, seed=23):
    system = SimulationSystem(
        mu=0.02, eta=ETA, gamma=GAMMA, num_classes=1
    )
    system.add_group((0,), SeedPolicy.SUBTORRENT)
    rng = np.random.default_rng(seed)
    factory = make_behavior(BehaviorKind.SEQUENTIAL)
    tier_of_user: dict[int, int] = {}

    def arrive():
        total = sum(t["rate"] for t in TIERS)
        gap = rng.exponential(1.0 / total)
        if system.now + gap > t_end:
            return
        def spawn():
            tier_idx = int(rng.random() < TIERS[1]["rate"] / total)
            tier = TIERS[tier_idx]
            uid = system.spawn_user(
                factory, (0,), mu=tier["mu"], download_cap=tier["download_cap"]
            )
            tier_of_user[uid] = tier_idx
            arrive()
        system.schedule_after(gap, spawn)

    arrive()
    system.run_until(t_end)
    times = {0: [], 1: []}
    for uid, tier_idx in tier_of_user.items():
        rec = system.metrics.records[uid]
        if rec.is_departed and rec.arrival_time >= warmup:
            times[tier_idx].append(rec.total_download_time)
    return {k: float(np.mean(v)) for k, v in times.items() if v}


class TestHeterogeneousSim:
    @pytest.fixture(scope="class")
    def sim_times(self):
        return run_sim()

    @pytest.fixture(scope="class")
    def fluid(self):
        return fluid_times()

    def test_both_tiers_measured(self, sim_times):
        assert set(sim_times) == {0, 1}

    def test_fast_tier_downloads_faster(self, sim_times):
        assert sim_times[1] < sim_times[0]

    def test_download_times_match_general_model(self, sim_times, fluid):
        for tier_idx in (0, 1):
            assert sim_times[tier_idx] == pytest.approx(
                float(fluid[tier_idx]), rel=0.15
            ), f"tier {tier_idx}"

    def test_tier_ratio_tracks_download_bandwidth(self, sim_times, fluid):
        """Assumption 2 splits seed service by download capacity, so the
        ratio of the tiers' times follows the fluid prediction."""
        sim_ratio = sim_times[0] / sim_times[1]
        fluid_ratio = float(fluid[0] / fluid[1])
        assert sim_ratio == pytest.approx(fluid_ratio, rel=0.2)


class TestPerUserBandwidthBasics:
    def test_bandwidth_override_applied(self):
        system = SimulationSystem(mu=0.02, eta=ETA, gamma=GAMMA, num_classes=1)
        system.add_group((0,), SeedPolicy.SUBTORRENT)
        uid = system.spawn_user(
            make_behavior(BehaviorKind.SEQUENTIAL), (0,), mu=0.1, download_cap=1.0
        )
        e = system.groups[0].get_downloader(uid, 0)
        assert e.tft_upload == pytest.approx(0.1)
        assert e.download_cap == pytest.approx(1.0)

    def test_default_is_system_bandwidth(self):
        system = SimulationSystem(mu=0.02, eta=ETA, gamma=GAMMA, num_classes=1)
        system.add_group((0,), SeedPolicy.SUBTORRENT)
        uid = system.spawn_user(make_behavior(BehaviorKind.SEQUENTIAL), (0,))
        e = system.groups[0].get_downloader(uid, 0)
        assert e.tft_upload == pytest.approx(0.02)

    def test_invalid_bandwidth_rejected(self):
        system = SimulationSystem(mu=0.02, eta=ETA, gamma=GAMMA, num_classes=1)
        system.add_group((0,), SeedPolicy.SUBTORRENT)
        with pytest.raises(ValueError, match="mu must be positive"):
            system.spawn_user(make_behavior(BehaviorKind.SEQUENTIAL), (0,), mu=0.0)
