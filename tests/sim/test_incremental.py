"""Equivalence suite for the incremental rate paths.

The DES has one production path; the oracles it is held to are the
test-facing hooks of :mod:`repro.sim.reference`.  Three layers of
guarantees, from strongest to loosest:

* **Production vs. ``oracle_mode()``** must be *bit-exact*: the oracle
  swaps in the full rate kernels, a full neighbour-topology rebuild per
  epoch and per-event dispatch, while the deferred-integration windows are
  common to both sides -- so every counter, rate and completion time must
  match to the last bit.
* **Batched vs. per-event dispatch** (only ``Simulator.run_until``
  replaced by :func:`repro.sim.reference.run_until_per_event`) changes how
  events are popped off the queue, never what fires or in what order, so
  it is held to the same bit-exact standard in isolation (see
  :class:`TestDispatchEquivalence`).
* **Scalar vs. vector** kernel selection is an internal cutoff
  (``SCALAR_KERNEL_CUTOFF``) with expression-identical arithmetic; it is
  exercised implicitly by running both small and large swarms through
  layer one.
* **Deferred vs. ``eager_integration()``** changes float summation order
  (one fused fold vs. many per-event advances), so scripted scenarios
  agree to tight tolerances rather than bit-for-bit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import random

import numpy as np
import pytest

from repro.core.adapt import AdaptPolicy
from repro.core.correlation import CorrelationModel
from repro.core.parameters import PAPER_PARAMETERS
from repro.core.schemes import Scheme
from repro.sim import SeedPolicy, SimulationSystem, make_behavior
from repro.sim.behaviors import BehaviorKind
from repro.sim.engine import Simulator
from repro.sim.reference import (
    eager_integration,
    neighbor_topology_rebuild,
    oracle_mode,
    run_until_per_event,
)
from repro.sim.scenarios import ScenarioConfig, run_scenario

MU, ETA, GAMMA = 0.02, 0.5, 0.05


def assert_summary_bitexact(a, b) -> None:
    """Field-by-field equality of two SimulationSummary objects (no rtol)."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y, equal_nan=True), f.name
        elif isinstance(x, dict):
            assert x.keys() == y.keys(), f.name
            for k in x:
                assert np.array_equal(x[k], y[k], equal_nan=True), (f.name, k)
        elif isinstance(x, float):
            assert x == y or (math.isnan(x) and math.isnan(y)), f.name
        else:
            assert x == y, f.name


@contextlib.contextmanager
def per_event_dispatch():
    """Swap only the dispatch loop for the per-event oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulator, "run_until", run_until_per_event)
        yield


def scenario(scheme: Scheme, **kw):
    corr = CorrelationModel(num_files=PAPER_PARAMETERS.num_files, p=0.5, visit_rate=0.8)
    return ScenarioConfig(
        scheme=scheme,
        params=PAPER_PARAMETERS,
        correlation=corr,
        t_end=700.0,
        warmup=200.0,
        seed=7,
        **kw,
    )


def run_under(hook, config):
    """``run_scenario`` with ``hook()`` active for build and run."""
    with hook():
        return run_scenario(config)


class TestScenarioEquivalence:
    """run_scenario twice -- production vs oracle_mode() -- bit-exact."""

    @pytest.mark.parametrize("scheme", [Scheme.MTCD, Scheme.MTSD, Scheme.MFCD])
    def test_basic_schemes(self, scheme):
        a = run_scenario(scenario(scheme))
        b = run_under(oracle_mode, scenario(scheme))
        assert_summary_bitexact(a, b)

    def test_cmfsd_global_pool(self):
        # CMFSD defaults to GLOBAL_POOL: the mixed pool-window path
        a = run_scenario(scenario(Scheme.CMFSD, rho=0.3))
        b = run_under(oracle_mode, scenario(Scheme.CMFSD, rho=0.3))
        assert_summary_bitexact(a, b)

    def test_cmfsd_subtorrent_policy(self):
        config = scenario(Scheme.CMFSD, rho=0.3, seed_policy=SeedPolicy.SUBTORRENT)
        a = run_scenario(config)
        b = run_under(oracle_mode, config)
        assert_summary_bitexact(a, b)

    def test_cmfsd_adapt_and_cheaters(self):
        # Adapt touches tft mid-flight (entry-kind dirt -> window
        # materialise); cheaters skew rho -- both must stay equivalent
        kw = dict(rho=0.3, adapt=AdaptPolicy(), adapt_period=25.0, cheater_fraction=0.2)
        a = run_scenario(scenario(Scheme.CMFSD, **kw))
        b = run_under(oracle_mode, scenario(Scheme.CMFSD, **kw))
        assert_summary_bitexact(a, b)


KINDS = (
    (BehaviorKind.CONCURRENT, {}),
    (BehaviorKind.SEQUENTIAL, {}),
    (BehaviorKind.COLLABORATIVE, {"rho": 0.3}),
)


def _drive_pair(
    policy: SeedPolicy,
    *,
    n_files=3,
    steps=120,
    seed=0,
    oracle=oracle_mode,
    neighbor_limit=None,
    max_advance=40.0,
    drain=50.0,
):
    """Run one random action sequence through twin systems, yielding both.

    The first system runs on the production path, the second is built and
    driven entirely inside ``oracle()``; the action sequence (spawns, seed
    pulses, time advances) is generated once and applied to both, and
    their RNG streams start from the same seed so behaviour-level
    randomness (seed lifetimes, tracker samples) matches too.
    """
    rng = random.Random(seed)
    ops = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.35:
            kind, options = KINDS[rng.randrange(len(KINDS))]
            mask = rng.randrange(1, 2**n_files)
            files = tuple(f for f in range(n_files) if mask & (1 << f))
            ops.append(("spawn", kind, options, files))
        elif roll < 0.5:
            ops.append(("seed", rng.randrange(n_files), rng.uniform(0.005, 0.05),
                        rng.random() < 0.5))
        elif roll < 0.6:
            ops.append(("unseed", rng.randrange(n_files)))
        else:
            ops.append(("advance", rng.uniform(0.0, max_advance)))

    extra_uid = 10_000  # ids far above spawn_user's range, for seed pulses
    systems = []
    for hook in (contextlib.nullcontext, oracle):
        with hook():
            system = SimulationSystem(
                mu=MU,
                eta=ETA,
                gamma=GAMMA,
                num_classes=n_files,
                neighbor_limit=neighbor_limit,
            )
            system.add_group(tuple(range(n_files)), policy)
            pulse_seeds: dict[int, int] = {}
            uid = extra_uid
            for op in ops:
                if op[0] == "spawn":
                    _, kind, options, files = op
                    system.spawn_user(make_behavior(kind, **options), files)
                elif op[0] == "seed":
                    _, file_id, bw, virtual = op
                    uid += 1
                    system.add_seed(uid, file_id, bw, user_class=1, virtual=virtual)
                    pulse_seeds[uid] = (file_id, virtual)
                    system.flush()
                elif op[0] == "unseed":
                    _, file_id = op
                    hit = next(
                        (u for u, (f, _v) in pulse_seeds.items() if f == file_id),
                        None,
                    )
                    if hit is not None:
                        f, virtual = pulse_seeds.pop(hit)
                        system.remove_seed(hit, f, virtual=virtual)
                        system.flush()
                else:
                    system.run_until(system.now + op[1])
            system.run_until(system.now + drain)
            system.sync_accounting()
        systems.append(system)
    return systems


def _store_state(system):
    """Materialised per-swarm (sorted) rate/progress state for comparison."""
    state = {}
    for gid, group in system.groups.items():
        for fid, swarm in group.swarms.items():
            store = swarm.store
            n = store.n
            order = np.argsort(store.user_id[:n], kind="stable")
            state[(gid, fid)] = {
                name: np.asarray(getattr(store, name)[:n])[order].copy()
                for name in ("remaining", "rate", "rate_from_virtual", "tft_upload")
            }
            state[(gid, fid)]["seeds"] = (
                swarm.real_seeds.total,
                swarm.virtual_seeds.total,
            )
    return state


def _assert_twin_bitexact(sys_a, sys_b) -> None:
    """Bit-exact store/record equality of two driven twin systems."""
    assert sys_a.now == sys_b.now
    state_a, state_b = _store_state(sys_a), _store_state(sys_b)
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        for name in ("remaining", "rate", "rate_from_virtual", "tft_upload"):
            assert np.array_equal(state_a[key][name], state_b[key][name]), (
                key,
                name,
            )
        assert state_a[key]["seeds"] == state_b[key]["seeds"], key
    recs_a, recs_b = sys_a.metrics.records, sys_b.metrics.records
    assert recs_a.keys() == recs_b.keys()
    for uid in recs_a:
        assert recs_a[uid].downloads_done_time == recs_b[uid].downloads_done_time
        assert recs_a[uid].departure_time == recs_b[uid].departure_time


@pytest.mark.parametrize("policy", [SeedPolicy.SUBTORRENT, SeedPolicy.GLOBAL_POOL])
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestRandomizedEquivalence:
    """Twin-system fuzz: same event sequence, production vs oracle, same state."""

    def test_incremental_matches_full(self, policy, seed):
        sys_a, sys_b = _drive_pair(policy, seed=seed)
        _assert_twin_bitexact(sys_a, sys_b)

    def test_batched_dispatch_matches_per_event(self, policy, seed):
        sys_a, sys_b = _drive_pair(policy, seed=seed, oracle=per_event_dispatch)
        _assert_twin_bitexact(sys_a, sys_b)
        assert sys_a.sim.events_processed == sys_b.sim.events_processed

    def test_windows_match_eager_integration(self, policy, seed):
        sys_a, sys_b = _drive_pair(policy, seed=seed, oracle=eager_integration)
        assert sys_a.now == sys_b.now
        state_a, state_b = _store_state(sys_a), _store_state(sys_b)
        assert state_a.keys() == state_b.keys()
        for key in state_a:
            for name in ("remaining", "rate", "rate_from_virtual"):
                np.testing.assert_allclose(
                    state_a[key][name],
                    state_b[key][name],
                    rtol=1e-9,
                    atol=1e-9,
                    err_msg=f"{key} {name}",
                )
        for uid, rec_a in sys_a.metrics.records.items():
            rec_b = sys_b.metrics.records[uid]
            for attr in ("downloads_done_time", "departure_time"):
                va, vb = getattr(rec_a, attr), getattr(rec_b, attr)
                if va is None or vb is None:
                    assert va == vb, (uid, attr)
                else:
                    assert va == pytest.approx(vb, rel=1e-9, abs=1e-9), (uid, attr)


@pytest.mark.parametrize("limit", [3, 8])
@pytest.mark.parametrize("seed", [0, 1])
class TestNeighborRandomizedEquivalence:
    """Twin fuzz for the neighbor-aware kernel.

    Under ``oracle_mode()`` the oracle twin rebuilds the adjacency/reach
    matrices from the tracker samples on every epoch
    (:func:`repro.sim.reference.neighbor_topology_rebuild`) while the
    production twin gathers from its live topology.  The gathered arrays
    are bit-exact copies of the rebuilt ones, so the twin trajectories
    must match to the last bit.
    """

    def test_incremental_topology_matches_full(self, limit, seed):
        sys_a, sys_b = _drive_pair(
            SeedPolicy.SUBTORRENT, seed=seed, neighbor_limit=limit
        )
        _assert_twin_bitexact(sys_a, sys_b)

    def test_batched_dispatch_with_neighbors(self, limit, seed):
        sys_a, sys_b = _drive_pair(
            SeedPolicy.SUBTORRENT,
            seed=seed,
            neighbor_limit=limit,
            oracle=per_event_dispatch,
        )
        _assert_twin_bitexact(sys_a, sys_b)


class TestNeighborTopologyState:
    """Direct audits of the live topology matrices."""

    def test_maintained_state_matches_fresh_rebuild_midrun(self):
        """At random checkpoints the gathered topology must equal the
        oracle's rebuild from the live tracker samples, array for array."""
        system = SimulationSystem(
            mu=MU, eta=ETA, gamma=GAMMA, num_classes=2, neighbor_limit=3
        )
        system.add_group((0, 1), SeedPolicy.SUBTORRENT)
        rng = random.Random(42)
        behaviors = [
            make_behavior(BehaviorKind.SEQUENTIAL),
            make_behavior(BehaviorKind.CONCURRENT),
        ]
        checked = 0
        for _ in range(12):
            for _ in range(rng.randrange(1, 4)):
                files = ((0,), (1,), (0, 1))[rng.randrange(3)]
                system.spawn_user(behaviors[rng.randrange(2)], files)
            system.run_until(system.now + rng.uniform(5.0, 40.0))
            system.flush()
            for group in system.groups.values():
                for swarm in group.swarms.values():
                    if not swarm.store.n:
                        continue
                    gathered = swarm._neighbor_topology()
                    rebuilt = neighbor_topology_rebuild(swarm)
                    for got, want in zip(gathered, rebuilt):
                        if got is None or want is None:
                            assert got is None and want is None
                        else:
                            assert np.array_equal(np.asarray(got), np.asarray(want))
                    checked += 1
        assert checked >= 8  # the drive must actually exercise live states

    def test_kernel_counters_full_vs_incremental(self):
        """Production never rebuilds: every epoch gathers from the live
        topology; the oracle rebuilds every epoch and never gathers."""
        from repro.obs import capture

        K = PAPER_PARAMETERS.num_files
        counters = {}
        for incremental, hook in ((True, contextlib.nullcontext), (False, oracle_mode)):
            with capture(trace=False) as obs:
                run_under(hook, scenario(Scheme.MTSD, neighbor_limit=5))
            counters[incremental] = dict(obs.registry.counters)
        fast, oracle = counters[True], counters[False]
        assert "sim.kernel.neighbor.full" not in fast
        assert oracle["sim.kernel.neighbor.full"] > 10 * K
        assert fast["sim.kernel.neighbor.incremental"] == oracle["sim.kernel.neighbor.full"]
        assert fast["sim.kernel.neighbor.rows"] > 0
        # the oracle keeps the live topology in step but never reads it
        assert "sim.kernel.neighbor.incremental" not in oracle


class TestFullPassReasons:
    """Every full share pass is counted under exactly one reason."""

    @pytest.mark.parametrize(
        ("config", "kernel"),
        [
            (scenario(Scheme.MTCD), "mesh"),
            (scenario(Scheme.CMFSD, rho=0.3), "pool"),
        ],
        ids=["mtcd", "cmfsd"],
    )
    def test_reasons_sum_to_full(self, config, kernel):
        from repro.obs import capture

        with capture(trace=False) as obs:
            run_scenario(config)
        counters = obs.registry.counters
        prefix = f"sim.kernel.{kernel}"
        membership = counters.get(f"{prefix}.full_reason.membership", 0)
        stale = counters.get(f"{prefix}.full_reason.stale_cache", 0)
        assert membership > 0
        assert membership + stale == counters[f"{prefix}.full"]


class TestDispatchEquivalence:
    """Batched dispatch vs. the per-event oracle across full scenarios."""

    @pytest.mark.parametrize("scheme", [Scheme.MTCD, Scheme.MTSD, Scheme.MFCD])
    def test_basic_schemes(self, scheme):
        a = run_scenario(scenario(scheme))
        b = run_under(per_event_dispatch, scenario(scheme))
        assert_summary_bitexact(a, b)

    def test_cmfsd_global_pool(self):
        a = run_scenario(scenario(Scheme.CMFSD, rho=0.3))
        b = run_under(per_event_dispatch, scenario(Scheme.CMFSD, rho=0.3))
        assert_summary_bitexact(a, b)

    def test_event_counts_and_batching_counters(self):
        from repro.obs import capture

        from repro.sim.scenarios import build_simulation

        stats = {}
        config = scenario(Scheme.MTSD)
        for dispatch, hook in ((True, contextlib.nullcontext), (False, per_event_dispatch)):
            with hook():
                system, arrivals = build_simulation(config)
                with capture(trace=False) as obs:
                    arrivals.start()
                    system.run_until(config.t_end)
                system.sync_accounting()
            stats[dispatch] = (
                system.sim.events_processed,
                dict(obs.registry.counters),
            )
        assert stats[True][0] == stats[False][0]
        assert stats[True][1].get("sim.events.batched", 0) > 0
        assert stats[False][1].get("sim.events.batched", 0) == 0


class TestDeferredScripted:
    """Hand-sized scenarios: windowed integration equals the eager advance."""

    @staticmethod
    def _make(policy=SeedPolicy.SUBTORRENT, n_files=2):
        system = SimulationSystem(
            mu=MU,
            eta=ETA,
            gamma=GAMMA,
            num_classes=n_files,
        )
        system.add_group(tuple(range(n_files)), policy)
        system.seed_lifetime = lambda: 30.0
        return system

    @pytest.mark.parametrize("policy", [SeedPolicy.SUBTORRENT, SeedPolicy.GLOBAL_POOL])
    def test_staggered_joins_and_seed_pulse(self, policy):
        times = {}
        for deferred, hook in ((True, contextlib.nullcontext), (False, eager_integration)):
            with hook():
                system = self._make(policy)
                sequential = make_behavior(BehaviorKind.SEQUENTIAL)
                uids = [system.spawn_user(sequential, (0,))]
                system.schedule_after(
                    40.0,
                    lambda s=system: uids.append(s.spawn_user(sequential, (0, 1))),
                )
                system.schedule_after(
                    55.0, lambda s=system: s.add_seed(999, 0, 0.03, 1, virtual=True)
                )
                system.schedule_after(
                    90.0, lambda s=system: s.remove_seed(999, 0, virtual=True)
                )
                system.run_until(600.0)
                system.sync_accounting()
            times[deferred] = [
                system.metrics.records[u].downloads_done_time for u in uids
            ]
        assert times[True] == pytest.approx(times[False], rel=1e-9)

    def test_mid_window_read_sees_materialised_state(self):
        """Reading a volatile entry field mid-window syncs it to now."""
        system = self._make()
        sequential = make_behavior(BehaviorKind.SEQUENTIAL)
        uid = system.spawn_user(sequential, (0,))
        entry = system.groups[0].get_downloader(uid, 0)
        system.run_until(20.0)
        # solo downloader at rate eta*mu = 0.01: 20 time units -> 0.2 done
        assert entry.remaining == pytest.approx(1.0 - 20.0 * ETA * MU)
        assert entry.rate == pytest.approx(ETA * MU)
