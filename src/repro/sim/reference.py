"""Reference implementations the DES is checked against.

Two kinds of oracle live here, and no production module imports this one.

**Scalar kernels.**  The original per-entry Python loops that
:meth:`repro.sim.swarm.Swarm.recompute_rates`,
:meth:`repro.sim.swarm.SwarmGroup.recompute_rates_all`,
:meth:`repro.sim.swarm.Swarm.advance` and the completion queries were built
from, kept verbatim: the vectorised kernels that replaced them must
produce the same allocations on any swarm, and the equivalence tests in
``tests/sim/test_kernels.py`` assert exactly that on randomised
populations.  They also serve as the baseline side of the kernel
benchmarks (``benchmarks/test_bench_kernels.py``).  All of them mutate the
swarm's entries through the ordinary attribute API, which writes through
to the structure-of-arrays store -- so a scalar pass and a vectorised pass
run on the *same* swarm object and can be compared directly.

**Oracle modes.**  The DES has one production path; the slower paths it
must agree with are swapped in for the duration of a ``with`` block by
replacing production methods (and restored on exit, even on error):

* :func:`oracle_mode` -- per-event dispatch (:func:`run_until_per_event`),
  full rate kernels on every flush and a full neighbour-topology rebuild
  on every epoch.  Production must match it **bit for bit**.
* :func:`eager_integration` -- no deferred
  :class:`~repro.sim.bandwidth.RateWindow`: progress integrates on every
  flush.  The summation order differs, so production agrees with it to
  float rounding, not bit for bit.

The hooks patch classes, not instances, so they affect every system in
the process while active: build and run the oracle side inside the block
and the production side outside it.
"""

from __future__ import annotations

import contextlib
import math
from typing import TYPE_CHECKING, Iterator, Mapping

import repro.sim.swarm as swarm_module
from repro.sim.engine import Simulator
from repro.sim.system import SimulationSystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.entities import DownloadEntry, UserRecord
    from repro.sim.swarm import Swarm, SwarmGroup

__all__ = [
    "recompute_rates_scalar",
    "recompute_rates_all_scalar",
    "advance_scalar",
    "next_completion_time_scalar",
    "due_entries_scalar",
    "run_until_per_event",
    "oracle_mode",
    "eager_integration",
]


def recompute_rates_scalar(swarm: "Swarm", eta: float) -> None:
    """Per-entry loop equivalent of :meth:`Swarm.recompute_rates`.

    Bumps the swarm epoch exactly like the production kernel so the two
    are interchangeable in front of the event system.
    """
    swarm.epoch += 1
    if swarm.neighbor_aware:
        _recompute_rates_neighbor_aware_scalar(swarm, eta)
        return
    entries = swarm.downloaders.values()
    total_cap = sum(e.download_cap for e in entries)
    sv = swarm.virtual_capacity
    sr = swarm.real_capacity
    for entry in entries:
        share = entry.download_cap / total_cap if total_cap > 0 else 0.0
        rate = eta * entry.tft_upload + share * (sv + sr)
        if rate > entry.download_cap > 0:
            scale = entry.download_cap / rate
            entry.rate = entry.download_cap
            entry.rate_from_virtual = share * sv * scale
        else:
            entry.rate = rate
            entry.rate_from_virtual = share * sv


def _recompute_rates_neighbor_aware_scalar(swarm: "Swarm", eta: float) -> None:
    """O(n^2) connection-by-connection bounded-connectivity allocation."""
    entries = list(swarm.downloaders.values())
    for entry in entries:
        has_partner = any(
            swarm.connected(entry.user_id, other.user_id)
            for other in entries
            if other.user_id != entry.user_id
        )
        entry.rate = eta * entry.tft_upload if has_partner else 0.0
        entry.rate_from_virtual = 0.0
    for virtual, table in ((True, swarm.virtual_seeds), (False, swarm.real_seeds)):
        for seed_user, (bw, _) in table.items():
            if bw <= 0:
                continue
            receivers = [e for e in entries if swarm.connected(seed_user, e.user_id)]
            total_cap = sum(e.download_cap for e in receivers)
            if total_cap <= 0:
                continue
            for e in receivers:
                share = e.download_cap / total_cap * bw
                e.rate += share
                if virtual:
                    e.rate_from_virtual += share
    for entry in entries:
        if entry.rate > entry.download_cap > 0:
            scale = entry.download_cap / entry.rate
            entry.rate = entry.download_cap
            entry.rate_from_virtual *= scale


def recompute_rates_all_scalar(group: "SwarmGroup") -> None:
    """Per-entry loop equivalent of :meth:`SwarmGroup.recompute_rates_all`."""
    eta = group.eta
    entries = list(group.all_entries())
    total_cap = sum(e.download_cap for e in entries)
    pool_virtual = group.total_virtual_capacity()
    pool_real = group.total_real_capacity()
    for swarm in group.swarms.values():
        swarm.epoch += 1
    for entry in entries:
        share = entry.download_cap / total_cap if total_cap > 0 else 0.0
        rate = eta * entry.tft_upload + share * (pool_virtual + pool_real)
        if rate > entry.download_cap > 0:
            scale = entry.download_cap / rate
            entry.rate = entry.download_cap
            entry.rate_from_virtual = share * pool_virtual * scale
        else:
            entry.rate = rate
            entry.rate_from_virtual = share * pool_virtual


def advance_scalar(
    swarm: "Swarm", t: float, records: "Mapping[int, UserRecord] | None"
) -> None:
    """Per-entry loop equivalent of :meth:`Swarm.advance`."""
    dt = t - swarm.last_update
    if dt < -1e-9:
        raise ValueError(f"cannot advance swarm backwards ({swarm.last_update} -> {t})")
    if dt <= 0:
        swarm.last_update = t
        return
    for entry in swarm.downloaders.values():
        entry.remaining = max(0.0, entry.remaining - entry.rate * dt)
        if records is not None and entry.rate_from_virtual > 0:
            rec = records.get(entry.user_id)
            if rec is not None:
                rec.received_virtual += entry.rate_from_virtual * dt
    if records is not None and swarm.downloaders:
        for user_id, (bw, _) in swarm.virtual_seeds.items():
            rec = records.get(user_id)
            if rec is not None:
                rec.uploaded_virtual += bw * dt
    swarm.last_update = t


def next_completion_time_scalar(swarm: "Swarm") -> float:
    """Full-scan equivalent of :meth:`Swarm.next_completion_time`."""
    eta = math.inf
    for entry in swarm.downloaders.values():
        eta = min(eta, entry.eta_for_completion())
    return swarm.last_update + eta


def due_entries_scalar(swarm: "Swarm", slack: float) -> "list[DownloadEntry]":
    """Full-scan equivalent of :meth:`Swarm.due_entries`."""
    return [e for e in swarm.downloaders.values() if e.remaining <= slack]


def run_until_per_event(
    sim: Simulator, t_end: float, max_events: int | None = None
) -> int:
    """One-event-at-a-time equivalent of :meth:`Simulator.run_until`.

    Peeks, pops and fires a single event per iteration -- the loop the
    batched dispatcher must reproduce exactly (same firing order, same
    clock, same ``events_processed``, same ``ValueError`` /
    ``RuntimeError`` on ``t_end < now`` / ``max_events`` overrun, with the
    clock left at the last fired event on raise).  Records no metrics.
    """
    if t_end < sim.now:
        raise ValueError(f"t_end={t_end} is before now={sim.now}")
    queue = sim.queue
    fired = 0
    while queue.next_time() <= t_end:
        if max_events is not None and fired >= max_events:
            raise RuntimeError(
                f"exceeded max_events={max_events} before reaching t_end={t_end}"
            )
        event_time, callback = queue.pop()
        # The clock never runs backwards even if an event was scheduled
        # "now" while another event at the same timestamp was firing.
        sim.now = max(sim.now, event_time)
        callback()
        fired += 1
        sim._events_processed += 1
    sim.now = t_end
    return fired


def _decline(*_args, **_kwargs) -> bool:
    """Stand-in for the incremental kernels: always take the full path."""
    return False


def _no_topology_state(*_args) -> None:
    """Stand-in for ``_TopoState``: nothing maintained, rebuild every epoch."""
    return None


def _no_window(*_args) -> None:
    """Stand-in for ``SimulationSystem._start_window``: never defer."""


@contextlib.contextmanager
def _patched(*patches: tuple[object, str, object]) -> Iterator[None]:
    """Set ``owner.name = value`` for each patch; restore all on exit."""
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def oracle_mode() -> "contextlib.AbstractContextManager[None]":
    """Run the DES on its bit-exact oracle paths inside the block.

    * :meth:`Simulator.run_until` becomes :func:`run_until_per_event`;
    * :meth:`Swarm.recompute_rates_incremental` and
      :meth:`SwarmGroup.recompute_rates_all_incremental` decline, so every
      flush runs the full kernels;
    * ``repro.sim.swarm._TopoState`` builds nothing, so tracker-limited
      swarms rebuild their neighbour topology from the tracker samples on
      every epoch.
    """
    return _patched(
        (Simulator, "run_until", run_until_per_event),
        (swarm_module.Swarm, "recompute_rates_incremental", _decline),
        (swarm_module.SwarmGroup, "recompute_rates_all_incremental", _decline),
        (swarm_module, "_TopoState", _no_topology_state),
    )


def eager_integration() -> "contextlib.AbstractContextManager[None]":
    """Integrate progress eagerly on every flush inside the block.

    ``SimulationSystem._start_window`` becomes a no-op, so no rate domain
    ever opens a deferred window.  Agrees with production to float
    rounding (different, equally exact summation orders).
    """
    return _patched((SimulationSystem, "_start_window", _no_window))
