"""Reference implementations the DES is checked against.

Four kinds of oracle live here, and no production module imports this one.

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

**Topology rebuild.**  :func:`neighbor_topology_rebuild` rebuilds a
tracker-limited swarm's adjacency and seed-reach matrices from scratch
out of its tracker samples.  The live topology
(:mod:`repro.sim.topology`) must gather the same arrays, bit for bit.

**Due scan.**  :func:`win_due_scan` judges which rows of an open window
are due by recomputing every row's time to completion, O(rows) per
completion event.  The production judgement
(:meth:`repro.sim.bandwidth.RateWindow.due`) walks each store's lanes
from their heads instead and must return the same ``(t_next, due,
t_rest)``, bit for bit and with the due rows in the same order.

**Oracle modes.**  The DES has one production path; the slower paths it
must agree with are swapped in for the duration of a ``with`` block by
replacing production methods (and restored on exit, even on error):

* :func:`oracle_mode` -- per-event dispatch (:func:`run_until_per_event`),
  full rate kernels on every flush, a full neighbour-topology rebuild
  on every epoch and the full due scan on every windowed completion.  Production must match it **bit for bit**.
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
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

import repro.sim.swarm as swarm_module
from repro.obs import current_registry
from repro.sim.bandwidth import SCALAR_KERNEL_CUTOFF, RateWindow
from repro.sim.engine import Simulator
from repro.sim.system import SimulationSystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.entities import DownloadEntry, UserRecord
    from repro.sim.peerstore import PeerStore
    from repro.sim.swarm import Swarm, SwarmGroup

__all__ = [
    "recompute_rates_scalar",
    "recompute_rates_all_scalar",
    "advance_scalar",
    "next_completion_time_scalar",
    "neighbor_topology_rebuild",
    "win_due_scan",
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


def neighbor_topology_rebuild(swarm: "Swarm"):
    """Full rebuild of :meth:`Swarm._neighbor_topology` from the samples.

    Flattens every tracker sample into one ``(src, dst)`` edge array,
    maps ids to store slots and seed rows with ``searchsorted`` and builds
    the adjacency and seed-reach matrices from scratch -- O(edges + n^2)
    per call.  Returns the same ``(has_partner, connectivity, bandwidth,
    virtual_vec)`` tuple as the live gather
    (:meth:`repro.sim.topology.TopoState.products`), array for array.
    Counts ``sim.kernel.neighbor.full`` and ``.peers``.
    """
    neighbors = swarm.neighbors
    store = swarm.store
    n = store.n
    user_ids = store.column("user_id")
    reg = current_registry()
    if reg.enabled:
        reg.inc("sim.kernel.neighbor.full")
        reg.inc("sim.kernel.neighbor.peers", n)
    if neighbors:
        keys = np.fromiter(neighbors.keys(), dtype=np.int64, count=len(neighbors))
        degrees = np.fromiter(
            (len(s) for s in neighbors.values()), dtype=np.int64, count=len(neighbors)
        )
        dst = np.fromiter(
            (u for s in neighbors.values() for u in s),
            dtype=np.int64,
            count=int(degrees.sum()),
        )
        src = np.repeat(keys, degrees)
    else:
        src = dst = np.empty(0, dtype=np.int64)

    def lookup(sorted_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Position of each id in ``sorted_ids`` (-1 when absent)."""
        if not sorted_ids.size:
            return np.full(ids.size, -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(sorted_ids, ids), sorted_ids.size - 1)
        return np.where(sorted_ids[pos] == ids, pos, -1)

    slot_order = np.argsort(user_ids, kind="stable")
    sorted_ids = user_ids[slot_order]

    def to_slot(ids: np.ndarray) -> np.ndarray:
        """Downloader slot of each user id (-1 when not a downloader)."""
        pos = lookup(sorted_ids, ids)
        return np.where(pos >= 0, slot_order[pos], -1) if n else pos

    src_slot = to_slot(src)
    dst_slot = to_slot(dst)

    adjacency = np.zeros((n, n), dtype=bool)
    both = (src_slot >= 0) & (dst_slot >= 0)
    adjacency[src_slot[both], dst_slot[both]] = True
    adjacency |= adjacency.T
    np.fill_diagonal(adjacency, False)
    has_partner = adjacency.any(axis=1)

    seeds = [
        (seed_user, bw, virtual)
        for virtual, table in ((True, swarm.virtual_seeds), (False, swarm.real_seeds))
        for seed_user, (bw, _) in table.items()
        if bw > 0
    ]
    if not seeds:
        return has_partner, None, None, None
    # reach rows are per seed *user*: a user may hold a virtual and a real
    # seed at once, and both allocations reach the same downloaders
    unique_ids = np.array(sorted({s for s, _, _ in seeds}), dtype=np.int64)
    reach = np.zeros((unique_ids.size, n))
    seed_of_dst = lookup(unique_ids, dst)  # a downloader sampled the seed
    hit = (src_slot >= 0) & (seed_of_dst >= 0)
    reach[seed_of_dst[hit], src_slot[hit]] = 1.0
    seed_of_src = lookup(unique_ids, src)  # the seed sampled a downloader
    hit = (seed_of_src >= 0) & (dst_slot >= 0)
    reach[seed_of_src[hit], dst_slot[hit]] = 1.0
    rows = np.searchsorted(unique_ids, [s for s, _, _ in seeds])
    connectivity = reach[rows]
    bandwidth = np.array([bw for _, bw, _ in seeds])
    virtual_vec = np.array([float(v) for *_, v in seeds])
    return has_partner, connectivity, bandwidth, virtual_vec


def win_due_scan(
    win: RateWindow, stores: "Iterable[PeerStore]", eps: float
) -> "tuple[float, list[DownloadEntry], float]":
    """Full-scan equivalent of :meth:`RateWindow.due`.

    Judges every row of every store: ``(t_next, due, t_rest)`` are the
    earliest completion, the rows due within ``eps`` (store by store, in
    slot order) and the earliest completion among the rows that stay.
    """
    t_next = math.inf
    t_rest = math.inf
    due: list[DownloadEntry] = []
    for store in stores:
        t_c, rows, t_r = _store_due_scan(win, store, eps)
        if t_c < t_next:
            t_next = t_c
        if t_r < t_rest:
            t_rest = t_r
        due.extend(rows)
    return t_next, due, t_rest


def _store_due_scan(
    win: RateWindow, store: "PeerStore", eps: float
) -> "tuple[float, list[DownloadEntry], float]":
    """One store's earliest completion under the open window, its rows due
    within ``eps``, and the earliest *non-due* completion (``inf`` when
    every row is due).  Stores of at most ``SCALAR_KERNEL_CUTOFF`` rows
    take a scalar loop with the exact expression shape of the vector pass.
    """
    t = win.t
    n = store.n
    if not n:
        return math.inf, [], math.inf
    if n <= SCALAR_KERNEL_CUTOFF:
        eta_w = win.eta
        q = win.q
        B = win.B
        coef_t = eta_w * (win.t - win.t_start)
        tft = store.tft_upload[:n].tolist()
        caps = store.download_cap[:n].tolist()
        rem = store.remaining[:n].tolist()
        entries = store.entries
        due: list[DownloadEntry] = []
        t_due = math.inf
        t_rest = math.inf
        for i in range(n):
            tf = tft[i]
            cp = caps[i]
            r = rem[i] - (coef_t * tf + B * cp)
            if r <= 0.0:
                e = 0.0
            else:
                rate = eta_w * tf + q * cp
                e = r / rate if rate > 0.0 else math.inf
            if e <= eps:
                due.append(entries[i])
                if e < t_due:
                    t_due = e
            elif e < t_rest:
                t_rest = e
        t_next = t_due if t_due < t_rest else t_rest
        return t + t_next, due, t + t_rest if t_rest < math.inf else math.inf
    tft = store.tft_upload[:n]
    caps = store.download_cap[:n]
    coef_t = win.eta * (win.t - win.t_start)
    remaining = store.remaining[:n] - (coef_t * tft + win.B * caps)
    rate = win.eta * tft + win.q * caps
    with np.errstate(divide="ignore", invalid="ignore"):
        etas = remaining / rate
    etas[remaining <= 0.0] = 0.0  # done rows are due regardless of rate
    t_min = float(etas.min())
    if t_min > eps:
        t_next = t + t_min
        return t_next, [], t_next
    due_mask = etas <= eps
    entries = store.entries
    due = [entries[i] for i in np.flatnonzero(due_mask)]
    rest = etas[~due_mask]
    t_rest = t + float(rest.min()) if rest.size else math.inf
    return t + t_min, due, t_rest


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
    * :meth:`Swarm._neighbor_topology` becomes
      :func:`neighbor_topology_rebuild`, so tracker-limited swarms rebuild
      their neighbour topology from the tracker samples on every epoch
      (the live topology is still kept in step, but never read);
    * :meth:`RateWindow.due` becomes :func:`win_due_scan`, so every
      windowed completion judges every row (the stores' lane indexes are
      never built).
    """
    return _patched(
        (Simulator, "run_until", run_until_per_event),
        (swarm_module.Swarm, "recompute_rates_incremental", _decline),
        (swarm_module.SwarmGroup, "recompute_rates_all_incremental", _decline),
        (swarm_module.Swarm, "_neighbor_topology", neighbor_topology_rebuild),
        (RateWindow, "due", win_due_scan),
    )


def eager_integration() -> "contextlib.AbstractContextManager[None]":
    """Integrate progress eagerly on every flush inside the block.

    ``SimulationSystem._start_window`` becomes a no-op, so no rate domain
    ever opens a deferred window.  Agrees with production to float
    rounding (different, equally exact summation orders).
    """
    return _patched((SimulationSystem, "_start_window", _no_window))
