"""Live neighbour topology of one tracker-limited swarm.

Under a tracker's numwant limit (``neighbor_limit``) bandwidth flows only
along connections: a downloader trades tit-for-tat only when it has a
connected downloader partner, and a seed splits its bandwidth over the
downloaders connected to it.  Connections are mutual -- ``u`` and ``v``
are connected when either one's tracker sample holds the other.

:class:`TopoState` keeps what that rule needs *live*: a per-slot count of
connected downloader partners (the tit-for-tat side needs only whether
it is positive, so no downloader adjacency matrix is kept) and the
seed-reach matrix (one row per seed *user*, one column per slot).  A
swarm creates an empty state when it becomes neighbour-aware, before it
has members, and from then on every mutation reaches the state through
one hook, each O(degree):

* :meth:`TopoState.join` / :meth:`TopoState.leave` -- a downloader row
  attached at the store's last slot, or detached with a swap-fill;
* :meth:`TopoState.sample_changed` -- a tracker sample installed,
  replaced or dropped;
* :meth:`TopoState.seed_added` / :meth:`TopoState.seed_removed` /
  :meth:`TopoState.seed_changed` -- seed allocations and bandwidths.

:meth:`TopoState.products` gathers the kernel's inputs from the live
state.  The full rebuild from the tracker samples is the oracle it is
checked against (:func:`repro.sim.reference.neighbor_topology_rebuild`);
production never rebuilds.

Counters: ``sim.kernel.neighbor.incremental`` counts gathers and
``sim.kernel.neighbor.rows`` counts hook updates; the histogram
``sim.topology.seconds`` times the hooks (not the gather, which runs
inside the rate kernel).
"""

from __future__ import annotations

import functools
import time
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.obs import current_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.peerstore import PeerStore

__all__ = ["TopoState"]


def _count_row() -> None:
    reg = current_registry()
    if reg.enabled:
        reg.inc("sim.kernel.neighbor.rows")


def _timed(hook):
    """Record a hook's wall time into ``sim.topology.seconds`` when a
    registry is installed (one branch otherwise)."""

    @functools.wraps(hook)
    def timed(self, *args):
        reg = current_registry()
        if not reg.enabled:
            return hook(self, *args)
        started = time.perf_counter()
        hook(self, *args)
        reg.observe("sim.topology.seconds", time.perf_counter() - started)

    return timed


class TopoState:
    """Partner counts and the seed-reach matrix of one swarm, kept in step.

    Invariants, with ``n`` the store's row count:

    * ``partners[i]`` for ``i < n`` is the number of *other* downloaders
      connected to the one in slot ``i`` (``len(partners) == n``; it is
      swap-filled like the store's slots).
    * ``conn[i, :n]`` for ``i < len(row_users)`` is the reach row of seed
      user ``row_users[i]`` (one row per seed user, zero-bandwidth ones
      included -- bandwidth filtering happens at gather time); rows and
      columns beyond the used block are ``0.0``.
    * ``rev[v]`` is the set of users whose sample contains ``v``, so the
      partners of a user are found in O(degree) without a population scan;
      a user no sample holds has no entry.
    * The seed-side gather plan lists every positive-bandwidth allocation,
      virtual table first, each table in insertion order: ``plan_keys[j]``
      is ``~user_id`` for a virtual allocation and ``user_id`` for a real
      one, ``plan_rows[j]`` its reach row, ``plan[0, j]`` its bandwidth
      and ``plan[1, j]`` its 0/1 virtual flag; ``n_virtual`` counts the
      leading virtual entries.  The seed hooks keep it in step, so a
      gather never rebuilds it.
    """

    __slots__ = (
        "_store",
        "_samples",
        "_virtual",
        "_real",
        "slot_of",
        "partners",
        "conn",
        "row_users",
        "seed_rows",
        "rev",
        "plan_keys",
        "plan_rows",
        "plan",
        "n_virtual",
    )

    def __init__(
        self,
        store: "PeerStore",
        samples: Mapping[int, frozenset],
        virtual_seeds: Mapping[int, tuple[float, int]],
        real_seeds: Mapping[int, tuple[float, int]],
    ):
        self._store = store
        self._samples = samples
        self._virtual = virtual_seeds
        self._real = real_seeds
        self.conn = np.zeros((8, 16))
        self.slot_of: dict[int, int] = {}
        self.partners: list[int] = []
        self.row_users: list[int] = []
        self.seed_rows: dict[int, int] = {}
        self.rev: dict[int, set] = {}
        self.plan_keys: list[int] = []
        self.plan_rows = np.zeros(8, dtype=np.intp)
        self.plan = np.zeros((2, 8))
        self.n_virtual = 0

    def _grow_slots(self, n: int) -> None:
        """Double the slot capacity until ``n`` downloaders fit."""
        cap = self.conn.shape[1]
        new_cap = cap
        while new_cap < n:
            new_cap *= 2
        conn = np.zeros((self.conn.shape[0], new_cap))
        conn[:, :cap] = self.conn
        self.conn = conn

    def _grow_rows(self, rows: int) -> None:
        """Double the seed-row capacity until ``rows`` rows fit."""
        cap = self.conn.shape[0]
        new_cap = cap
        while new_cap < rows:
            new_cap *= 2
        conn = np.zeros((new_cap, self.conn.shape[1]))
        conn[:cap] = self.conn
        self.conn = conn

    def _partner_slots(self, user_id: int, slot: int) -> list[int]:
        """Slots of the downloaders other than ``slot`` connected to
        ``user_id`` (sampled by it or sampling it), each once.  With
        ``slot=-1`` the user's own slot counts when it samples itself."""
        slot_of = self.slot_of
        mine = self._samples.get(user_id, ())
        slots = [w for v in mine if (w := slot_of.get(v)) is not None and w != slot]
        for v in self.rev.get(user_id, ()):
            if v not in mine and (w := slot_of.get(v)) is not None and w != slot:
                slots.append(w)
        return slots

    # ----- hooks (each runs after the mutation it journals) -------------------

    @_timed
    def join(self, user_id: int) -> None:
        """A downloader attached at the store's last slot."""
        n = self._store.n  # already includes the fresh row
        slot = n - 1
        if n > self.conn.shape[1]:
            self._grow_slots(n)
        self.slot_of[user_id] = slot
        partners = self.partners
        slots = self._partner_slots(user_id, slot)
        for w in slots:
            partners[w] += 1
        partners.append(len(slots))
        seed_rows = self.seed_rows
        rows = [
            row
            for users in (self._samples.get(user_id, ()), self.rev.get(user_id, ()))
            for v in users
            if (row := seed_rows.get(v)) is not None
        ]
        if rows:  # a pair sampled both ways is simply marked twice
            self.conn[rows, slot] = 1.0
        _count_row()

    @_timed
    def leave(self, user_id: int, slot: int) -> None:
        """A downloader detached; the store swap-filled its slot."""
        last = self._store.n  # the store already dropped the row
        partners = self.partners
        if partners[slot]:
            for w in self._partner_slots(user_id, slot):
                partners[w] -= 1
        conn = self.conn
        used = len(self.row_users)
        slot_of = self.slot_of
        if slot != last:
            moved = self._store.entries[slot].user_id  # swap-filled from last
            slot_of[moved] = slot
            partners[slot] = partners[last]
            conn[:used, slot] = conn[:used, last]
        partners.pop()
        del slot_of[user_id]
        conn[:used, last] = 0.0
        _count_row()

    @_timed
    def sample_changed(self, user_id: int, old, new) -> None:
        """Re-derive the connections whose sample endpoint changed.

        One pass over the entries that left or entered the sample.  An
        entry ``v`` whose own sample holds ``user_id`` keeps its connection
        either way and is skipped; a user that is neither a downloader nor
        a seed here (a sample dropped after the user left) only updates the
        reverse index.
        """
        rev = self.rev
        slot_u = self.slot_of.get(user_id)
        row_u = self.seed_rows.get(user_id)
        present = slot_u is not None or row_u is not None
        # users whose own sample holds user_id: their connection stays
        kept = rev.get(user_id, ())
        slot_of = self.slot_of
        seed_rows = self.seed_rows
        partners = self.partners
        conn = self.conn
        for v in old:
            if v in new:
                continue
            back = rev[v]
            back.discard(user_id)
            if not back:
                del rev[v]
            if not present:
                continue
            if v == user_id:
                # a self-loop only ever shows up in the seed reach
                if row_u is not None and slot_u is not None:
                    conn[row_u, slot_u] = 0.0
                continue
            if v in kept:
                continue
            slot_v = slot_of.get(v)
            if slot_v is not None:
                if slot_u is not None:
                    partners[slot_u] -= 1
                    partners[slot_v] -= 1
                if row_u is not None:
                    conn[row_u, slot_v] = 0.0
            if slot_u is not None:
                row_v = seed_rows.get(v)
                if row_v is not None:
                    conn[row_v, slot_u] = 0.0
        for v in new:
            if v in old:
                continue
            back = rev.get(v)
            if back is None:
                rev[v] = {user_id}
            else:
                back.add(user_id)
            if not present:
                continue
            if v == user_id:
                if row_u is not None and slot_u is not None:
                    conn[row_u, slot_u] = 1.0
                continue
            if v in kept:
                continue
            slot_v = slot_of.get(v)
            if slot_v is not None:
                if slot_u is not None:
                    partners[slot_u] += 1
                    partners[slot_v] += 1
                if row_u is not None:
                    conn[row_u, slot_v] = 1.0
            if slot_u is not None:
                row_v = seed_rows.get(v)
                if row_v is not None:
                    conn[row_v, slot_u] = 1.0
        _count_row()

    @_timed
    def seed_added(self, user_id: int, virtual: bool) -> None:
        """A seed allocation appeared; ensure the user has a reach row."""
        row = self.seed_rows.get(user_id)
        if row is None:
            row = len(self.row_users)
            if row >= self.conn.shape[0]:
                self._grow_rows(row + 1)
            self.row_users.append(user_id)
            self.seed_rows[user_id] = row
            slots = self._partner_slots(user_id, -1)
            if slots:
                self.conn[row, slots] = 1.0
            _count_row()
        self._sync_allocation(user_id, virtual)

    @_timed
    def seed_removed(self, user_id: int, virtual: bool) -> None:
        """A seed allocation left; drop the reach row when none remain."""
        self._sync_allocation(user_id, virtual)
        if user_id in self._virtual or user_id in self._real:
            return  # still holds the other allocation: the row stays
        row = self.seed_rows.pop(user_id)
        row_users = self.row_users
        last = len(row_users) - 1
        conn = self.conn
        n = self._store.n
        if row != last:
            moved = row_users[last]
            row_users[row] = moved
            self.seed_rows[moved] = row
            conn[row, :n] = conn[last, :n]
            keys = self.plan_keys
            for key in (~moved, moved):
                if key in keys:
                    self.plan_rows[keys.index(key)] = row
        row_users.pop()
        conn[last, :n] = 0.0
        _count_row()

    def seed_changed(self, user_id: int, virtual: bool) -> None:
        """A seed's bandwidth changed in place: reach rows are unaffected,
        only the allocation's plan entry."""
        self._sync_allocation(user_id, virtual)

    def _sync_allocation(self, user_id: int, virtual: bool) -> None:
        """Bring one allocation's plan entry in line with its seed table:
        present with the table's bandwidth when that is positive, absent
        otherwise."""
        table = self._virtual if virtual else self._real
        seed = table.get(user_id)
        bandwidth = seed[0] if seed is not None else 0.0
        keys = self.plan_keys
        key = ~user_id if virtual else user_id
        k = len(keys)
        plan = self.plan
        rows = self.plan_rows
        if key in keys:
            pos = keys.index(key)
            if bandwidth > 0:
                plan[0, pos] = bandwidth
                return
            del keys[pos]
            if pos < k - 1:
                plan[:, pos : k - 1] = plan[:, pos + 1 : k]
                rows[pos : k - 1] = rows[pos + 1 : k]
            self.n_virtual -= virtual
            return
        if not bandwidth > 0:
            return
        # the end of the allocation's block, less the positive allocations
        # that follow it in its table (none when it was just added)
        pos = self.n_virtual if virtual else k
        for other in reversed(table):
            if other == user_id:
                break
            if table[other][0] > 0:
                pos -= 1
        if k == rows.size:
            self.plan_rows = rows = np.concatenate((rows, np.zeros_like(rows)))
            self.plan = plan = np.concatenate((plan, np.zeros_like(plan)), axis=1)
        keys.insert(pos, key)
        if pos < k:
            plan[:, pos + 1 : k + 1] = plan[:, pos:k]
            rows[pos + 1 : k + 1] = rows[pos:k]
        plan[0, pos] = bandwidth
        plan[1, pos] = 1.0 if virtual else 0.0
        rows[pos] = self.seed_rows[user_id]
        self.n_virtual += virtual

    # ----- gather ---------------------------------------------------------------

    def products(self):
        """The kernel's topology inputs, gathered from the live state.

        Returns ``(has_partner, connectivity, bandwidth, virtual_vec)``:
        which downloaders have a connected downloader partner, the
        positive-bandwidth seed allocation x downloader-slot connectivity
        matrix (``None`` when no seed has positive bandwidth), the
        per-allocation bandwidths and a 0/1 virtual-allocation indicator.
        Allocations run virtual table first, each in insertion order.
        """
        n = self._store.n
        has_partner = np.array(self.partners, dtype=bool)
        k = len(self.plan_keys)
        reg = current_registry()
        if reg.enabled:
            reg.inc("sim.kernel.neighbor.incremental")
        if not k:
            return has_partner, None, None, None
        plan = self.plan
        connectivity = self.conn[self.plan_rows[:k], :n]
        return has_partner, connectivity, plan[0, :k], plan[1, :k]
