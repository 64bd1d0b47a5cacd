"""Live neighbour topology of one tracker-limited swarm.

Under a tracker's numwant limit (``neighbor_limit``) bandwidth flows only
along connections: a downloader trades tit-for-tat only when it has a
connected downloader partner, and a seed splits its bandwidth over the
downloaders connected to it.  Connections are mutual -- ``u`` and ``v``
are connected when either one's tracker sample holds the other.

:class:`TopoState` keeps the two matrices that rule needs *live*: the
symmetric downloader adjacency (one row and column per store slot) and
the seed-reach matrix (one row per seed *user*, one column per slot).  A
swarm creates an empty state when it becomes neighbour-aware, before it
has members, and from then on every mutation reaches the state through
one hook, each O(degree) or one vectorised row/column copy:

* :meth:`TopoState.join` / :meth:`TopoState.leave` -- a downloader row
  attached at the store's last slot, or detached with a swap-fill;
* :meth:`TopoState.sample_changed` -- a tracker sample installed,
  replaced or dropped;
* :meth:`TopoState.seed_added` / :meth:`TopoState.seed_removed` /
  :meth:`TopoState.seed_changed` -- seed allocations and bandwidths.

:meth:`TopoState.products` gathers the kernel's inputs from the live
matrices.  The full rebuild from the tracker samples is the oracle it is
checked against (:func:`repro.sim.reference.neighbor_topology_rebuild`);
production never rebuilds.

Counters: ``sim.kernel.neighbor.incremental`` counts gathers and
``sim.kernel.neighbor.rows`` counts hook updates.
"""

from __future__ import annotations

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


class TopoState:
    """Adjacency and seed-reach matrices of one swarm, kept in step.

    Invariants, with ``n`` the store's row count:

    * ``adj[:n, :n]`` is the symmetrised, zero-diagonal adjacency of the
      downloaders in slot order; everything outside that block is
      ``False``.
    * ``conn[i, :n]`` for ``i < len(row_users)`` is the reach row of seed
      user ``row_users[i]`` (one row per seed user, zero-bandwidth ones
      included -- bandwidth filtering happens at gather time); rows and
      columns beyond the used block are ``0.0``.
    * ``rev[v]`` is the set of users whose sample contains ``v``, so the
      partners of a user are found in O(degree) without a population scan.
    * ``prod`` is the seed-side gather plan -- ``(rows, bandwidth,
      virtual_vec)`` -- or ``None`` once a seed hook has invalidated it.
      Membership and samples churn far faster than the seed tables, so
      the plan is reused across gathers.
    """

    __slots__ = (
        "_store",
        "_samples",
        "_virtual",
        "_real",
        "slot_user",
        "slot_of",
        "adj",
        "conn",
        "row_users",
        "seed_rows",
        "rev",
        "prod",
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
        self.adj = np.zeros((16, 16), dtype=bool)
        self.conn = np.zeros((8, 16))
        self.slot_user: list[int] = []
        self.slot_of: dict[int, int] = {}
        self.row_users: list[int] = []
        self.seed_rows: dict[int, int] = {}
        self.rev: dict[int, set] = {}
        self.prod: tuple | None = None

    def _grow_slots(self, n: int) -> None:
        """Double the slot capacity until ``n`` downloaders fit."""
        cap = self.adj.shape[0]
        new_cap = cap
        while new_cap < n:
            new_cap *= 2
        adj = np.zeros((new_cap, new_cap), dtype=bool)
        adj[:cap, :cap] = self.adj
        self.adj = adj
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

    def _partners(self, user_id: int):
        """Users connected to ``user_id``: sampled by it or sampling it."""
        mine = self._samples.get(user_id)
        back = self.rev.get(user_id)
        if mine and back:
            return mine | back
        return mine or back or ()

    # ----- hooks (each runs after the mutation it journals) -------------------

    def join(self, user_id: int) -> None:
        """A downloader attached at the store's last slot."""
        n = self._store.n  # already includes the fresh row
        slot = n - 1
        if n > self.adj.shape[0]:
            self._grow_slots(n)
        self.slot_user.append(user_id)
        self.slot_of[user_id] = slot
        adj = self.adj
        conn = self.conn
        slot_of = self.slot_of
        seed_rows = self.seed_rows
        for v in self._partners(user_id):
            w_slot = slot_of.get(v)
            if w_slot is not None and w_slot != slot:
                adj[slot, w_slot] = True
                adj[w_slot, slot] = True
            row = seed_rows.get(v)
            if row is not None:
                conn[row, slot] = 1.0
        _count_row()

    def leave(self, user_id: int, slot: int) -> None:
        """A downloader detached; the store swap-filled its slot."""
        n_old = self._store.n + 1  # the store already dropped the row
        last = n_old - 1
        adj = self.adj
        conn = self.conn
        slot_user = self.slot_user
        if slot != last:
            moved = slot_user[last]
            slot_user[slot] = moved
            self.slot_of[moved] = slot
            adj[slot, :n_old] = adj[last, :n_old]
            adj[:n_old, slot] = adj[:n_old, last]
            adj[slot, slot] = False
            conn[:, slot] = conn[:, last]
        slot_user.pop()
        del self.slot_of[user_id]
        adj[last, :n_old] = False
        adj[:n_old, last] = False
        conn[:, last] = 0.0
        _count_row()

    def sample_changed(self, user_id: int, old, new) -> None:
        """Re-derive the edges whose sample endpoint changed (O(degree))."""
        rev = self.rev
        for v in old:
            if v not in new:
                back = rev.get(v)
                if back is not None:
                    back.discard(user_id)
        for v in new:
            if v not in old:
                rev.setdefault(v, set()).add(user_id)
        samples = self._samples
        slot_of = self.slot_of
        seed_rows = self.seed_rows
        slot_u = slot_of.get(user_id)
        row_u = seed_rows.get(user_id)
        adj = self.adj
        conn = self.conn
        for v in set(old) ^ set(new):
            linked = (v in new) or (user_id in samples.get(v, ()))
            if v == user_id:
                # a self-loop sample only ever shows up in the seed reach
                # (the adjacency diagonal is cleared by construction)
                if row_u is not None and slot_u is not None:
                    conn[row_u, slot_u] = 1.0 if linked else 0.0
                continue
            slot_v = slot_of.get(v)
            if slot_v is not None:
                if slot_u is not None:
                    adj[slot_u, slot_v] = linked
                    adj[slot_v, slot_u] = linked
                if row_u is not None:
                    conn[row_u, slot_v] = 1.0 if linked else 0.0
            if slot_u is not None:
                row_v = seed_rows.get(v)
                if row_v is not None:
                    conn[row_v, slot_u] = 1.0 if linked else 0.0
        _count_row()

    def seed_added(self, user_id: int) -> None:
        """A seed allocation appeared; ensure the user has a reach row."""
        self.prod = None
        if user_id in self.seed_rows:
            return  # the other table already gave this user a row
        row = len(self.row_users)
        if row >= self.conn.shape[0]:
            self._grow_rows(row + 1)
        self.row_users.append(user_id)
        self.seed_rows[user_id] = row
        conn = self.conn
        slot_of = self.slot_of
        for v in self._partners(user_id):
            w_slot = slot_of.get(v)
            if w_slot is not None:
                conn[row, w_slot] = 1.0
        _count_row()

    def seed_removed(self, user_id: int) -> None:
        """A seed allocation left; drop the reach row when none remain."""
        self.prod = None
        if user_id in self._virtual or user_id in self._real:
            return  # still holds the other allocation: the row stays
        row = self.seed_rows.pop(user_id)
        row_users = self.row_users
        last = len(row_users) - 1
        conn = self.conn
        if row != last:
            moved = row_users[last]
            row_users[row] = moved
            self.seed_rows[moved] = row
            conn[row] = conn[last]
        row_users.pop()
        conn[last] = 0.0
        _count_row()

    def seed_changed(self) -> None:
        """A seed's bandwidth changed in place: reach rows are unaffected
        (bandwidth enters at gather time), only the plan is stale."""
        self.prod = None

    # ----- gather ---------------------------------------------------------------

    def products(self):
        """The kernel's topology inputs, gathered from the live matrices.

        Returns ``(has_partner, connectivity, bandwidth, virtual_vec)``:
        which downloaders have a connected downloader partner, the
        positive-bandwidth seed allocation x downloader-slot connectivity
        matrix (``None`` when no seed has positive bandwidth), the
        per-allocation bandwidths and a 0/1 virtual-allocation indicator.
        Allocations run virtual table first, each in insertion order.
        """
        n = self._store.n
        has_partner = self.adj[:n, :n].any(axis=1)
        prod = self.prod
        if prod is None:
            seeds = [
                (seed_user, bw, virtual)
                for virtual, table in ((True, self._virtual), (False, self._real))
                for seed_user, (bw, _) in table.items()
                if bw > 0
            ]
            if seeds:
                seed_rows = self.seed_rows
                rows = [seed_rows[s] for s, _, _ in seeds]
                bandwidth = np.array([bw for _, bw, _ in seeds])
                virtual_vec = np.array([float(v) for *_, v in seeds])
            else:
                rows = bandwidth = virtual_vec = None
            prod = self.prod = (rows, bandwidth, virtual_vec)
        rows, bandwidth, virtual_vec = prod
        connectivity = None if rows is None else self.conn[:, :n][rows]
        reg = current_registry()
        if reg.enabled:
            reg.inc("sim.kernel.neighbor.incremental")
        return has_partner, connectivity, bandwidth, virtual_vec
