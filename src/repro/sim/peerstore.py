"""Structure-of-arrays backing store for a swarm's downloader state.

The bandwidth-allocation kernels in :mod:`repro.sim.swarm` are pure array
math: every downloader contributes a download cap, a tit-for-tat upload and
a remaining-work figure, and receives back a rate.  Keeping those per-peer
scalars in Python objects forces every kernel invocation into an O(n)
attribute-chasing loop (O(n^2) for the neighbour-aware path).  The
:class:`PeerStore` keeps them in contiguous NumPy arrays instead, so the
kernels become a handful of vectorised operations.

The store is maintained *incrementally*: :meth:`attach` appends a row in
amortised O(1) (capacity doubles when full) and :meth:`detach` removes one
in O(1) by swapping the last row into the vacated slot.  Attached
:class:`~repro.sim.entities.DownloadEntry` objects become live views into
their row -- reads and writes of ``entry.rate`` etc. go straight to the
arrays -- so the scalar reference implementations, behaviours and tests
keep working unchanged on top of the same storage.  On detach the row's
values are copied back into the entry, which then behaves like a plain
record again (completion handling reads ``entry.remaining`` after removal).

The store also keeps its rows in *lanes* for the window's due judgement
(:meth:`repro.sim.bandwidth.RateWindow.due`): one list per distinct
``(tft_upload, download_cap)`` pair, sorted by stored remaining work.  Every
row of a lane gets the same rate outside a deferred window and the same
subtraction inside one, so the order never changes; a new row starts at
the file size (plus a join bias that never shrinks inside a window), so it
belongs at its lane's tail.  The index is built on the first judgement
(:meth:`PeerStore.lanes`) and then kept across windows:

* :meth:`attach` appends the row to its lane's tail -- or, while a window
  defers the store, :meth:`~repro.sim.swarm._RateDomain.win_bias_attached`
  does once the join bias is on (:meth:`index_join`).  A row that would
  not sort last drops the index;
* :meth:`detach` removes the row from its lane;
* any write through an entry's attributes drops the index
  (:meth:`drop_lanes`), since it can move the row within or between lanes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.obs import current_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.entities import DownloadEntry

__all__ = ["PeerStore"]

#: float columns mirrored between entries and the store (order matters: it
#: matches the ``DownloadEntry`` slot layout used by attach/detach).
#: ``received_virtual_acc`` is the deferred received-from-virtual-seeds
#: integral, accumulated vectorised during advances and flushed into the
#: user records by the swarm's accounting-sync methods.
FLOAT_FIELDS = (
    "tft_upload",
    "download_cap",
    "remaining",
    "rate",
    "rate_from_virtual",
    "received_virtual_acc",
)

#: static integer columns (never written back -- they are immutable on the entry)
INT_FIELDS = ("user_id", "user_class", "stage")


class PeerStore:
    """Contiguous per-peer arrays for one swarm, plus the slot -> entry map."""

    __slots__ = (
        ("n", "version", "entries", "_sync", "_lanes", "_indexed")
        + FLOAT_FIELDS
        + INT_FIELDS
    )

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.n = 0
        #: bumped on every attach/detach -- slot layout changed, so any
        #: slot-indexed state derived from the store must be rebuilt
        self.version = 0
        #: set while the owning rate domain defers integration (see
        #: :class:`~repro.sim.bandwidth.RateWindow`): a zero-argument
        #: callable that materialises the domain, so entry-level reads of
        #: time-integrated fields never observe deferred (biased) state
        self._sync = None
        #: ``(tft_upload, download_cap) -> [entries by stored remaining]``
        #: (see the module docstring), or ``None`` until the next due
        #: judgement builds it
        self._lanes: dict[tuple[float, float], list[DownloadEntry]] | None = None
        #: rows held in ``_lanes``; below ``n`` when a row joined under an
        #: open window but was never filed (attached without the window's
        #: join hook), so the next judgement rebuilds
        self._indexed = 0
        #: slot index -> attached entry (parallel to the array rows)
        self.entries: list[DownloadEntry] = []
        for name in FLOAT_FIELDS:
            setattr(self, name, np.zeros(capacity, dtype=float))
        for name in INT_FIELDS:
            setattr(self, name, np.zeros(capacity, dtype=np.int64))

    def __len__(self) -> int:
        return self.n

    @property
    def capacity(self) -> int:
        return int(self.user_id.size)

    def column(self, name: str) -> np.ndarray:
        """Live view of the first ``n`` rows of column ``name``."""
        return getattr(self, name)[: self.n]

    def _grow(self) -> None:
        new_capacity = max(8, 2 * self.capacity)
        for name in FLOAT_FIELDS + INT_FIELDS:
            old = getattr(self, name)
            fresh = np.zeros(new_capacity, dtype=old.dtype)
            fresh[: self.n] = old[: self.n]
            setattr(self, name, fresh)

    def attach(self, entry: "DownloadEntry") -> int:
        """Adopt ``entry`` into the arrays; it becomes a view of its row."""
        if entry._store is not None:
            raise ValueError(
                f"entry (user={entry.user_id}, file={entry.file_id}) is "
                "already attached to a store"
            )
        if self.n == self.capacity:
            self._grow()
        slot = self.n
        self.tft_upload[slot] = entry._tft_upload
        self.download_cap[slot] = entry._download_cap
        self.remaining[slot] = entry._remaining
        self.rate[slot] = entry._rate
        self.rate_from_virtual[slot] = entry._rate_from_virtual
        self.received_virtual_acc[slot] = entry._received_virtual_acc
        self.user_id[slot] = entry.user_id
        self.user_class[slot] = entry.user_class
        self.stage[slot] = entry.stage
        self.entries.append(entry)
        self.n += 1
        self.version += 1
        entry._store = self
        entry._slot = slot
        if self._lanes is not None and self._sync is None:
            self.index_join(entry)
        return slot

    def detach(self, entry: "DownloadEntry") -> None:
        """Release ``entry`` (values copied back), swap-filling its slot."""
        if entry._store is not self:
            raise ValueError(
                f"entry (user={entry.user_id}, file={entry.file_id}) is not "
                "attached to this store"
            )
        slot = entry._slot
        if self._lanes is not None:
            self._unindex(entry, slot)
        entry._tft_upload = float(self.tft_upload[slot])
        entry._download_cap = float(self.download_cap[slot])
        entry._remaining = float(self.remaining[slot])
        entry._rate = float(self.rate[slot])
        entry._rate_from_virtual = float(self.rate_from_virtual[slot])
        entry._received_virtual_acc = float(self.received_virtual_acc[slot])
        entry._store = None
        entry._slot = -1
        last = self.n - 1
        if slot != last:
            moved = self.entries[last]
            self.entries[slot] = moved
            moved._slot = slot
            for name in FLOAT_FIELDS + INT_FIELDS:
                column = getattr(self, name)
                column[slot] = column[last]
        self.entries.pop()
        self.n = last
        self.version += 1

    # ----- the lane index ---------------------------------------------------------

    def lanes(self) -> "dict[tuple[float, float], list[DownloadEntry]]":
        """Rows grouped by ``(tft_upload, download_cap)``, each lane sorted
        by stored remaining work; built here when missing or incomplete."""
        lanes = self._lanes
        if lanes is not None and self._indexed == self.n:
            return lanes
        n = self.n
        tft = self.tft_upload[:n].tolist()
        caps = self.download_cap[:n].tolist()
        remaining = self.remaining[:n].tolist()
        entries = self.entries
        lanes = {}
        for i in sorted(range(n), key=remaining.__getitem__):
            key = (tft[i], caps[i])
            lane = lanes.get(key)
            if lane is None:
                lanes[key] = [entries[i]]
            else:
                lane.append(entries[i])
        self._lanes = lanes
        self._indexed = n
        reg = current_registry()
        if reg.enabled:
            reg.inc("sim.window.due.index_builds")
        return lanes

    def index_join(self, entry: "DownloadEntry") -> None:
        """Append a freshly attached row at its lane's tail.

        Drops the index instead when the row's stored remaining work is
        below the tail's, i.e. when it does not sort last.
        """
        lanes = self._lanes
        if lanes is None:
            return
        slot = entry._slot
        key = (self.tft_upload.item(slot), self.download_cap.item(slot))
        lane = lanes.get(key)
        if lane is None:
            lanes[key] = [entry]
        elif self.remaining.item(slot) < self.remaining.item(lane[-1]._slot):
            self.drop_lanes()
            return
        else:
            lane.append(entry)
        self._indexed += 1

    def drop_lanes(self) -> None:
        """Forget the lane index; the next due judgement rebuilds it."""
        self._lanes = None

    def _unindex(self, entry: "DownloadEntry", slot: int) -> None:
        """Remove a departing row from its lane (before its slot is reused)."""
        lanes = self._lanes
        key = (self.tft_upload.item(slot), self.download_cap.item(slot))
        lane = lanes.get(key)
        if lane is None or entry not in lane:
            return  # never filed (see ``_indexed``)
        lane.remove(entry)
        self._indexed -= 1
        if not lane:
            del lanes[key]
