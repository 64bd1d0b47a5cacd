"""Per-peer state in the chunk-level swarm.

Two representations share one attribute vocabulary:

* :class:`ChunkPeer` -- the original self-contained per-peer object, used
  by the scalar oracle engine (:mod:`repro.chunks.reference`).
* :class:`ChunkPeerView` -- a live *view* of one row of an array-backed
  store (:class:`repro.chunks.store.ChunkStore` or
  :class:`repro.chunks.sparse_store.SparseChunkStore`; both inherit the
  same per-peer rows with the ``partials_dict`` / ``active_chunk_set``
  accessors and add ``received_dict``).  Attribute access
  resolves the peer's current row on every read, so views stay valid
  across store compactions; when the peer leaves the swarm the view is
  detached onto a frozen :class:`ChunkPeer` snapshot and keeps answering
  (mirroring the scalar engine, where a removed ``ChunkPeer`` object
  simply lives on).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chunks.sparse_store import SparseChunkStore
    from repro.chunks.store import ChunkStore

__all__ = ["ChunkPeer", "ChunkPeerView"]


class ChunkPeer:
    """One peer: piece bitmap, transfer bookkeeping and counters.

    Attributes
    ----------
    peer_id:
        Identifier within the swarm.
    bitmap:
        Boolean array over chunks; ``True`` = owned.
    joined_at / finished_at:
        Round-timestamps delimiting the peer's downloader phase
        (``finished_at`` is ``None`` while still downloading).
    uploaded_useful:
        Work units this peer delivered to others (chunk data that the
        receiver kept).
    received_last_round / received_this_round:
        Per-uploader tallies driving the tit-for-tat ranking.
    partials:
        ``chunk -> [done, credit_downloader, credit_seed]`` -- partially
        downloaded chunks, owned by the *receiver* (as in real BitTorrent,
        where a partial piece's remaining blocks can be requested from any
        peer that has the piece).  The credit fields accumulate delivered
        bytes by uploader kind; they are banked as useful when the chunk
        completes, or written off as waste if the peer finishes without it.
    active_chunks:
        Chunks some link is already pumping *this round* (cleared at round
        end); steers concurrent links to different chunks outside endgame.
    """

    def __init__(self, peer_id: int, n_chunks: int, *, is_seed: bool, joined_at: float):
        self.peer_id = peer_id
        self.bitmap = np.full(n_chunks, is_seed, dtype=bool)
        self.initially_seed = is_seed
        self.joined_at = joined_at
        self.finished_at: float | None = joined_at if is_seed else None
        self.uploaded_useful = 0.0
        self.received_last_round: dict[int, float] = {}
        self.received_this_round: dict[int, float] = {}
        self.partials: dict[int, list] = {}
        self.active_chunks: set[int] = set()
        #: how often this peer has handed out each chunk (super-seeding)
        self.offered_counts = np.zeros(n_chunks, dtype=int)
        #: rotation cursor for the round-robin seed-unchoke policy
        self.rotation_cursor = 0

    @property
    def is_seed(self) -> bool:
        return bool(self.bitmap.all())

    @property
    def n_owned(self) -> int:
        return int(self.bitmap.sum())

    def needs_from(self, other: "ChunkPeer | ChunkPeerView") -> bool:
        """Interest: does ``other`` hold any chunk this peer lacks?"""
        return bool(np.any(other.bitmap & ~self.bitmap))

    def rollover_round(self) -> None:
        """Close the round's received tallies (TFT looks one round back)."""
        self.received_last_round = self.received_this_round
        self.received_this_round = {}

    def downloader_time(self, now: float) -> float:
        """Time spent as a downloader up to ``now``."""
        if self.initially_seed:
            return 0.0
        end = self.finished_at if self.finished_at is not None else now
        return max(0.0, end - self.joined_at)


class ChunkPeerView:
    """Live row view into an array chunk store
    (:class:`~repro.chunks.store.ChunkStore` or
    :class:`~repro.chunks.sparse_store.SparseChunkStore`).

    Exposes the :class:`ChunkPeer` attribute vocabulary (``bitmap``,
    ``partials``, ``finished_at``, ...) backed by the store arrays.  The
    dict/set-valued attributes are rebuilt on access -- cheap for
    inspection and tests, and never touched by the round kernels
    themselves.  After :meth:`detach` (the peer left the swarm) every read
    is served from a frozen snapshot instead.
    """

    __slots__ = ("peer_id", "_store", "_snapshot")

    def __init__(self, store: "ChunkStore | SparseChunkStore", peer_id: int):
        self.peer_id = peer_id
        self._store = store
        self._snapshot: ChunkPeer | None = None

    # ----- row resolution -----------------------------------------------------

    @property
    def _row(self) -> int:
        return self._store.row_of[self.peer_id]

    @property
    def in_swarm(self) -> bool:
        """Whether this peer still occupies a store row."""
        return self.peer_id in self._store.row_of

    def detach(self) -> ChunkPeer:
        """Freeze the current row into a snapshot (called on removal)."""
        snap = self.snapshot()
        self._snapshot = snap
        return snap

    def snapshot(self) -> ChunkPeer:
        """A self-contained :class:`ChunkPeer` copy of the current state."""
        if self._snapshot is not None:
            return self._snapshot
        st = self._store
        row = self._row
        peer = ChunkPeer(
            self.peer_id,
            st.n_chunks,
            is_seed=bool(st.initially_seed[row]),
            joined_at=float(st.joined_at[row]),
        )
        peer.bitmap = st.own[row].copy()
        fin = st.finished_at[row]
        peer.finished_at = None if np.isnan(fin) else float(fin)
        peer.uploaded_useful = float(st.uploaded_useful[row])
        peer.received_last_round = st.received_dict(row, prev=True)
        peer.received_this_round = st.received_dict(row, prev=False)
        peer.partials = st.partials_dict(row)
        peer.active_chunks = st.active_chunk_set(row)
        peer.offered_counts = np.asarray(st.offered[row]).copy()
        peer.rotation_cursor = int(st.rotation_cursor[row])
        return peer

    # ----- ChunkPeer vocabulary -----------------------------------------------

    @property
    def bitmap(self) -> np.ndarray:
        if self._snapshot is not None:
            return self._snapshot.bitmap
        return self._store.own[self._row]

    @property
    def initially_seed(self) -> bool:
        if self._snapshot is not None:
            return self._snapshot.initially_seed
        return bool(self._store.initially_seed[self._row])

    @property
    def joined_at(self) -> float:
        if self._snapshot is not None:
            return self._snapshot.joined_at
        return float(self._store.joined_at[self._row])

    @property
    def finished_at(self) -> float | None:
        if self._snapshot is not None:
            return self._snapshot.finished_at
        fin = self._store.finished_at[self._row]
        return None if np.isnan(fin) else float(fin)

    @property
    def uploaded_useful(self) -> float:
        if self._snapshot is not None:
            return self._snapshot.uploaded_useful
        return float(self._store.uploaded_useful[self._row])

    @property
    def received_last_round(self) -> dict[int, float]:
        if self._snapshot is not None:
            return self._snapshot.received_last_round
        return self._store.received_dict(self._row, prev=True)

    @property
    def received_this_round(self) -> dict[int, float]:
        if self._snapshot is not None:
            return self._snapshot.received_this_round
        return self._store.received_dict(self._row, prev=False)

    @property
    def partials(self) -> dict[int, list[float]]:
        if self._snapshot is not None:
            return self._snapshot.partials
        return self._store.partials_dict(self._row)

    @property
    def active_chunks(self) -> set[int]:
        if self._snapshot is not None:
            return self._snapshot.active_chunks
        return self._store.active_chunk_set(self._row)

    @property
    def offered_counts(self) -> np.ndarray:
        if self._snapshot is not None:
            return self._snapshot.offered_counts
        return self._store.offered[self._row]

    @property
    def rotation_cursor(self) -> int:
        if self._snapshot is not None:
            return self._snapshot.rotation_cursor
        return int(self._store.rotation_cursor[self._row])

    @rotation_cursor.setter
    def rotation_cursor(self, value: int) -> None:
        if self._snapshot is not None:
            self._snapshot.rotation_cursor = int(value)
        else:
            self._store.rotation_cursor[self._row] = int(value)

    @property
    def is_seed(self) -> bool:
        if self._snapshot is not None:
            return self._snapshot.is_seed
        st = self._store
        return int(st.n_owned[self._row]) == st.n_chunks

    @property
    def n_owned(self) -> int:
        if self._snapshot is not None:
            return self._snapshot.n_owned
        return int(self._store.n_owned[self._row])

    def needs_from(self, other: "ChunkPeer | ChunkPeerView") -> bool:
        """Interest: does ``other`` hold any chunk this peer lacks?"""
        return bool(np.any(other.bitmap & ~self.bitmap))

    def downloader_time(self, now: float) -> float:
        """Time spent as a downloader up to ``now``."""
        if self.initially_seed:
            return 0.0
        finished = self.finished_at
        end = finished if finished is not None else now
        return max(0.0, end - self.joined_at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "detached" if self._snapshot is not None else "live"
        return f"ChunkPeerView(peer_id={self.peer_id}, {state})"
