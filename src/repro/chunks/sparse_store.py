"""Bounded-degree structure-of-arrays state for the sparse chunk engine.

The dense :class:`repro.chunks.store.ChunkStore` keeps P x P received
matrices, which caps it near a few thousand peers.
:class:`SparseChunkStore` shares the dense store's per-peer rows
(:class:`repro.chunks.store._PeerRows`: the per-peer vectors, ``own``,
``offered``, the ``partials`` dicts and ``active`` sets,
add/resize/compaction and the shrink policy) and replaces the P x P
matrices with neighborhood-local state, so apart from the shared P x C
ownership and offer rows memory is O(P * d) in the sampled degree ``d``:

* ``nbr`` / ``deg`` -- padded adjacency: row ``r`` of the P x width int32
  matrix lists the store rows ``r`` is connected to, **sorted ascending**,
  padded with ``-1`` beyond ``deg[r]``.  Sortedness is free to maintain
  (new peers get the highest row index, so appends stay sorted; compaction
  remaps rows monotonically) and load-bearing twice over: candidate lists
  iterate in insertion == ascending-id order exactly like the scalar
  engine's peer dict, and per-edge lookups are a ``searchsorted``.
* ``r_prev_e`` / ``r_cur_e`` -- edge-aligned received-bytes columns:
  ``r_cur_e[r, j]`` accumulates bytes received this round from neighbour
  ``nbr[r, j]``.  These are the sparse replacement for the dense P x P
  ``r_prev`` / ``r_cur`` tit-for-tat matrices.
* ``own_packed`` -- a bit-packed uint64 shadow of the shared ``own``
  matrix (``ceil(C/64)`` words per peer), maintained incrementally.  The
  packed form makes the per-neighborhood interest kernel a few-word AND
  instead of a C-wide row scan; :meth:`set_owned` keeps it in step.

Rows stay **in peer-insertion order** exactly as in the dense store;
removal compacts rows *and* edges (stable left-shift of surviving edges,
monotone row remap), and capacity shrinks once fewer than a quarter of
the allocated rows are live.
"""

from __future__ import annotations

import numpy as np

from repro.chunks.store import _PeerRows

__all__ = ["SparseChunkStore"]


class SparseChunkStore(_PeerRows):
    """Array-backed bounded-degree state for one chunk-level swarm."""

    _ROWS = _PeerRows._ROWS + (
        ("own_packed", 0),
        ("nbr", -1),
        ("deg", 0),
        ("r_prev_e", 0.0),
        ("r_cur_e", 0.0),
    )

    def __init__(self, n_chunks: int, *, capacity: int = 16, width: int = 8):
        super().__init__(n_chunks, capacity)
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self._width = int(width)
        C = self.n_chunks
        W = (C + 63) // 64
        self.n_words = W
        #: per-chunk packed-word index and bit mask (chunk c lives in word
        #: c >> 6 at bit c & 63)
        self._bit = np.uint64(1) << (np.arange(C, dtype=np.uint64) & np.uint64(63))
        full = np.full(W, np.iinfo(np.uint64).max, dtype=np.uint64)
        if C % 64:
            full[-1] = (np.uint64(1) << np.uint64(C % 64)) - np.uint64(1)
        self._full_words = full
        c = self._cap
        w = self._width
        self.own_packed = np.zeros((c, W), dtype=np.uint64)
        self.nbr = np.full((c, w), -1, dtype=np.int32)
        self.deg = np.zeros(c, dtype=np.int32)
        self.r_prev_e = np.zeros((c, w), dtype=np.float64)
        self.r_cur_e = np.zeros((c, w), dtype=np.float64)

    # ----- membership ---------------------------------------------------------

    def add(self, peer_id: int, *, is_seed: bool, joined_at: float) -> int:
        """Append a peer row (zeroed, no edges) and return its index."""
        row = super().add(peer_id, is_seed=is_seed, joined_at=joined_at)
        if is_seed:
            self.own_packed[row] = self._full_words
        return row

    def _grow_width(self, needed: int) -> None:
        new_w = self._width
        while new_w < needed:
            new_w *= 2
        if new_w == self._width:
            return
        n = self.n

        def widened(old: np.ndarray, fill) -> np.ndarray:
            arr = np.full((self._cap, new_w), fill, dtype=old.dtype)
            arr[:n, : self._width] = old[:n]
            return arr

        self.nbr = widened(self.nbr, -1)
        self.r_prev_e = widened(self.r_prev_e, 0.0)
        self.r_cur_e = widened(self.r_cur_e, 0.0)
        self._width = new_w

    # ----- adjacency ----------------------------------------------------------

    def connect_new(self, row: int, others: np.ndarray) -> None:
        """Connect the newest row to ``others`` (sorted ascending, all < row).

        ``row`` is the highest live row index, so appending it to each
        target's edge list keeps every adjacency row sorted; the new row's
        own list is ``others`` verbatim.
        """
        others = np.asarray(others, dtype=np.int32)
        k = others.size
        if k == 0:
            return
        needed = max(k, int(self.deg[others].max()) + 1)
        if needed > self._width:
            self._grow_width(needed)
        self.nbr[row, :k] = others
        self.deg[row] = k
        idx = self.deg[others]
        self.nbr[others, idx] = row
        self.r_prev_e[others, idx] = 0.0
        self.r_cur_e[others, idx] = 0.0
        self.deg[others] = idx + 1

    def has_edge(self, a: int, b: int) -> bool:
        """Whether rows ``a`` and ``b`` are connected."""
        d = int(self.deg[a])
        j = int(np.searchsorted(self.nbr[a, :d], b))
        return j < d and self.nbr[a, j] == b

    def insert_edge(self, a: int, b: int) -> None:
        """Connect two existing rows (sorted insert on both sides).

        Unlike :meth:`connect_new` this works for any row pair -- used
        when a stranded peer re-wires mid-run -- at O(width) per side.
        """
        if a == b:
            raise ValueError("cannot connect a row to itself")
        if max(int(self.deg[a]), int(self.deg[b])) + 1 > self._width:
            self._grow_width(max(int(self.deg[a]), int(self.deg[b])) + 1)
        for r, o in ((a, b), (b, a)):
            d = int(self.deg[r])
            j = int(np.searchsorted(self.nbr[r, :d], o))
            if j < d and self.nbr[r, j] == o:
                raise ValueError(f"rows {a} and {b} are already connected")
            self.nbr[r, j + 1 : d + 1] = self.nbr[r, j:d].copy()
            self.r_prev_e[r, j + 1 : d + 1] = self.r_prev_e[r, j:d].copy()
            self.r_cur_e[r, j + 1 : d + 1] = self.r_cur_e[r, j:d].copy()
            self.nbr[r, j] = o
            self.r_prev_e[r, j] = 0.0
            self.r_cur_e[r, j] = 0.0
            self.deg[r] = d + 1

    def neighbors(self, row: int) -> np.ndarray:
        """Live neighbour rows of ``row``, sorted ascending."""
        return self.nbr[row, : int(self.deg[row])]

    def edge_index(self, row: int, other: int) -> int:
        """Position of ``other`` in ``row``'s edge list (they must be
        connected)."""
        d = int(self.deg[row])
        j = int(np.searchsorted(self.nbr[row, :d], other))
        if j >= d or self.nbr[row, j] != other:
            raise KeyError(f"rows {row} and {other} are not connected")
        return j

    # ----- removal ------------------------------------------------------------

    def _compact_links(self, keep: np.ndarray) -> None:
        """Drop edges into dead rows: surviving edges left-shift stably
        (original order preserved) and their targets are remapped; the
        remap is monotone, so sorted adjacency rows stay sorted."""
        n = keep.size
        m = int(keep.sum())
        remap = np.full(n, -1, dtype=np.int32)
        remap[keep] = np.arange(m, dtype=np.int32)
        A = self.nbr[:n]
        valid = A >= 0
        safe = np.where(valid, A, 0)
        keep_edge = valid & keep[safe]
        order = np.argsort(~keep_edge, axis=1, kind="stable")
        A2 = np.take_along_axis(A, order, axis=1)
        rp = np.take_along_axis(self.r_prev_e[:n], order, axis=1)
        rc = np.take_along_axis(self.r_cur_e[:n], order, axis=1)
        new_deg = keep_edge.sum(axis=1, dtype=np.int32)
        live = np.arange(A.shape[1], dtype=np.int32)[None, :] < new_deg[:, None]
        A2 = np.where(live, remap[np.where(live, A2, 0)], -1)
        self.nbr[:n] = A2
        self.r_prev_e[:n] = np.where(live, rp, 0.0)
        self.r_cur_e[:n] = np.where(live, rc, 0.0)
        self.deg[:n] = new_deg

    # ----- round bookkeeping --------------------------------------------------

    def rollover(self) -> None:
        """Close the round: this round's received tallies become last
        round's, and the in-flight chunk sets clear."""
        n = self.n
        self.r_prev_e, self.r_cur_e = self.r_cur_e, self.r_prev_e
        self.r_cur_e[:n] = 0.0
        super().rollover()

    def set_owned(self, row: int, chunk: int) -> None:
        """Flip one ownership bit (bool row, packed shadow, count)."""
        super().set_owned(row, chunk)
        self.own_packed[row, chunk >> 6] |= self._bit[chunk]

    def repack_row(self, row: int) -> None:
        """Recompute the packed shadow and count from ``own[row]`` (used
        when a whole bitmap is loaded at once, e.g. shard migration)."""
        words = np.zeros(self.n_words, dtype=np.uint64)
        idx = np.nonzero(self.own[row])[0]
        np.bitwise_or.at(words, idx >> 6, self._bit[idx])
        self.own_packed[row] = words
        self.n_owned[row] = idx.size

    # ----- per-peer reconstruction (views / snapshots) ------------------------

    def received_dict(self, row: int, *, prev: bool) -> dict[int, float]:
        """Per-uploader received bytes (chunk of the tit-for-tat signal)."""
        mat = self.r_prev_e if prev else self.r_cur_e
        d = int(self.deg[row])
        vals = mat[row, :d]
        cols = np.nonzero(vals > 0)[0]
        nbrs = self.nbr[row, :d]
        return {int(self.peer_id[nbrs[j]]): float(vals[j]) for j in cols}

    # ----- introspection ------------------------------------------------------

    def nbytes(self) -> int:
        """Bytes held by the store's NumPy arrays (allocated capacity).

        The Python-side partial dicts and active sets are excluded; they
        hold O(upload slots) entries per peer and are not what dominates
        at scale.
        """
        return sum(getattr(self, name).nbytes for name, _ in self._ROWS)
