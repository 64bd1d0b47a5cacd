"""Structure-of-arrays state for the array chunk engines.

Both engines of :mod:`repro.chunks.swarm` keep every per-peer quantity of
a swarm as contiguous NumPy rows, one row per peer.  :class:`_PeerRows`
holds what the two stores share -- the per-peer vectors, the P x C
ownership and offer matrices, the partial-chunk state, and everything
that treats rows uniformly (add-time validation and zeroing, capacity
doubling, order-preserving compaction, the shrink policy, the round
rollover) -- and each store adds its own peer-to-peer state on top:

* ``own`` -- the P x C boolean ownership matrix (one row per peer, one
  column per chunk).  The dense interest step is one matmul over it.
* ``offered`` -- P x C int32 per-uploader offer counts (super-seeding
  picks the least-offered piece).
* ``partials`` / ``active`` -- one Python dict and one set per row,
  exactly as the scalar oracle keeps them: ``chunk -> [done, credit_dl,
  credit_seed]`` (work units received, split by uploader kind and banked
  as "useful" on chunk completion) in creation order, and the chunks some
  link is pumping to the row this round (cleared at round end).  A peer
  holds O(upload slots) partials, so dicts beat P x C matrices by orders
  of magnitude at scale, and their insertion order *is* the oracle's
  resume tie-break (oldest partial wins) and write-off order.
* ``recv_total_prev`` / ``recv_total_cur`` -- per-receiver running totals
  of received bytes, accumulated link by link in transfer order so they
  stay bit-identical to the scalar engine's ``sum(dict.values())`` (which
  also sees uploaders in first-contribution order).  They *include* bytes
  from uploaders that have since left the swarm, whose tit-for-tat
  entries are compacted away.

:class:`ChunkStore` (the dense engine's) adds the P x P received-bytes
matrices ``r_prev`` / ``r_cur`` driving the tit-for-tat ranking:
``r_cur[receiver, uploader]`` accumulates this round and rolls into
``r_prev`` at round end.

Rows are kept **in peer-insertion order** (peer ids are assigned
monotonically, so row order == ascending id order).  This is load-bearing:
the scalar engine iterates its peer dict in insertion order, and RNG-draw
equivalence requires candidate lists to be presented in exactly that
order.  Removal therefore *compacts* (stable order-preserving shift, both
axes for the P x P matrices) rather than swap-removing; removals are rare
(churn events, at most O(peers) per run) while rounds are many, so the
O(P^2) compaction is off the hot path.

Capacity grows by doubling and shrinks when a compaction leaves fewer
than a quarter of the allocation live (the P x P matrices dominate, so a
mass departure would otherwise pin peak memory forever); :meth:`add`
zeroes the row it hands out, so rows freed by a compaction can be reused
without leaking stale state.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ChunkStore"]

_NAN = float("nan")


class _PeerRows:
    """Row bookkeeping shared by :class:`ChunkStore` and
    :class:`repro.chunks.sparse_store.SparseChunkStore`.

    Every array whose first axis is the peer row is named in ``_ROWS``
    with the value a fresh row holds; :meth:`add`, :meth:`_resize` and
    :meth:`compact` treat them all alike, so a store lists its own
    row-major arrays there and extends these methods only for state that
    is not one row per peer.  The per-row ``partials`` dicts and
    ``active`` sets are Python lists kept in step with the rows.
    """

    _ROWS: tuple[tuple[str, object], ...] = (
        ("own", False),
        ("offered", 0),
        ("recv_total_prev", 0.0),
        ("recv_total_cur", 0.0),
        ("peer_id", 0),
        ("joined_at", 0.0),
        ("finished_at", _NAN),
        ("initially_seed", False),
        ("uploaded_useful", 0.0),
        ("rotation_cursor", 0),
        ("n_owned", 0),
    )

    def __init__(self, n_chunks: int, capacity: int):
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.n_chunks = int(n_chunks)
        self.n = 0
        self._cap = int(capacity)
        #: peer id -> row index (rows stay in insertion == id order)
        self.row_of: dict[int, int] = {}
        c = self._cap
        self.own = np.zeros((c, self.n_chunks), dtype=bool)
        self.offered = np.zeros((c, self.n_chunks), dtype=np.int32)
        #: chunk -> [done, credit_downloader, credit_seed], creation order
        self.partials: list[dict[int, list[float]]] = []
        #: chunks some link is pumping this round (cleared at rollover)
        self.active: list[set[int]] = []
        self.recv_total_prev = np.zeros(c, dtype=np.float64)
        self.recv_total_cur = np.zeros(c, dtype=np.float64)
        self.peer_id = np.zeros(c, dtype=np.int64)
        self.joined_at = np.zeros(c, dtype=np.float64)
        self.finished_at = np.full(c, _NAN, dtype=np.float64)
        self.initially_seed = np.zeros(c, dtype=bool)
        self.uploaded_useful = np.zeros(c, dtype=np.float64)
        self.rotation_cursor = np.zeros(c, dtype=np.int64)
        self.n_owned = np.zeros(c, dtype=np.int64)

    # ----- membership ---------------------------------------------------------

    def add(self, peer_id: int, *, is_seed: bool, joined_at: float) -> int:
        """Append a peer row (zeroed) and return its index.

        ``peer_id`` must exceed every id ever added -- rows double as the
        insertion order the round kernels rely on.
        """
        if self.n and peer_id <= int(self.peer_id[self.n - 1]):
            raise ValueError(
                f"peer ids must be strictly increasing (got {peer_id} after "
                f"{int(self.peer_id[self.n - 1])})"
            )
        if self.n == self._cap:
            self._resize(max(2 * self._cap, 16))
        row = self.n
        self.n += 1
        for name, fresh in self._ROWS:
            getattr(self, name)[row] = fresh
        self.peer_id[row] = peer_id
        self.joined_at[row] = joined_at
        if is_seed:
            self.own[row] = True
            self.finished_at[row] = joined_at
            self.initially_seed[row] = True
            self.n_owned[row] = self.n_chunks
        self.partials.append({})
        self.active.append(set())
        self.row_of[peer_id] = row
        return row

    def _resize(self, new_cap: int) -> None:
        """Reallocate every row-indexed array to ``new_cap`` rows, keeping
        the live ones.  Spare rows stay untouched zero pages until
        :meth:`add` hands them out (and writes their fresh values)."""
        n = self.n
        assert new_cap >= n
        for name, _ in self._ROWS:
            old = getattr(self, name)
            arr = np.zeros((new_cap,) + old.shape[1:], dtype=old.dtype)
            arr[:n] = old[:n]
            setattr(self, name, arr)
        self._cap = new_cap

    def compact(self, drop_rows: list[int]) -> None:
        """Remove ``drop_rows``, shifting later rows down (order-preserving).

        The per-receiver ``recv_total_*`` entries of the *surviving* peers
        are carried over untouched, deliberately keeping contributions from
        the dropped uploaders (the scalar engine's per-peer dicts behave the
        same way: a departed uploader's bytes still count in
        ``sum(values())``).
        """
        if not drop_rows:
            return
        n = self.n
        keep = np.ones(n, dtype=bool)
        keep[np.asarray(drop_rows, dtype=np.intp)] = False
        m = int(keep.sum())
        if m == n:
            return
        for pid in self.peer_id[:n][~keep]:
            del self.row_of[int(pid)]
        self._compact_links(keep)
        for name, _ in self._ROWS:
            arr = getattr(self, name)
            arr[:m] = arr[:n][keep]
        self.partials = [p for p, k in zip(self.partials, keep) if k]
        self.active = [a for a, k in zip(self.active, keep) if k]
        self.n = m
        for row, pid in enumerate(self.peer_id[:m]):
            self.row_of[int(pid)] = row
        # Mass departures (seed_stays=False endgames, churn storms) can
        # leave a huge allocation nearly empty; reclaim once under a
        # quarter is live.  The floor and the half-capacity target keep
        # hysteresis: a shrink is immediately followed by neither another
        # shrink nor a grow.
        if self._cap > 16 and m < self._cap // 4:
            new_cap = self._cap
            while new_cap > 16 and m < new_cap // 4:
                new_cap //= 2
            self._resize(max(new_cap, 16))

    def _compact_links(self, keep: np.ndarray) -> None:
        """Drop the peer-to-peer state of the rows ``keep`` rejects, before
        the row arrays shift (rows still carry their old indices)."""

    # ----- round bookkeeping --------------------------------------------------

    def rollover(self) -> None:
        """Close the round: this round's received totals become last
        round's, and the in-flight chunk sets clear."""
        self.recv_total_prev, self.recv_total_cur = (
            self.recv_total_cur,
            self.recv_total_prev,
        )
        self.recv_total_cur[: self.n] = 0.0
        for chunks in self.active:
            chunks.clear()

    def set_owned(self, row: int, chunk: int) -> None:
        """Flip one ownership bit (and the row's owned count)."""
        self.own[row, chunk] = True
        self.n_owned[row] += 1

    # ----- per-peer reconstruction (views / snapshots) ------------------------

    def partials_dict(self, row: int) -> dict[int, list[float]]:
        """``chunk -> [done, credit_downloader, credit_seed]`` in creation
        order (a copy).

        The order is the scalar engine's dict-insertion order, which the
        resume tie-break and the engines' write-offs into ``wasted_bytes``
        depend on.
        """
        return {c: list(entry) for c, entry in self.partials[row].items()}

    def active_chunk_set(self, row: int) -> set[int]:
        """Chunks some link is pumping to ``row`` this round."""
        return set(self.active[row])

    def clear_partials(self, row: int) -> None:
        self.partials[row].clear()


class ChunkStore(_PeerRows):
    """Array-backed state for one dense chunk-level swarm."""

    def __init__(self, n_chunks: int, *, capacity: int = 16):
        super().__init__(n_chunks, capacity)
        c = self._cap
        self.r_prev = np.zeros((c, c), dtype=np.float64)
        self.r_cur = np.zeros((c, c), dtype=np.float64)

    def add(self, peer_id: int, *, is_seed: bool, joined_at: float) -> int:
        row = super().add(peer_id, is_seed=is_seed, joined_at=joined_at)
        n = self.n
        for arr in (self.r_prev, self.r_cur):
            arr[row, :n] = 0.0
            arr[:n, row] = 0.0
        return row

    def _resize(self, new_cap: int) -> None:
        super()._resize(new_cap)
        n = self.n
        for name in ("r_prev", "r_cur"):
            old = getattr(self, name)
            arr = np.zeros((new_cap, new_cap), dtype=np.float64)
            arr[:n, :n] = old[:n, :n]
            setattr(self, name, arr)

    def _compact_links(self, keep: np.ndarray) -> None:
        # both axes of the received matrices
        m = int(keep.sum())
        n = keep.size
        for arr in (self.r_prev, self.r_cur):
            arr[:m, :m] = arr[:n, :n][np.ix_(keep, keep)]

    # ----- round bookkeeping --------------------------------------------------

    def rollover(self) -> None:
        """Close the round: this round's received tallies become last round's."""
        n = self.n
        self.r_prev, self.r_cur = self.r_cur, self.r_prev
        self.r_cur[:n, :n] = 0.0
        super().rollover()

    # ----- per-peer reconstruction (views / snapshots) ------------------------

    def received_dict(self, row: int, *, prev: bool) -> dict[int, float]:
        """Per-uploader received bytes (chunk of the tit-for-tat signal)."""
        mat = self.r_prev if prev else self.r_cur
        vals = mat[row, : self.n]
        cols = np.nonzero(vals > 0)[0]
        return {int(self.peer_id[c]): float(vals[c]) for c in cols}
