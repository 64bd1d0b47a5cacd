"""Round-based chunk-level swarm engines, vectorised.

Same model as the scalar oracle (:mod:`repro.chunks.reference`) -- each
round runs interest, choking, transfer, completion -- with the per-peer
dict/bitmap state in a structure-of-arrays store.  Two engines run that
round: the dense :class:`ChunkSwarm` here (full mixing, a
:class:`repro.chunks.store.ChunkStore`) and the bounded-degree
:class:`repro.chunks.sparse.SparseChunkSwarm` (a
:class:`repro.chunks.sparse_store.SparseChunkStore`).  They share one
round: :class:`_RoundEngine` holds the accounting, membership, the one
departure path (churn, completions, shard emigration), the seed policies
and tit-for-tat choking, local rarest-first picking, transfer, the round
loop and ``run``.  Each engine adds only its store and kernels --
interest, how choke columns map to peer rows, the last-round bytes
aligned with the interest matrix, the per-link tit-for-tat credit, and
(sparse only) what rarest-first counts.  The dense kernels and the shared
ones:

* **Interest** is one boolean matmul over the P x C ownership matrix:
  ``interest[u, d] = (own[u] & ~own[d]).any()`` via
  ``own @ (1 - own).T > 0`` -- the scalar engine's P^2 bitmap scans
  collapse into a single BLAS call.
* **Tit-for-tat choking** ranks every downloader row in one pass
  (``_RoundEngine._choke``): the regular slots come from the few peers
  that uploaded to the row last round -- the positive entries of the
  received-bytes matrix, sorted by bytes then column -- topped up with
  the row's first interested columns, and the optimistic slot is the
  j-th remaining interested column, located through a rank/select index
  over the packed interest rows.  Only the RNG draws stay per row, in row
  order; the seed policies keep their per-row code and read a
  rotation-cursor array, the per-receiver received totals, or draw from
  the RNG exactly as the scalar engine does.
* **Local rarest first** (shared) runs on round-local row bitsets: the
  transfer phase packs the ownership rows and the keys of each row's
  partial dict into one Python ``int`` per peer (bit i = chunk i), so a
  pick's masks are integer ``&``/``~`` ops -- an empty candidate set
  (most calls) is one int test -- and the tie-breaks and rarest filter
  run over the ascending index lists of the set bits.  A resume tie goes
  to the first entry of the row's partial dict with the largest ``done``,
  the oldest partial, as in the scalar engine.  The store stays the only
  state between rounds.
* **Transfer accounting** (shared) writes the row's partial dict and
  active set exactly as the scalar engine does, flips the receiver's bits
  beside each write, and hands each link's bytes to the engine's
  tit-for-tat credit (here the P x P received matrix).

The engines are **bit-for-bit equivalent** to the reference: every RNG
call site fires in the same order with the same population sizes (so the
underlying ``Generator`` state evolves identically), candidate lists are
presented in the scalar engine's dict-insertion order (store rows are kept
in insertion == ascending-id order; see ``ChunkStore``), and every float
accumulator is updated in the same sequence, so not just the statistics
but the exact download times, eta numerators/denominators and history
tuples match.  ``tests/chunks/test_vector_equivalence.py`` pins this
across seeds, unchoke policies and super-seeding.

Per-round obs metrics (``chunks.rounds``, ``chunks.kernel.*`` timers,
link/pick counters) flow into :mod:`repro.obs` when a registry is
installed and cost nothing otherwise.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.chunks.config import ChunkSwarmConfig
from repro.chunks.peer import ChunkPeerView
from repro.chunks.store import ChunkStore, _PeerRows
from repro.obs import current_registry

__all__ = ["ChunkSwarm"]

#: what ``_choke`` counts per round: downloader rows ranked by tit-for-tat,
#: optimistic draws, and seed rows run through ``config.seed_unchoke``
_CHOKE_COUNTERS = (
    "chunks.kernel.choke.ranked_rows",
    "chunks.kernel.choke.optimistic_draws",
    "chunks.kernel.choke.seed_policy_rows",
)


def _pack_rows(mask: np.ndarray) -> list[int]:
    """One Python ``int`` per row of a boolean matrix; bit i = column i."""
    packed = np.packbits(mask, axis=1, bitorder="little")
    width = packed.shape[1]
    buf = packed.tobytes()
    return [
        int.from_bytes(buf[i : i + width], "little")
        for i in range(0, len(buf), width)
    ]


def _bit_indices(bits: int) -> list[int]:
    """Positions of the set bits of a non-negative ``bits``, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


#: set bits per byte value, and the position of each byte value's t-th set
#: bit (bit 0 first, as ``np.packbits(..., bitorder="little")`` lays out)
_POP8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)
_SELECT8 = np.array(
    [[([b for b in range(8) if v >> b & 1] + [0] * 8)[t] for t in range(8)]
     for v in range(256)],
    dtype=np.uint8,
)


class _RankSelect:
    """Rank and select over the True entries of each row of a boolean
    matrix, vectorised over queries: the rows are packed into bytes and a
    per-row running count of set bits locates any entry in two lookups."""

    def __init__(self, mask: np.ndarray):
        self.packed = np.packbits(mask, axis=1, bitorder="little")
        pop = _POP8[self.packed]
        #: set bits in bytes ``0..b`` of each row
        self.through = np.cumsum(pop, axis=1, dtype=np.int32)
        self.count = pop.sum(axis=1, dtype=np.int64)

    def _before(self, rows: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Set bits in bytes ``0..b-1`` of each row."""
        return self.through[rows, b] - _POP8[self.packed[rows, b]]

    def rank(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """How many True entries precede column ``cols`` in row ``rows``."""
        b = cols >> 3
        below = ((1 << (cols & 7)) - 1).astype(np.uint8)
        return self._before(rows, b) + _POP8[self.packed[rows, b] & below]

    def select(self, rows: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """Column of the ``ks``-th True entry (0-based) of row ``rows``."""
        b = (self.through[rows] <= ks[:, None]).sum(axis=1)
        return (b << 3) + _SELECT8[self.packed[rows, b], ks - self._before(rows, b)]


def _run_positions(rows: np.ndarray) -> np.ndarray:
    """Position of each entry within its run of equal values (``rows``
    sorted ascending)."""
    return np.arange(rows.size) - np.searchsorted(rows, rows)


def _skip_taken(taken: np.ndarray, js: np.ndarray) -> np.ndarray:
    """The ``js``-th non-negative integer missing from each row of ``taken``
    (one row per entry of ``js``)."""
    out = js.astype(np.int64)
    for ranks in np.sort(taken, axis=1).T:
        out += ranks <= out
    return out


class _RoundEngine:
    """The engine-independent part of a chunk round (see the module doc).

    Subclasses supply the store and the kernels: ``_interest``,
    ``_neighbor_rows``, ``_received_last_round`` and ``_credit`` (the
    link's tit-for-tat tally), optionally ``_pick_availability`` (what
    rarest-first counts) and the membership hooks ``_joined``,
    ``_completed`` and ``_departed``.
    """

    def __init__(self, config: ChunkSwarmConfig, store: _PeerRows, seed: int):
        self.config = config
        #: the work units of one chunk (fixed for the swarm's life)
        self._chunk_size = config.chunk_size
        self.rng = np.random.default_rng(seed)
        self.store = store
        #: peer id -> live row view, in insertion order (== store row order)
        self.peers: dict[int, ChunkPeerView] = {}
        self.now = 0.0
        self.rounds_run = 0
        self._next_id = 0
        #: work units uploaded by peers while *downloaders*, and the
        #: capacity they had available in that time (the eta numerator
        #: and denominator).  "Useful" is credited when a chunk completes;
        #: unfinished partials of departing peers accrue to ``wasted_bytes``.
        self.downloader_useful = 0.0
        self.downloader_capacity = 0.0
        self.seed_useful = 0.0
        self.seed_capacity = 0.0
        self.wasted_bytes = 0.0
        #: per-round records (t_end, dl_useful, dl_capacity, seed_useful,
        #: seed_capacity, n_downloaders, n_seeds) for time-varying analyses
        self.history: list[tuple[float, float, float, float, float, int, int]] = []
        self._round_picks = 0

    # ----- membership ---------------------------------------------------------

    def add_peer(self, *, is_seed: bool = False) -> ChunkPeerView:
        pid = self._next_id
        self._next_id += 1
        row = self.store.add(pid, is_seed=is_seed, joined_at=self.now)
        self._joined(pid, row, is_seed)
        view = ChunkPeerView(self.store, pid)
        self.peers[pid] = view
        return view

    def add_peers(self, n: int, *, is_seed: bool = False) -> list[ChunkPeerView]:
        return [self.add_peer(is_seed=is_seed) for _ in range(n)]

    def remove_peer(self, peer_id: int) -> ChunkPeerView:
        """Remove a peer (churn); its unfinished partials become waste."""
        return self._depart([self._row(peer_id)])[0]

    def _row(self, peer_id: int) -> int:
        try:
            return self.store.row_of[peer_id]
        except KeyError:
            raise KeyError(f"no peer {peer_id} in the swarm") from None

    def _write_off(self, row: int) -> None:
        """Book ``row``'s unfinished partials as waste, in creation order."""
        st = self.store
        for done, _, _ in st.partials[row].values():
            self.wasted_bytes += done
        st.clear_partials(row)

    def _depart(
        self, rows: list[int], *, write_off: bool = True
    ) -> list[ChunkPeerView]:
        """Remove ``rows``: write off their partials (or just drop them when
        the caller carries them away), detach their views, compact the
        store, then tell the engine who left."""
        st = self.store
        views = []
        for row in rows:
            if write_off:
                self._write_off(row)
            else:
                st.clear_partials(row)
            view = self.peers.pop(int(st.peer_id[row]))
            view.detach()
            views.append(view)
        st.compact(rows)
        self._departed([view.peer_id for view in views])
        return views

    def _joined(self, peer_id: int, row: int, is_seed: bool) -> None:
        """A peer took store row ``row``."""

    def _completed(self, rows: list[int]) -> None:
        """``rows`` finished their download this round (before departures)."""

    def _departed(self, peer_ids: list[int]) -> None:
        """``peer_ids`` left the swarm (the store is already compacted)."""

    @property
    def downloaders(self) -> list[ChunkPeerView]:
        st = self.store
        done = st.n_owned[: st.n] == st.n_chunks
        return [
            self.peers[int(pid)]
            for pid, is_done in zip(st.peer_id[: st.n], done)
            if not is_done
        ]

    @property
    def seeds(self) -> list[ChunkPeerView]:
        st = self.store
        done = st.n_owned[: st.n] == st.n_chunks
        return [
            self.peers[int(pid)]
            for pid, is_done in zip(st.peer_id[: st.n], done)
            if is_done
        ]

    @property
    def all_done(self) -> bool:
        st = self.store
        return bool((st.n_owned[: st.n] == st.n_chunks).all())

    def availability(self) -> np.ndarray:
        """How many (local) peers own each chunk (drives rarest-first)."""
        return self.store.own[: self.store.n].sum(axis=0, dtype=int)

    # ----- choking ------------------------------------------------------------

    def _seed_rows(self, u: int, cols: np.ndarray) -> list[int]:
        """Rows seed ``u`` serves this round under ``config.seed_unchoke``.

        ``cols`` are the interested entries of ``u``'s interest row (see
        ``_interest``), ascending, i.e. in the oracle's insertion order.
        """
        cfg = self.config
        st = self.store
        irows = self._neighbor_rows(u, cols)
        k = min(cfg.total_slots, irows.size)
        policy = cfg.seed_unchoke
        if policy == "round_robin":
            start = int(st.rotation_cursor[u]) % irows.size
            st.rotation_cursor[u] = start + k
            return irows[(start + np.arange(k)) % irows.size].tolist()
        if policy == "fastest":
            order = np.argsort(-st.recv_total_prev[irows], kind="stable")
            return irows[order[:k]].tolist()
        return self.rng.choice(irows, size=k, replace=False).tolist()

    def _choke(
        self, interest: np.ndarray, lo: int = 0
    ) -> tuple[list[list[int]], tuple[int, int, int]]:
        """Whom each of the rows ``lo, lo + 1, ...`` serves this round.

        ``interest`` holds those rows of ``_interest``.  Returns one list
        of served peer rows per row (regular slots first, then the
        optimistic ones) and the ``_CHOKE_COUNTERS`` tallies.

        A downloader ranks its interested columns by the bytes it received
        over them last round, stably: the columns with positive bytes in
        descending order (ties by column), then the zero columns in
        ascending order.  So the ``n_upload_slots`` regular slots need only
        the sparse positives plus the first few interested columns, and
        everything works in *rank space* -- a column's position among its
        row's interested columns -- through one rank/select index over the
        packed interest rows.  RNG draws still fire per row, in row order,
        with the oracle's population sizes: a seed row runs its policy
        (``_seed_rows``), a downloader draws ``rng.integers(len(rest))``,
        the same stream as the oracle's ``rng.choice(rest, size=1,
        replace=False)``, or ``rng.choice(len(rest), size=k,
        replace=False)`` for ``k > 1`` optimistic slots (pinned by
        tests/chunks/test_rng_draws.py).
        """
        cfg = self.config
        st = self.store
        rng = self.rng
        slots = cfg.n_upload_slots
        m = interest.shape[0]
        index = _RankSelect(interest)
        cnt = index.count
        is_dl = st.n_owned[lo : lo + m] < st.n_chunks
        ranked = is_dl & (cnt > 0)

        # Regular slots: each row's interested positive columns by (bytes
        # descending, column), topped up with its first zero columns.
        recv = self._received_last_round(st.n)[lo : lo + m]
        # (a 1-D nonzero over a bool mask is several times a 2-D one)
        pr, pc = np.divmod(np.flatnonzero(recv > 0), recv.shape[1])
        keep = ranked[pr] & interest[pr, pc]
        pr, pc = pr[keep], pc[keep]
        order = np.lexsort((pc, -recv[pr, pc], pr))
        pr, pc = pr[order], pc[order]
        slot = _run_positions(pr)
        top = slot < slots
        pr, pc, slot = pr[top], pc[top], slot[top]
        # regular ranks per row, padded with a rank no row reaches
        reg = np.full((m, slots), np.iinfo(np.int64).max, dtype=np.int64)
        reg[pr, slot] = index.rank(pr, pc)
        # a row with free slots has all its positives in ``reg``, so its
        # zero columns are exactly the ranks ``reg`` leaves out
        n_top = np.bincount(pr, minlength=m)
        n_fill = np.where(ranked, np.minimum(slots, cnt) - n_top, 0)
        fill_rows = np.repeat(np.arange(m), n_fill)
        fill_slot = _run_positions(fill_rows)
        fill_rank = _skip_taken(reg[fill_rows], fill_slot)
        fill_slot += n_top[fill_rows]
        reg[fill_rows, fill_slot] = fill_rank

        # Per-row RNG, in row order: seed policies and optimistic draws of
        # the j-th interested column outside the regular slots.
        opt = cfg.optimistic_slots
        rest = np.where(ranked, cnt - np.minimum(slots, cnt), 0)
        drawing = (rest > 0) & (opt > 0)
        seeds = ~is_dl & (cnt > 0)
        served: dict[int, list[int]] = {}
        draw_rows: list[int] = []
        draws: list[int] = []
        is_seed = seeds.tolist()
        sizes = rest.tolist()
        for u in np.flatnonzero(seeds | drawing).tolist():
            if is_seed[u]:
                served[u] = self._seed_rows(lo + u, np.flatnonzero(interest[u]))
            elif opt == 1:
                draw_rows.append(u)
                draws.append(rng.integers(sizes[u]))
            else:
                k = min(opt, sizes[u])
                draw_rows.extend([u] * k)
                draws.extend(rng.choice(sizes[u], size=k, replace=False))
        opt_rows = np.asarray(draw_rows, dtype=np.intp)
        opt_rank = _skip_taken(reg[opt_rows], np.asarray(draws, dtype=np.int64))
        opt_slot = slots + _run_positions(opt_rows)

        rows = np.concatenate((pr, fill_rows, opt_rows))
        cols = np.concatenate(
            (
                pc,
                index.select(fill_rows, fill_rank),
                index.select(opt_rows, opt_rank),
            )
        )
        order = np.lexsort((np.concatenate((slot, fill_slot, opt_slot)), rows))
        rows = rows[order]
        flat = self._neighbor_rows(lo + rows, cols[order]).tolist()
        out: list[list[int]] = []
        at = 0
        for u, k in enumerate(np.bincount(rows, minlength=m).tolist()):
            out.append(served[u] if u in served else flat[at : at + k])
            at += k
        return out, (int(ranked.sum()), int(drawing.sum()), len(served))

    def _select_unchoked(self, uploader: ChunkPeerView) -> list[int]:
        """Whom ``uploader`` serves this round (peer ids)."""
        st = self.store
        u = st.row_of[uploader.peer_id]
        served = self._choke(self._interest(st.n)[u : u + 1], u)[0][0]
        return [int(pid) for pid in st.peer_id[served]]

    # ----- picking and transfer -----------------------------------------------

    def _pick_availability(self) -> np.ndarray:
        """Per-chunk counts rarest-first ranks by (local ownership)."""
        return self.availability()

    def _pick_state(self, n: int) -> tuple:
        """Round-local row bitsets (bit i = chunk i) mirroring the ownership,
        live-partial and active state for the pick loop, plus per-chunk
        availability; ``_transfer`` updates them beside the store.
        ``rollover`` emptied the active sets at the end of the last round."""
        part_bits = [0] * n
        for r, partials in enumerate(self.store.partials[:n]):
            for chunk in partials:
                part_bits[r] |= 1 << chunk
        return (
            _pack_rows(self.store.own[:n]),
            part_bits,
            [0] * n,
            self._pick_availability().tolist(),
        )

    def _pick_chunk(self, r: int, u: int, state: tuple) -> int | None:
        """Local rarest first among needed, offered, not-in-flight chunks.

        Bitset port of the reference ``_pick_chunk`` over the round-local
        row bitsets (see ``_pick_state``); consumes the RNG at exactly the
        same call sites with the same population sizes.
        """
        own_bits, part_bits, act_bits, avail = state
        candidates = own_bits[u] & ~own_bits[r]
        if not candidates:
            return None
        st = self.store
        part = part_bits[r]
        act = act_bits[r]
        # Resume a partial chunk first (block re-request from anyone),
        # preferring the most-complete one; ties go to the oldest partial
        # (the first in the row's dict, like the scalar engine's ``max``).
        resumable = candidates & part & ~act
        if resumable:
            if not resumable & (resumable - 1):
                return resumable.bit_length() - 1
            best = -1
            most = -1.0
            for chunk, entry in st.partials[r].items():
                if resumable >> chunk & 1 and entry[0] > most:
                    best, most = chunk, entry[0]
            return best
        fresh = candidates & ~(act | part)
        # Endgame mode: with no fresh chunk left, join an actively
        # transferring one rather than idle the link (block-level
        # parallelism, no byte duplication in this model's granularity).
        idx = _bit_indices(fresh or candidates)
        if self.config.super_seeding and st.initially_seed[u]:
            # Super-seeding: the origin doles out its least-offered pieces
            # first, maximising diversity during the bootstrap.
            offered_u = st.offered[u]
            offers = [offered_u[c] for c in idx]
            least = min(offers)
            idx = [c for c, o in zip(idx, offers) if o == least]
        if self.config.piece_selection == "in_order":
            # Streaming policy: lowest index first (sequential playback).
            rarest = idx[:1]
        else:
            rarity = [avail[c] for c in idx]
            least = min(rarity)
            rarest = [c for c, a in zip(idx, rarity) if a == least]
        # Same stream as ``rng.choice(rarest)``, without its overhead
        # (pinned by tests/chunks/test_rng_draws.py).
        chunk = rarest[self.rng.integers(len(rarest))]
        st.offered[u, chunk] += 1
        return chunk

    def _transfer(
        self,
        u: int,
        r: int,
        amount: float,
        state: tuple,
        *,
        uploader_is_downloader: bool,
    ) -> float:
        """Move up to ``amount`` work units across one unchoked link.

        Returns the raw bytes moved.  Usefulness is credited per completed
        chunk: the link that finishes a chunk banks its accumulated bytes
        into the downloader/seed useful counters.  The row's partial dict
        and active set are written exactly as the scalar engine updates
        its own (same float ops in the same order); the round-local
        bitsets of ``r`` (``state``, see ``_pick_state``) follow each
        write.
        """
        own_bits, part_bits, act_bits, avail = state
        st = self.store
        chunk_size = self._chunk_size
        threshold = chunk_size - 1e-15
        partials = st.partials[r]
        active = st.active[r]
        picks = 0
        sent = 0.0
        while amount > 1e-15:
            chunk = self._pick_chunk(r, u, state)
            if chunk is None:
                break  # nothing useful to send
            picks += 1
            bit = 1 << chunk
            entry = partials.get(chunk)
            if entry is None:
                entry = partials[chunk] = [0.0, 0.0, 0.0]
                part_bits[r] |= bit
            active.add(chunk)
            act_bits[r] |= bit
            need = chunk_size - entry[0]
            step = need if need < amount else amount
            entry[0] += step
            amount -= step
            sent += step
            if uploader_is_downloader:
                entry[1] += step
            else:
                entry[2] += step
            st.uploaded_useful[u] += step
            if entry[0] >= threshold:
                st.set_owned(r, chunk)
                own_bits[r] |= bit
                avail[chunk] += 1
                self.downloader_useful += entry[1]
                self.seed_useful += entry[2]
                del partials[chunk]
                active.discard(chunk)
                part_bits[r] &= ~bit
                act_bits[r] &= ~bit
        self._round_picks += picks
        if sent > 0:
            # Tit-for-tat ranks by transfer effort, duplicates and all.
            self._credit(r, u, sent)
        return sent

    # ----- the round ----------------------------------------------------------

    def run_round(self) -> None:
        """Advance the swarm by one choking round."""
        cfg = self.config
        st = self.store
        reg = current_registry()
        obs = reg.enabled
        n = st.n
        C = cfg.n_chunks

        t0 = time.perf_counter() if obs else 0.0
        interest = self._interest(n)
        if obs:
            t1 = time.perf_counter()
            reg.observe("chunks.kernel.interest", t1 - t0)

        n_owned = st.n_owned
        was_dl = n_owned[:n] < C
        receivers_per, choke_counts = self._choke(interest)
        if obs:
            t2 = time.perf_counter()
            reg.observe("chunks.kernel.choke", t2 - t1)
            for name, value in zip(_CHOKE_COUNTERS, choke_counts):
                reg.inc(name, value)

        round_start = (
            self.downloader_useful,
            self.downloader_capacity,
            self.seed_useful,
            self.seed_capacity,
        )
        n_downloaders = int(was_dl.sum())
        n_seeds = n - n_downloaders
        budget = cfg.upload_rate * cfg.round_length
        completions: list[int] = []
        fin = st.finished_at
        recv_total_cur = st.recv_total_cur
        n_links = 0
        self._round_picks = 0
        state = self._pick_state(n)
        for u in range(n):
            u_is_dl = bool(was_dl[u])
            if u_is_dl:
                self.downloader_capacity += budget
            else:
                self.seed_capacity += budget
            receivers = receivers_per[u]
            if not receivers:
                continue
            n_links += len(receivers)
            per_link = budget / len(receivers)
            for r in receivers:
                sent = self._transfer(
                    u, r, per_link, state, uploader_is_downloader=u_is_dl
                )
                if sent > 0:
                    recv_total_cur[r] += sent
                if n_owned[r] == C and math.isnan(fin[r]):
                    completions.append(r)
        self.now += cfg.round_length
        self.rounds_run += 1
        self.history.append(
            (
                self.now,
                self.downloader_useful - round_start[0],
                self.downloader_capacity - round_start[1],
                self.seed_useful - round_start[2],
                self.seed_capacity - round_start[3],
                n_downloaders,
                n_seeds,
            )
        )
        finished: list[int] = []
        for r in completions:
            if math.isnan(fin[r]):  # several links may complete r: once only
                fin[r] = self.now
                finished.append(r)
        if finished:
            self._completed(finished)
            # A finished peer has no partials left by construction, but any
            # stragglers (numerical slack) are written off as waste.
            if cfg.seed_stays:
                for r in finished:
                    self._write_off(r)
            else:
                self._depart(finished)
        st.rollover()
        if obs:
            t3 = time.perf_counter()
            reg.observe("chunks.kernel.transfer", t3 - t2)
            reg.inc("chunks.rounds")
            reg.inc("chunks.kernel.links", n_links)
            reg.inc("chunks.kernel.picks", self._round_picks)
            reg.inc("chunks.peers_finished", len(finished))

    def run(self, *, max_rounds: int = 100_000) -> int:
        """Run rounds until every downloader finishes; return rounds used."""
        start = self.rounds_run
        while not self.all_done:
            if self.rounds_run - start >= max_rounds:
                n_left = int(
                    (self.store.n_owned[: self.store.n] < self.config.n_chunks).sum()
                )
                raise RuntimeError(
                    f"swarm did not finish within {max_rounds} rounds "
                    f"({n_left} downloaders left)"
                )
            self.run_round()
        return self.rounds_run - start


class ChunkSwarm(_RoundEngine):
    """A single-file chunk-level swarm (dense vectorised engine)."""

    def __init__(self, config: ChunkSwarmConfig, *, seed: int = 0):
        if config.neighbor_degree is not None:
            raise ValueError(
                "the dense engine assumes full mixing (neighbor_degree=None); "
                "use repro.chunks.sparse.SparseChunkSwarm for bounded degrees"
            )
        super().__init__(config, ChunkStore(config.n_chunks), seed)

    # ----- kernels --------------------------------------------------------------

    def _interest(self, n: int) -> np.ndarray:
        """``interest[u, d]``: row ``d`` is interested in ``u`` (``u`` owns a
        chunk ``d`` lacks); the diagonal is structurally False."""
        ownf = self.store.own[:n].astype(np.float32)
        return (ownf @ (1.0 - ownf).T) > 0.5

    def _neighbor_rows(self, rows: np.ndarray | int, cols: np.ndarray) -> np.ndarray:
        """Peer rows of the interest entries ``(rows, cols)`` (here the
        columns are rows)."""
        return cols

    def _received_last_round(self, n: int) -> np.ndarray:
        """``[u, d]``: bytes ``u`` received from ``d`` last round, aligned
        with ``_interest(n)``."""
        return self.store.r_prev[:n, :n]

    def _credit(self, r: int, u: int, sent: float) -> None:
        """Tit-for-tat: ``r`` received ``sent`` bytes from ``u`` this round."""
        self.store.r_cur[r, u] += sent
