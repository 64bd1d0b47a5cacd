"""Bounded-degree chunk-level swarm engine (sparse neighborhoods).

Same round model as the dense :class:`repro.chunks.swarm.ChunkSwarm` --
interest, choking, transfer, completion -- but peers only see a
tracker-sampled neighborhood instead of the whole swarm, and the state
lives in a :class:`repro.chunks.sparse_store.SparseChunkStore` so memory
is O(peers * degree) rather than O(peers^2):

* **Membership** goes through a real :class:`repro.sim.tracker.Tracker`:
  every join/completion/departure announces (bookkeeping-only, the O(1)
  ``want_peers=False`` path), and a joining peer connects to
  ``neighbor_degree`` uniformly sampled existing peers, each of which may
  refuse when already at twice that degree (mainline's numwant/connection
  cap in miniature).  ``neighbor_degree=None`` connects everyone to
  everyone -- the full-mixing special case.
* **Interest** runs per-neighborhood block over the bit-packed ownership
  shadow: gather the neighbours' packed rows, AND with the uploader's
  complement, reduce -- O(edges * words) instead of a P x P matmul.
* **Choking** ranks each uploader's interested neighbours on the
  edge-aligned received-bytes columns with the exact argsort/cursor/RNG
  call sites of the dense engine.
* **Transfer** keeps the oracle's per-link dict/set bookkeeping
  (partials are a per-peer dict, O(slots) entries), so the float
  accumulation order is the scalar engine's by construction.

**Bit-for-bit equivalence.**  With ``neighbor_degree=None`` every
adjacency row enumerates all other peers in ascending row == insertion
order, which is exactly the candidate order of the dense engine and the
scalar oracle; every ``self.rng`` call site then fires in the same order
with the same population sizes, and every float accumulator updates in
the same sequence, so runs match the oracle exactly
(``tests/chunks/test_vector_equivalence.py`` pins it).  Neighbor sampling
and the tracker use *separate* RNG streams derived from the seed, so
bounded-degree wiring never perturbs the main draw sequence.

For sharded multi-process runs over sub-swarms see
:mod:`repro.chunks.shard`, which drives this engine's
``external_availability`` / ``export_peers`` / ``admit_peer`` hooks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.chunks.config import ChunkSwarmConfig
from repro.chunks.peer import ChunkPeerView
from repro.chunks.sparse_store import SparseChunkStore
from repro.obs import current_registry
from repro.sim.tracker import AnnounceEvent, Tracker

__all__ = ["SparseChunkSwarm", "PeerExport"]

_EMPTY_ROWS = np.empty(0, dtype=np.intp)

#: stream tags for the auxiliary RNGs (SeedSequence entropy suffixes);
#: the main ``self.rng`` stays seeded exactly like the other engines so
#: full-degree runs replay their draw sequence bit for bit
_ADJ_STREAM = 1001
_TRACKER_STREAM = 1002


def _sample_distinct(rng: np.random.Generator, pool: int, k: int) -> np.ndarray:
    """``k`` distinct ints from ``range(pool)``, sorted ascending.

    O(k) for small ``k`` (batched rejection sampling) -- crucially *not*
    O(pool), since every join samples and flash crowds join 10^5 peers.
    """
    if k >= pool:
        return np.arange(pool, dtype=np.int64)
    if pool <= 4 * k:
        return np.sort(rng.permutation(pool)[:k])
    seen: set[int] = set()
    while len(seen) < k:
        for v in rng.integers(0, pool, size=2 * (k - len(seen))):
            if len(seen) == k:
                break
            seen.add(int(v))
    return np.sort(np.fromiter(seen, dtype=np.int64, count=k))


@dataclass
class PeerExport:
    """Self-contained migration record of one peer (shard hand-off).

    Carries the download state that must survive the move -- bitmap,
    partial chunks, timestamps, upload credit -- and deliberately drops
    swarm-local state (tit-for-tat history, neighbour list, offer counts):
    a migrated peer re-bootstraps its reciprocity in the destination
    sub-swarm, exactly like a real client that hops to a new peer set.
    """

    bitmap: np.ndarray
    initially_seed: bool
    joined_at: float
    finished_at: float | None
    uploaded_useful: float
    partials: dict[int, list[float]] = field(default_factory=dict)


class SparseChunkSwarm:
    """A single-file chunk-level swarm over sparse neighborhoods."""

    def __init__(self, config: ChunkSwarmConfig, *, seed: int = 0, file_id: int = 0):
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.store = SparseChunkStore(config.n_chunks)
        self.peers: dict[int, ChunkPeerView] = {}
        self.now = 0.0
        self.rounds_run = 0
        self._next_id = 0
        self.downloader_useful = 0.0
        self.downloader_capacity = 0.0
        self.seed_useful = 0.0
        self.seed_capacity = 0.0
        self.wasted_bytes = 0.0
        #: per-round records (t_end, dl_useful, dl_capacity, seed_useful,
        #: seed_capacity, n_downloaders, n_seeds) for time-varying analyses
        self.history: list[tuple[float, float, float, float, float, int, int]] = []
        self._round_picks = 0
        self.degree = config.neighbor_degree
        #: connection cap: a peer refuses new neighbours beyond 2*degree
        self.max_degree = None if self.degree is None else 2 * self.degree
        self._nbr_rng = np.random.default_rng(
            np.random.SeedSequence((seed, _ADJ_STREAM))
        )
        self.file_id = int(file_id)
        self.tracker = Tracker(
            np.random.default_rng(np.random.SeedSequence((seed, _TRACKER_STREAM))),
            numwant=self.degree if self.degree is not None else 50,
        )

    # ----- membership ---------------------------------------------------------

    def _wire_row(self, row: int) -> None:
        """Connect a just-added row to its tracker-sampled neighborhood.

        Candidates at the ``2*degree`` connection cap refuse; if *every*
        sampled candidate refuses, the joiner attaches to the least-loaded
        one anyway (the cap is a target, not a hard invariant) so no peer
        ever joins isolated.
        """
        st = self.store
        pool = st.n - 1  # every older row; the tracker holds exactly these
        if pool == 0:
            return
        if self.degree is None:
            others = np.arange(pool, dtype=np.int32)
        else:
            sampled = _sample_distinct(self._nbr_rng, pool, self.degree)
            others = sampled[st.deg[sampled] < self.max_degree]
            if others.size == 0:
                others = sampled[np.argmin(st.deg[sampled])][None]
        st.connect_new(row, others)

    def _rewire_row(self, row: int) -> None:
        """Give a stranded (zero-degree) row a fresh sampled neighborhood.

        Departing seeds can drain a bounded neighborhood entirely; a real
        client re-announces and reconnects, so we do too.  Uses the
        neighbour-sampling stream only -- never the main RNG.
        """
        st = self.store
        pool = st.n - 1
        if pool == 0:
            return
        k = pool if self.degree is None else self.degree
        cand = _sample_distinct(self._nbr_rng, pool, k)
        cand = np.where(cand >= row, cand + 1, cand)
        if self.degree is not None:
            kept = cand[st.deg[cand] < self.max_degree]
            if kept.size == 0:
                kept = cand[np.argmin(st.deg[cand])][None]
            cand = kept
        for other in cand:
            # another stranded row rewired this round may already have
            # connected to us
            if not st.has_edge(row, int(other)):
                st.insert_edge(row, int(other))

    def add_peer(self, *, is_seed: bool = False) -> ChunkPeerView:
        pid = self._next_id
        self._next_id += 1
        row = self.store.add(pid, is_seed=is_seed, joined_at=self.now)
        self.tracker.announce(
            pid, self.file_id, AnnounceEvent.STARTED,
            is_seeder=is_seed, want_peers=False,
        )
        self._wire_row(row)
        view = ChunkPeerView(self.store, pid)
        self.peers[pid] = view
        return view

    def add_peers(self, n: int, *, is_seed: bool = False) -> list[ChunkPeerView]:
        return [self.add_peer(is_seed=is_seed) for _ in range(n)]

    def remove_peer(self, peer_id: int) -> ChunkPeerView:
        """Remove a peer (churn); its unfinished partials become waste."""
        st = self.store
        try:
            row = st.row_of[peer_id]
        except KeyError:
            raise KeyError(f"no peer {peer_id} in the swarm") from None
        for entry in st.partials[row].values():
            self.wasted_bytes += entry[0]
        st.clear_partials(row)
        view = self.peers.pop(peer_id)
        view.detach()
        st.compact([row])
        self.tracker.announce(
            peer_id, self.file_id, AnnounceEvent.STOPPED, want_peers=False
        )
        return view

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

    # ----- chunk availability -------------------------------------------------

    def availability(self) -> np.ndarray:
        """How many local peers own each chunk (drives rarest-first)."""
        return self.store.own[: self.store.n].sum(axis=0, dtype=int)

    def _pick_chunk(self, r: int, u: int, availability: np.ndarray) -> int | None:
        """Local rarest first among needed, offered, not-in-flight chunks.

        Dict/set port of the oracle's ``_pick_chunk``; consumes the RNG at
        exactly the same call sites with the same population sizes.
        """
        st = self.store
        candidates = st.own[u] & ~st.own[r]
        partials = st.partials[r]
        active = st.active[r]
        # Resume a partial chunk first (block re-request from anyone),
        # preferring the most-complete one; ties go to the oldest partial
        # (dict-insertion order, like the scalar engine).
        resumable = [
            chunk for chunk in partials
            if candidates[chunk] and chunk not in active
        ]
        if resumable:
            return int(max(resumable, key=lambda ch: partials[ch][0]))
        fresh = candidates.copy()
        for chunk in active:
            fresh[chunk] = False
        for chunk in partials:
            fresh[chunk] = False
        idx = np.nonzero(fresh)[0]
        if idx.size == 0:
            # Endgame mode: join an actively transferring chunk rather than
            # idle the link (block-level parallelism, no byte duplication in
            # this model's granularity).
            idx = np.nonzero(candidates)[0]
            if idx.size == 0:
                return None
        if self.config.super_seeding and st.initially_seed[u]:
            # Super-seeding: the origin doles out its least-offered pieces
            # first, maximising diversity during the bootstrap.
            offers = st.offered[u, idx]
            idx = idx[offers == offers.min()]
        if self.config.piece_selection == "in_order":
            # Streaming policy: lowest index first (sequential playback).
            rarest = idx[idx == idx.min()]
        else:
            rarity = availability[idx]
            rarest = idx[rarity == rarity.min()]
        # Same stream as ``rng.choice(rarest)``; the dense engine draws
        # the same way (pinned by tests/chunks/test_rng_draws.py).
        chunk = int(rarest[self.rng.integers(rarest.size)])
        st.offered[u, chunk] += 1
        return chunk

    # ----- choking ------------------------------------------------------------

    def _select_rows(
        self, u: int, ipos: np.ndarray, irows: np.ndarray, is_seed_u: bool
    ) -> np.ndarray:
        """Rows ``u`` serves this round.

        ``ipos`` are the interested neighbours' positions in ``u``'s edge
        list and ``irows`` the corresponding store rows, both ascending
        (edge lists are sorted), i.e. in the oracle's insertion order.
        """
        cfg = self.config
        st = self.store
        rng = self.rng
        if is_seed_u:
            k = min(cfg.total_slots, irows.size)
            policy = cfg.seed_unchoke
            if policy == "round_robin":
                start = int(st.rotation_cursor[u]) % irows.size
                st.rotation_cursor[u] = start + k
                return irows[(start + np.arange(k)) % irows.size]
            if policy == "fastest":
                order = np.argsort(-st.recv_total_prev[irows], kind="stable")
                return irows[order[:k]]
            return rng.choice(irows, size=k, replace=False)
        # Tit-for-tat: rank by bytes received from them last round.
        order = np.argsort(-st.r_prev_e[u, ipos], kind="stable")
        top = order[: cfg.n_upload_slots]
        regular = irows[top]
        if cfg.optimistic_slots > 0 and irows.size > regular.size:
            rest_mask = np.ones(irows.size, dtype=bool)
            rest_mask[top] = False
            rest = irows[rest_mask]
            k = min(cfg.optimistic_slots, rest.size)
            optimistic = rng.choice(rest, size=k, replace=False)
            return np.concatenate((regular, optimistic))
        return regular

    def _interested_positions(self, u: int) -> np.ndarray:
        """Edge positions of ``u``'s neighbours that want something from
        ``u`` (one-row version of the blocked round kernel)."""
        st = self.store
        d = int(st.deg[u])
        if d == 0:
            return _EMPTY_ROWS
        nbrs = st.nbr[u, :d]
        lacks = (st.own_packed[u][None, :] & ~st.own_packed[nbrs]).any(axis=1)
        return np.nonzero(lacks)[0]

    def _select_unchoked(self, uploader: ChunkPeerView) -> list[int]:
        """Whom ``uploader`` serves this round (peer ids)."""
        st = self.store
        u = st.row_of[uploader.peer_id]
        ipos = self._interested_positions(u)
        if ipos.size == 0:
            return []
        irows = st.nbr[u, ipos]
        is_seed_u = int(st.n_owned[u]) == st.n_chunks
        return [
            int(pid)
            for pid in st.peer_id[self._select_rows(u, ipos, irows, is_seed_u)]
        ]

    # ----- the round ----------------------------------------------------------

    def run_round(self, external_availability: np.ndarray | None = None) -> None:
        """Advance the swarm by one choking round.

        ``external_availability`` (optional, one count per chunk) is added
        to the local ownership counts before rarest-first runs -- the
        sharded backend injects the other sub-swarms' piece counts here so
        rarity stays a swarm-global signal.
        """
        cfg = self.config
        st = self.store
        reg = current_registry()
        obs = reg.enabled
        n = st.n
        C = cfg.n_chunks

        t0 = time.perf_counter() if obs else 0.0
        availability = st.own[:n].sum(axis=0, dtype=int)
        if external_availability is not None:
            availability = availability + np.asarray(
                external_availability, dtype=int
            )

        # Interest, per-neighborhood block over the packed bitmaps:
        # neighbour j of u is interested iff u owns a word-bit j lacks.
        width = st.nbr.shape[1]
        packed = st.own_packed
        nbr = st.nbr
        W = st.n_words
        # ~32 MB of gathered words per block
        block = max(1, (4 << 20) // max(1, width * W))
        interested_per: list[np.ndarray] = []
        for b0 in range(0, n, block):
            b1 = min(n, b0 + block)
            nb = nbr[b0:b1]
            valid = nb >= 0
            g = packed[np.where(valid, nb, 0)]
            lacks = (packed[b0:b1, None, :] & ~g).any(axis=2)
            lacks &= valid
            for u in range(b0, b1):
                interested_per.append(np.nonzero(lacks[u - b0])[0])
        if obs:
            t1 = time.perf_counter()
            reg.observe("chunks.kernel.interest", t1 - t0)

        n_owned = st.n_owned
        was_dl = n_owned[:n] < C
        receivers_per: list[np.ndarray] = []
        for u in range(n):
            ipos = interested_per[u]
            if ipos.size == 0:
                receivers_per.append(_EMPTY_ROWS)
            else:
                irows = nbr[u, ipos]
                receivers_per.append(
                    self._select_rows(u, ipos, irows, not was_dl[u])
                )
        if obs:
            t2 = time.perf_counter()
            reg.observe("chunks.kernel.choke", t2 - t1)

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
        r_cur_e = st.r_cur_e
        recv_total_cur = st.recv_total_cur
        n_links = 0
        self._round_picks = 0
        for u in range(n):
            u_is_dl = bool(was_dl[u])
            if u_is_dl:
                self.downloader_capacity += budget
            else:
                self.seed_capacity += budget
            receivers = receivers_per[u]
            if receivers.size == 0:
                continue
            n_links += receivers.size
            per_link = budget / receivers.size
            for r in receivers:
                r = int(r)
                sent = self._transfer(
                    u, r, per_link, availability, uploader_is_downloader=u_is_dl
                )
                if sent > 0:
                    # Tit-for-tat ranks by transfer effort, duplicates and all.
                    r_cur_e[r, st.edge_index(r, u)] += sent
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
        n_finished = 0
        drop_rows: list[int] = []
        drop_pids: list[int] = []
        for r in completions:
            if not math.isnan(fin[r]):
                continue  # unchoked by several uploaders: one entry per link
            fin[r] = self.now
            n_finished += 1
            pid = int(st.peer_id[r])
            self.tracker.announce(
                pid, self.file_id, AnnounceEvent.COMPLETED, want_peers=False
            )
            # A finished peer has no partials left by construction, but any
            # stragglers (numerical slack) are written off as waste.
            for entry in st.partials[r].values():
                self.wasted_bytes += entry[0]
            st.clear_partials(r)
            if not cfg.seed_stays:
                self.peers.pop(pid).detach()
                drop_rows.append(r)
                drop_pids.append(pid)
        if drop_rows:
            st.compact(drop_rows)
            for pid in drop_pids:
                self.tracker.announce(
                    pid, self.file_id, AnnounceEvent.STOPPED, want_peers=False
                )
            if self.degree is not None and st.n > 1:
                # departures may strand a bounded neighborhood entirely;
                # stranded peers re-announce and re-wire (full-degree mode
                # cannot strand anyone, so this never runs there)
                for row in np.nonzero(st.deg[: st.n] == 0)[0]:
                    self._rewire_row(int(row))
        st.rollover()
        if obs:
            t3 = time.perf_counter()
            reg.observe("chunks.kernel.transfer", t3 - t2)
            reg.inc("chunks.rounds")
            reg.inc("chunks.kernel.links", n_links)
            reg.inc("chunks.kernel.picks", self._round_picks)
            reg.inc("chunks.peers_finished", n_finished)

    def _transfer(
        self,
        u: int,
        r: int,
        amount: float,
        availability: np.ndarray,
        *,
        uploader_is_downloader: bool,
    ) -> float:
        """Move up to ``amount`` work units across one unchoked link.

        Dict-based port of the oracle's ``_transfer`` (same float ops in
        the same order); usefulness is credited per completed chunk.
        """
        st = self.store
        chunk_size = self.config.chunk_size
        threshold = chunk_size - 1e-15
        partials = st.partials[r]
        active = st.active[r]
        picks = 0
        sent = 0.0
        while amount > 1e-15:
            chunk = self._pick_chunk(r, u, availability)
            if chunk is None:
                break  # nothing useful to send
            picks += 1
            entry = partials.setdefault(chunk, [0.0, 0.0, 0.0])
            active.add(chunk)
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
                availability[chunk] += 1
                self.downloader_useful += entry[1]
                self.seed_useful += entry[2]
                partials.pop(chunk)
                active.discard(chunk)
        self._round_picks += picks
        return sent

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

    # ----- shard migration ----------------------------------------------------

    def sample_migrants(self, k: int) -> list[int]:
        """Pick up to ``k`` migration candidates (uniform over live peers,
        via the neighbour-sampling stream -- never the main RNG)."""
        st = self.store
        k = min(k, st.n)
        if k <= 0:
            return []
        rows = _sample_distinct(self._nbr_rng, st.n, k)
        return [int(st.peer_id[row]) for row in rows]

    def export_peers(self, peer_ids: list[int]) -> list[PeerExport]:
        """Emigrate ``peer_ids``: return their migration records and remove
        them locally.  Unlike churn, partials travel with the peer instead
        of becoming waste."""
        st = self.store
        exports: list[PeerExport] = []
        rows: list[int] = []
        for pid in peer_ids:
            try:
                row = st.row_of[pid]
            except KeyError:
                raise KeyError(f"no peer {pid} in the swarm") from None
            fin = float(st.finished_at[row])
            exports.append(
                PeerExport(
                    bitmap=st.own[row].copy(),
                    initially_seed=bool(st.initially_seed[row]),
                    joined_at=float(st.joined_at[row]),
                    finished_at=None if math.isnan(fin) else fin,
                    uploaded_useful=float(st.uploaded_useful[row]),
                    partials={c: list(e) for c, e in st.partials[row].items()},
                )
            )
            rows.append(row)
            st.clear_partials(row)
            self.peers.pop(pid).detach()
        st.compact(rows)
        for pid in peer_ids:
            self.tracker.announce(
                pid, self.file_id, AnnounceEvent.STOPPED, want_peers=False
            )
        return exports

    def admit_peer(self, export: PeerExport) -> ChunkPeerView:
        """Immigrate one exported peer under a fresh local id, wiring it
        into a fresh tracker-sampled neighborhood."""
        st = self.store
        pid = self._next_id
        self._next_id += 1
        row = st.add(pid, is_seed=False, joined_at=self.now)
        st.own[row] = export.bitmap
        st.repack_row(row)
        complete = int(st.n_owned[row]) == st.n_chunks
        st.initially_seed[row] = export.initially_seed
        st.joined_at[row] = export.joined_at
        if export.finished_at is not None:
            st.finished_at[row] = export.finished_at
        elif complete:
            st.finished_at[row] = self.now
        st.uploaded_useful[row] = export.uploaded_useful
        st.partials[row].update(
            (c, list(e)) for c, e in export.partials.items()
        )
        self.tracker.announce(
            pid, self.file_id, AnnounceEvent.STARTED,
            is_seeder=complete, want_peers=False,
        )
        self._wire_row(row)
        view = ChunkPeerView(st, pid)
        self.peers[pid] = view
        return view
