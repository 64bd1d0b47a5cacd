"""Bounded-degree chunk-level swarm engine (sparse neighborhoods).

Runs the same round as the dense :class:`repro.chunks.swarm.ChunkSwarm`
-- both inherit it from :class:`repro.chunks.swarm._RoundEngine`, which
owns membership, departures, choking, rarest-first picking, transfer,
the round loop and ``run`` -- but
peers only see a tracker-sampled neighborhood instead of the whole swarm,
and the state lives in a :class:`repro.chunks.sparse_store.SparseChunkStore`
so memory is O(peers * degree) rather than O(peers^2).  What this engine
adds:

* **Membership** goes through a real :class:`repro.sim.tracker.Tracker`:
  every join/completion/departure announces (bookkeeping-only, the O(1)
  ``want_peers=False`` path), and a joining peer connects to
  ``neighbor_degree`` uniformly sampled existing peers, each of which may
  refuse when already at twice that degree (mainline's numwant/connection
  cap in miniature).  A peer whose neighborhood every departure path
  (churn, completion, emigration) has emptied re-wires.
  ``neighbor_degree=None`` connects everyone to everyone -- the
  full-mixing special case.
* **Interest** runs per-neighborhood block over the bit-packed ownership
  shadow: gather the neighbours' packed rows, AND with the uploader's
  complement, reduce -- O(edges * words) instead of a P x P matmul.  Its
  columns are edge positions, so choking ranks on the edge-aligned
  received-bytes columns.
* **Tit-for-tat credit** lands in the edge-aligned received-bytes
  column of the link (``edge_index``), and rarest-first counts the other
  shards' pieces too (``_pick_availability``).  Picking and transfer
  themselves are the shared ``_RoundEngine`` kernels over the store's
  per-row partial dicts, the same as the dense engine's.

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
from dataclasses import dataclass, field

import numpy as np

from repro.chunks.config import ChunkSwarmConfig
from repro.chunks.peer import ChunkPeerView
from repro.chunks.sparse_store import SparseChunkStore
from repro.chunks.swarm import _RoundEngine
from repro.sim.tracker import AnnounceEvent, Tracker

__all__ = ["SparseChunkSwarm", "PeerExport"]

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


class SparseChunkSwarm(_RoundEngine):
    """A single-file chunk-level swarm over sparse neighborhoods."""

    def __init__(self, config: ChunkSwarmConfig, *, seed: int = 0, file_id: int = 0):
        super().__init__(config, SparseChunkStore(config.n_chunks), seed)
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
        #: other shards' per-chunk counts for the round in progress
        self._external: np.ndarray | None = None

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

    def _joined(self, peer_id: int, row: int, is_seed: bool) -> None:
        self.tracker.announce(
            peer_id, self.file_id, AnnounceEvent.STARTED,
            is_seeder=is_seed, want_peers=False,
        )
        self._wire_row(row)

    def _completed(self, rows: list[int]) -> None:
        st = self.store
        for r in rows:
            self.tracker.announce(
                int(st.peer_id[r]), self.file_id, AnnounceEvent.COMPLETED,
                want_peers=False,
            )

    def _departed(self, peer_ids: list[int]) -> None:
        for pid in peer_ids:
            self.tracker.announce(
                pid, self.file_id, AnnounceEvent.STOPPED, want_peers=False
            )
        st = self.store
        if self.degree is not None and st.n > 1:
            # departures may strand a bounded neighborhood entirely;
            # stranded peers re-announce and re-wire (full-degree mode
            # cannot strand anyone, so this never runs there)
            for row in np.nonzero(st.deg[: st.n] == 0)[0]:
                self._rewire_row(int(row))

    # ----- kernels ------------------------------------------------------------

    def _interest(self, n: int) -> np.ndarray:
        """``interest[u, j]``: neighbour ``nbr[u, j]`` is interested in ``u``
        (``u`` owns a word-bit it lacks), per-neighborhood block over the
        packed bitmaps; padding columns are False."""
        st = self.store
        width = st.nbr.shape[1]
        packed = st.own_packed
        nbr = st.nbr
        # ~32 MB of gathered words per block
        block = max(1, (4 << 20) // max(1, width * st.n_words))
        interest = np.empty((n, width), dtype=bool)
        for b0 in range(0, n, block):
            b1 = min(n, b0 + block)
            nb = nbr[b0:b1]
            valid = nb >= 0
            g = packed[np.where(valid, nb, 0)]
            lacks = (packed[b0:b1, None, :] & ~g).any(axis=2)
            np.logical_and(lacks, valid, out=interest[b0:b1])
        return interest

    def _neighbor_rows(self, rows: np.ndarray | int, cols: np.ndarray) -> np.ndarray:
        """Peer rows of the interest entries ``(rows, cols)`` (edge
        positions)."""
        return self.store.nbr[rows, cols]

    def _received_last_round(self, n: int) -> np.ndarray:
        """``[u, j]``: bytes ``u`` received last round over edge ``j``,
        aligned with ``_interest(n)``."""
        return self.store.r_prev_e[:n]

    def _credit(self, r: int, u: int, sent: float) -> None:
        """Tit-for-tat: ``r`` received ``sent`` bytes over its edge to ``u``
        this round."""
        st = self.store
        st.r_cur_e[r, st.edge_index(r, u)] += sent

    def _pick_availability(self) -> np.ndarray:
        """Per-chunk counts rarest-first ranks by: local ownership plus the
        other shards' counts for this round."""
        availability = self.availability()
        if self._external is not None:
            availability = availability + np.asarray(self._external, dtype=int)
        return availability

    # ----- the round ----------------------------------------------------------

    def run_round(self, external_availability: np.ndarray | None = None) -> None:
        """Advance the swarm by one choking round.

        ``external_availability`` (optional, one count per chunk) is added
        to the local ownership counts before rarest-first runs -- the
        sharded backend injects the other sub-swarms' piece counts here so
        rarity stays a swarm-global signal.
        """
        self._external = external_availability
        super().run_round()

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
        rows = [self._row(pid) for pid in peer_ids]
        exports = [
            PeerExport(
                bitmap=st.own[row].copy(),
                initially_seed=bool(st.initially_seed[row]),
                joined_at=float(st.joined_at[row]),
                finished_at=(
                    None if math.isnan(st.finished_at[row])
                    else float(st.finished_at[row])
                ),
                uploaded_useful=float(st.uploaded_useful[row]),
                partials=st.partials_dict(row),
            )
            for row in rows
        ]
        self._depart(rows, write_off=False)
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
        self._joined(pid, row, complete)
        view = ChunkPeerView(st, pid)
        self.peers[pid] = view
        return view
