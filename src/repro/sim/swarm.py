"""Swarms (per-file subtorrents) and swarm groups (torrents).

A :class:`Swarm` is the population sharing one file: active downloads
(:class:`~repro.sim.entities.DownloadEntry`) plus seed bandwidth
allocations.  A :class:`SwarmGroup` is the paper's *torrent*: one swarm per
file it publishes (a single-file torrent is a group of one).

Seed bandwidth placement follows the group's :class:`SeedPolicy`:

* ``SUBTORRENT`` -- seed capacity attaches to one specific swarm and serves
  only its downloaders (physically what a BitTorrent seed does; the only
  sensible policy for separate single-file torrents, and the model-faithful
  reading of MFCD where each virtual peer seeds its own file).
* ``GLOBAL_POOL`` -- all virtual-seed and real-seed capacity in the group is
  pooled and divided across *every* downloader in the group in proportion
  to download bandwidth.  This is exactly the mixing assumption of the
  paper's Eq. (5) ``S^{i,j}`` term (its denominator sums downloaders of all
  subtorrents), justified there by the randomised download order.  CMFSD
  scenarios default to it; running them under ``SUBTORRENT`` instead
  quantifies the quality of that approximation.

A *rate domain* is a tuple of member swarms that share one seed pool: the
whole group under ``GLOBAL_POOL`` (everyone shares the pool, so any change
retouches every rate), a single swarm under ``SUBTORRENT`` (rates never
cross swarm boundaries).  A single-subtorrent pool is exactly the
swarm-local rule, so both are one class of object: :class:`Swarm` is a
domain of one member (itself) and :class:`SwarmGroup` a domain of all its
swarms, and the lazy advance, the share kernels and the deferred-window
drivers are written once over the member tuple.

Progress is integrated *lazily*: rates are constant between allocation
changes, so work is only advanced when something changes.  The unit of
laziness is the rate domain.  The per-swarm domains of ``SUBTORRENT``
groups are what keep large MFCD/MTCD runs tractable: an event touches one
swarm, not a 10-file torrent.

Per-peer numeric state lives in a structure-of-arrays
:class:`~repro.sim.peerstore.PeerStore` per swarm, so every kernel here --
rate recomputation, progress advancement, completion queries -- is a
handful of NumPy array operations rather than a Python loop over entries.
The neighbour-aware path builds a boolean adjacency matrix from the
tracker samples and allocates seed bandwidth with one matrix product.  The
original per-entry loops survive verbatim in :mod:`repro.sim.reference` as
the oracle the vectorised kernels are tested against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from repro.obs import current_registry
from repro.sim.bandwidth import RateWindow
from repro.sim.entities import DownloadEntry, UserRecord
from repro.sim.peerstore import PeerStore

__all__ = [
    "SCALAR_KERNEL_CUTOFF",
    "SeedPolicy",
    "Swarm",
    "SwarmGroup",
    "WorkSnapshot",
]

#: Swarms at or below this size take scalar (pure-Python) kernel paths --
#: a dozen ufunc launches cost ~40us regardless of n, which dwarfs the
#: arithmetic for the small swarms event-driven runs are made of.  The
#: scalar loops perform the same IEEE operations element-wise, so results
#: are identical; only the capacity *sum* differs in rounding from NumPy's
#: pairwise reduction, and the path choice depends only on n (part of the
#: simulation state), so every run makes the same choice deterministically.
#:
#: The value is *measured*, not guessed:
#: ``benchmarks/test_bench_scalar_cutoff.py`` sweeps the mesh rate kernel
#: and the completion-time scan across swarm sizes bracketing this
#: constant and asserts the scalar path wins below it and the vectorised
#: path wins well above it.  On the reference container (Linux x86-64,
#: NumPy 2.x) the measured crossover is ~45 rows for the mesh kernel and
#: ~90 for the completion scan; 64 sits between the two, so each kernel
#: pays at most a mild loss near the boundary and never a blow-up.
#: Re-run the micro-bench when changing it.
SCALAR_KERNEL_CUTOFF = 64


class SeedPolicy(enum.Enum):
    """Where seed bandwidth lands within a group (see module docstring)."""

    SUBTORRENT = "subtorrent"
    GLOBAL_POOL = "global_pool"


class _VersionedDict(dict):
    """Dict that counts its mutations, so kernels can cache derived state.

    The neighbour-aware kernel derives adjacency/connectivity matrices from
    the tracker samples and seed tables; rebuilding them is the expensive
    part, so it keys a cache on these version counters.  Values must be
    *replaced*, never mutated in place (the tracker always assigns fresh
    sets) -- in-place value mutation is invisible to the counter.
    """

    __slots__ = ("version",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.version = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.version += 1

    def __delitem__(self, key):
        super().__delitem__(key)
        self.version += 1

    def pop(self, *args):
        result = super().pop(*args)
        self.version += 1
        return result

    def popitem(self):
        result = super().popitem()
        self.version += 1
        return result

    def clear(self):
        super().clear()
        self.version += 1

    def update(self, *args, **kwargs):
        super().update(*args, **kwargs)
        self.version += 1

    def setdefault(self, key, default=None):
        # Only an actual insert is a mutation: a read-through setdefault on
        # a present key must not invalidate caches keyed on ``version``.
        if key in self:
            return self[key]
        self.version += 1
        return super().setdefault(key, default)


class _SeedTable(_VersionedDict):
    """Seed table ``user_id -> (bandwidth, user_class)`` with a running total.

    Every rate recompute needs the aggregate seed capacity; summing the
    dict is O(#seeds) per recompute and dominates seed-heavy swarms.  The
    table maintains ``total`` across mutations instead, so kernels read it
    in O(1).  The total snaps back to exactly ``0.0`` whenever the table
    empties, keeping ``capacity == 0.0`` assertions exact despite float
    accumulation.
    """

    __slots__ = ("total",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # dict.__init__ bypasses __setitem__, so recount whatever landed
        self.total = sum(bw for bw, _ in self.values())

    def __setitem__(self, key, value):
        old = self.get(key)
        if old is not None:
            self.total -= old[0]
        self.total += value[0]
        super().__setitem__(key, value)

    def __delitem__(self, key):
        bw = self[key][0]
        super().__delitem__(key)
        self.total = self.total - bw if self else 0.0

    def pop(self, *args):
        had = args[0] in self
        result = super().pop(*args)
        if had:
            self.total = self.total - result[0] if self else 0.0
        return result

    def popitem(self):
        key, value = super().popitem()
        self.total = self.total - value[0] if self else 0.0
        return key, value

    def clear(self):
        super().clear()
        self.total = 0.0

    def update(self, *args, **kwargs):
        super().update(*args, **kwargs)
        self.total = sum(bw for bw, _ in self.values())

    def setdefault(self, key, default=None):
        if key not in self:
            self.total += default[0]
        return super().setdefault(key, default)


class _TopoState:
    """Incrementally maintained neighbour-topology matrices for one swarm.

    The full :meth:`Swarm._neighbor_topology` rebuild flattens every
    tracker sample and reconstructs the boolean adjacency and the
    seed-reach matrix from scratch -- O(edges + n^2) per structural
    change, which dominates tracker-limited runs (every join, leave and
    seed transition is a structural change).  This state keeps those
    matrices *live* instead: each mutation updates the affected row and
    column in O(degree) (or one vectorised row/column copy), keyed to the
    same version counters the product cache uses.

    Invariants:

    * ``adj[:n, :n]`` equals the full rebuild's symmetrised, zero-diagonal
      adjacency; everything outside that block is ``False``.
    * ``conn[i, :n]`` for ``i < len(row_users)`` equals the full rebuild's
      reach row of seed user ``row_users[i]`` (one row per seed *user*,
      bandwidth filtering happens at gather time); rows/columns beyond the
      used block are ``0.0``.
    * ``rev[v]`` is the set of users whose sample contains ``v`` (the
      reverse of the tracker-sample dict), so ``connected(u, v)`` is
      equivalent to ``v in neighbors[u] or v in rev_entry`` lookups in
      O(1) without scanning the population.
    * ``versions`` is what the four tracked version counters *should* read
      if every mutation since the last sync was journalled through the
      notify hooks.  Any direct mutation (tests poke the dicts) makes the
      real counters run ahead; the mismatch is detected at the next hook
      or gather and the state is dropped -- correctness never depends on
      callers using the hooks.
    """

    __slots__ = (
        "versions",
        "slot_user",
        "slot_of",
        "adj",
        "conn",
        "seed_rows",
        "row_users",
        "rev",
        "prod",
    )

    def __init__(
        self,
        n: int,
        adjacency: "np.ndarray | None",
        user_ids: np.ndarray,
        seed_ids: "np.ndarray | None",
        reach: "np.ndarray | None",
        neighbors: Mapping[int, set],
        versions: tuple,
    ):
        cap = 16
        while cap < n:
            cap *= 2
        self.adj = np.zeros((cap, cap), dtype=bool)
        if n:
            self.adj[:n, :n] = adjacency
        self.slot_user = [int(u) for u in user_ids[:n]]
        self.slot_of = {u: i for i, u in enumerate(self.slot_user)}
        n_rows = 0 if seed_ids is None else int(seed_ids.size)
        row_cap = 8
        while row_cap < n_rows:
            row_cap *= 2
        self.conn = np.zeros((row_cap, cap))
        self.row_users = [] if seed_ids is None else [int(u) for u in seed_ids]
        self.seed_rows = {u: i for i, u in enumerate(self.row_users)}
        if n_rows:
            self.conn[:n_rows, :n] = reach
        rev: dict[int, set] = {}
        for u, sample in neighbors.items():
            for v in sample:
                rev.setdefault(v, set()).add(u)
        self.rev = rev
        #: seed-side gather plan -- ``(seed_versions, rows, bandwidth,
        #: virtual_vec)`` -- cached across gathers because membership and
        #: samples churn far faster than the seed tables (see
        #: :meth:`Swarm._topo_products`)
        self.prod: tuple | None = None
        self.versions = list(versions)

    def grow_slots(self, n: int) -> None:
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

    def grow_rows(self, rows: int) -> None:
        """Double the seed-row capacity until ``rows`` rows fit."""
        cap = self.conn.shape[0]
        new_cap = cap
        while new_cap < rows:
            new_cap *= 2
        conn = np.zeros((new_cap, self.conn.shape[1]))
        conn[:cap] = self.conn
        self.conn = conn


@dataclass(frozen=True)
class WorkSnapshot:
    """One consistent view of a swarm's remaining work and rates.

    Completion handling needs two answers -- *which entries are due* and
    *when is the next completion* -- and they must come from the same
    progress state: deriving them from live arrays at two different moments
    can mix rates from two allocation epochs (e.g. when a behaviour
    callback triggers a flush halfway through).  A snapshot copies
    ``remaining`` and ``rate`` once, records the epoch it was taken under,
    and answers every query from those frozen arrays.
    """

    epoch: int
    time: float
    entries: tuple[DownloadEntry, ...]
    remaining: np.ndarray
    rate: np.ndarray

    def etas(self) -> np.ndarray:
        """Per-entry time to completion (0 when done, ``inf`` when stalled)."""
        safe_rate = np.where(self.rate > 0, self.rate, 1.0)
        with np.errstate(over="ignore"):  # tiny rate / huge remaining -> inf is right
            return np.where(
                self.remaining <= 0,
                0.0,
                np.where(self.rate > 0, self.remaining / safe_rate, math.inf),
            )

    def next_completion_time(self) -> float:
        """Absolute time of the earliest completion (``inf`` if none)."""
        if not self.entries:
            return math.inf
        return self.time + float(np.min(self.etas()))

    def due(self, slack: float) -> list[DownloadEntry]:
        """Entries whose snapshotted remaining work is within ``slack``."""
        return [self.entries[i] for i in np.flatnonzero(self.remaining <= slack)]

    def earliest(self) -> tuple[DownloadEntry, float] | None:
        """The entry closest to completion and its eta (``None`` if empty)."""
        if not self.entries:
            return None
        etas = self.etas()
        i = int(np.argmin(etas))
        return self.entries[i], float(etas[i])


class _RateDomain:
    """One rate domain: a tuple of member swarms sharing one seed pool.

    Every operation here runs over ``_members`` -- ``(self,)`` for a
    :class:`Swarm`, all member swarms for a pooled :class:`SwarmGroup` --
    so the swarm-local rule and Eq. (5)'s pool rule are one code path.
    Subclasses set ``_members``, ``_share_cache`` and ``win``, the counter
    prefix ``_KERNEL`` (``sim.kernel.<prefix>.*``), and provide
    ``n_downloaders``, ``_swarm(file_id)`` and ``_recompute``, which routes
    through their named kernel entry points.  The member swarms of a pooled
    group share the group's window and are driven only through the group.
    """

    _KERNEL: str
    _members: "tuple[Swarm, ...]"
    #: ([member store versions], total_cap, {store: share}) from the last
    #: full share pass; reused while no member's membership has moved (the
    #: share vectors depend only on membership and download caps)
    _share_cache: "tuple | None"
    #: deferred-integration window governing every member's rows
    win: RateWindow
    #: when True, rates only flow along neighbour connections (only a
    #: tracker-limited :class:`Swarm` sets it; it leaves the share kernel)
    neighbor_aware = False

    def _versions(self) -> list[int]:
        return [swarm.store.version for swarm in self._members]

    def _seed_totals(self) -> tuple[float, float]:
        """Virtual and real seed capacity over every member, in O(members)."""
        sv = sr = 0.0
        for swarm in self._members:
            sv += swarm.virtual_seeds.total
            sr += swarm.real_seeds.total
        return sv, sr

    def _pool_ratios(self, total_cap: float) -> tuple[float, float]:
        """A window's ``q`` (seed capacity per unit of download capacity)
        and its virtual part ``qv``."""
        sv, sr = self._seed_totals()
        if total_cap > 0.0:
            return (sv + sr) / total_cap, sv / total_cap
        return 0.0, 0.0

    # ----- lazy progress ----------------------------------------------------------

    def advance(self, t: float) -> None:
        """Integrate current rates up to ``t`` for every member.

        Virtual seeds upload whenever anyone in the domain downloads: the
        swarm-local rule for a lone swarm, and for a pool a virtual seed on
        an empty member still uploads while the group is busy.  Give/take
        is *not* pushed into user records here: received bandwidth
        accumulates in the store's ``received_virtual_acc`` column and
        upload time in each member's ``virtual_busy_time`` integral, both
        flushed into records by :meth:`Swarm.sync_virtual_accounting` (or
        the per-user settle hooks).
        """
        busy = has_virtual = False
        for swarm in self._members:
            if swarm.store.n:
                busy = True
            if swarm.virtual_seeds:
                has_virtual = True
        for swarm in self._members:
            dt = t - swarm.last_update
            if dt < -1e-9:
                raise ValueError(
                    f"cannot advance swarm backwards ({swarm.last_update} -> {t})"
                )
            if dt <= 0:
                swarm.last_update = t
                continue
            store = swarm.store
            n = store.n
            if n:
                remaining = store.remaining[:n]
                np.subtract(remaining, store.rate[:n] * dt, out=remaining)
                np.maximum(remaining, 0.0, out=remaining)
                if has_virtual:
                    acc = store.received_virtual_acc[:n]
                    np.add(acc, store.rate_from_virtual[:n] * dt, out=acc)
            if busy and swarm.virtual_seeds:
                swarm.virtual_busy_time += dt
            swarm.last_update = t

    # ----- the share kernel ---------------------------------------------------------

    def _share_pass(self, eta: float) -> None:
        """Refresh every row from the domain's seed pool (the full kernel).

        Each row gets ``eta * tft`` plus its capacity share
        ``cap / total_cap`` of the pooled virtual + real seed capacity,
        capped at its download bandwidth (a peer cannot receive faster than
        its link; the cap only binds in drain tails where few downloaders
        face many seeds).  Domains of at most ``SCALAR_KERNEL_CUTOFF`` rows
        take a scalar loop and cache their shares as lists, so the
        incremental path stays scalar for the same membership.
        """
        members = self._members
        total_n = 0
        for swarm in members:
            swarm.epoch += 1
            total_n += swarm.store.n
        reg = current_registry()
        if reg.enabled:
            reg.inc(f"sim.kernel.{self._KERNEL}.full")
            reg.inc(f"sim.kernel.{self._KERNEL}.peers", total_n)
        total_cap = 0.0
        shares: dict = {}
        if total_n <= SCALAR_KERNEL_CUTOFF:
            caps_of = [s.store.download_cap[: s.store.n].tolist() for s in members]
            for caps in caps_of:
                for c in caps:
                    total_cap += c
            for swarm, caps in zip(members, caps_of):
                if caps:
                    shares[swarm.store] = [
                        c / total_cap if total_cap > 0.0 else 0.0 for c in caps
                    ]
        else:
            for swarm in members:
                total_cap += float(np.sum(swarm.store.download_cap[: swarm.store.n]))
            for swarm in members:
                n = swarm.store.n
                if n:
                    caps = swarm.store.download_cap[:n]
                    shares[swarm.store] = (
                        caps / total_cap if total_cap > 0 else np.zeros(n)
                    )
        sv, sr = self._seed_totals()
        for store, share in shares.items():
            _write_rates(store, share, eta, sv + sr, sv)
        self._share_cache = (self._versions(), total_cap, shares)

    def _share_refresh(
        self, eta: float, entries: "list[DownloadEntry] | None" = None
    ) -> bool:
        """Refresh rates reusing the cached capacity shares when possible.

        Valid only while membership is unchanged since the last full pass
        (the cached ``share = caps / total_cap`` vectors depend only on
        membership and download caps, both frozen between attach/detach):

        * ``entries=None`` -- seed capacity changed: every row's rate is
          refreshed from the cached shares and the O(1) seed totals,
          skipping the capacity reduction and division.
        * ``entries=[...]`` -- only those downloaders' ``tft_upload``
          changed: just their rows are rewritten, scalar math identical
          (bit-for-bit) to the vectorised kernel's per-element operations.

        Returns ``False`` on cache miss (no pass yet, or membership moved);
        the caller then falls back to the full kernel, which is the oracle
        this path must match exactly.
        """
        cache = self._share_cache
        if cache is None or cache[0] != self._versions():
            return False
        total_n = 0
        for swarm in self._members:
            swarm.epoch += 1
            total_n += swarm.store.n
        shares = cache[2]
        sv, sr = self._seed_totals()
        pool = sv + sr
        if entries is not None and 4 * len(entries) > total_n:
            entries = None  # vector pass is cheaper than many scalar rows
        if entries is None:
            for store, share in shares.items():
                _write_rates(store, share, eta, pool, sv)
            rows = total_n
        else:
            rows = 0
            for entry in entries:
                store = entry._store
                share = shares.get(store)
                if share is None:
                    continue  # departed since it was marked dirty
                i = entry._slot
                s = float(share[i])
                rate = eta * float(store.tft_upload[i]) + s * pool
                rate_from_virtual = s * sv
                cap = float(store.download_cap[i])
                if rate > cap > 0:
                    scale = cap / rate
                    rate = cap
                    rate_from_virtual *= scale
                store.rate[i] = rate
                store.rate_from_virtual[i] = rate_from_virtual
                rows += 1
        reg = current_registry()
        if reg.enabled:
            reg.inc(f"sim.kernel.{self._KERNEL}.incremental")
            reg.inc(f"sim.kernel.{self._KERNEL}.rows", rows)
        return True

    # ----- deferred integration ------------------------------------------------------
    #
    # These drive the domain's :class:`~repro.sim.bandwidth.RateWindow`:
    # every member row rides the same ``q = pool / total_cap``.

    def win_start(self, eta: float, t: float, bound: float, sync) -> bool:
        """Open a deferred window after an exact flush (rates fresh at ``t``).

        Refuses when the factorised trajectory cannot represent this state:
        neighbour-aware allocation, a stale share cache, a zero-cap row
        (rounds ``q_max`` down to the unusable ``-inf``) or an already
        clipped rate.
        """
        if self.neighbor_aware:
            return False
        cache = self._share_cache
        if cache is None or cache[0] != self._versions():
            return False
        total_cap = cache[1]
        q, qv = self._pool_ratios(total_cap)
        q_max = math.inf
        ratio_min = math.inf
        for swarm in self._members:
            store = swarm.store
            n = store.n
            if not n:
                continue
            caps = store.download_cap[:n]
            if float(caps.min()) <= 0.0:
                return False
            ratios = eta * (store.tft_upload[:n] / caps)
            thr = 1.0 - float(ratios.max())
            if thr < q_max:
                q_max = thr
            rmin = float(ratios.min())
            if rmin < ratio_min:
                ratio_min = rmin
        if q > q_max:
            return False
        self.win.start(
            eta=eta,
            t=t,
            q=q,
            qv=qv,
            q_max=q_max,
            ratio_min=ratio_min,
            total_cap=total_cap,
            bound=bound,
        )
        for swarm in self._members:
            swarm.store._sync = sync
        return True

    def win_accumulate(self, t: float) -> None:
        """Extend the window's integrals to ``t`` (before any mutation)."""
        dt = self.win.accumulate(t)
        if dt > 0.0 and self.n_downloaders:
            # same rule as :meth:`advance`: virtual seeds upload whenever
            # anyone in the domain downloads
            for swarm in self._members:
                if swarm.virtual_seeds:
                    swarm.virtual_busy_time += dt

    def win_bias_attached(self, entry: DownloadEntry) -> None:
        """Adopt one freshly attached row into the open window.

        Pre-charges the row's stored state with the integrals accumulated
        before it joined (so the eventual uniform fold is exact) and folds
        its capacity and tft/cap ratio into the window's scalars.
        """
        win = self.win
        store = entry._store
        slot = entry._slot
        tft = float(store.tft_upload[slot])
        cap = float(store.download_cap[slot])
        bias = win.eta * tft * (win.t - win.t_start) + cap * win.B
        if bias:
            store.remaining[slot] += bias
        if win.C:
            store.received_virtual_acc[slot] -= cap * win.C
        win.total_cap += cap
        if cap > 0.0:
            ratio = win.eta * tft / cap
            thr = 1.0 - ratio
            if thr < win.q_max:
                win.q_max = thr
            if ratio < win.ratio_min:
                win.ratio_min = ratio
        else:
            win.q_max = -math.inf  # zero-cap row: next refresh materialises

    def win_refresh(self, joins: "list[DownloadEntry] | None" = None) -> bool:
        """Absorb seed/join mutations into the window in O(changes).

        Recomputes ``q``/``qv`` from the O(1) seed totals and the running
        ``total_cap``, updates the completion bound, and folds each join's
        own (unclipped) time-to-completion in.  ``False`` means the window
        cannot hold the new state -- materialise and take the exact path.
        """
        win = self.win
        q, qv = self._pool_ratios(win.total_cap)
        if not win.refresh(q, qv, self.n_downloaders):
            return False
        for entry in joins or ():
            store = entry._store
            if store is None:
                continue  # departed again before the flush
            slot = entry._slot
            tft = float(store.tft_upload[slot])
            cap = float(store.download_cap[slot])
            rate = win.eta * tft + cap * q
            if rate <= 0.0:
                win.note_row(math.inf)
                continue
            remaining = (
                float(store.remaining[slot])
                - win.eta * tft * (win.t - win.t_start)
                - cap * win.B
            )
            win.note_row(remaining / rate if remaining > 0.0 else 0.0)
        reg = current_registry()
        if reg.enabled:
            reg.inc(f"sim.kernel.{self._KERNEL}.incremental")
            reg.inc("sim.window.refresh")
        return True

    def win_due(self, eps: float) -> "tuple[float, list[DownloadEntry], float]":
        """Entries due within ``eps`` of now, judged in window space.

        Returns ``(t_next, due, t_rest)``: the earliest completion time
        (``inf`` when empty), the due rows, and the earliest completion
        among the rows that stay -- the window's next bound once the due
        rows leave.  Exact at the window's current ``q`` (the same linear
        fold :meth:`win_materialize` applies, element-wise identical), so
        an event that fired at a stale conservative bound can re-plan
        without materialising.  The caller must have accumulated the
        window to *now* first.
        """
        win = self.win
        t_next = math.inf
        t_rest = math.inf
        due: list[DownloadEntry] = []
        for swarm in self._members:
            t_c, rows, t_r = _win_due(win, swarm.store, eps)
            if t_c < t_next:
                t_next = t_c
            if t_r < t_rest:
                t_rest = t_r
            due.extend(rows)
        return t_next, due, t_rest

    def win_complete(self, entry: DownloadEntry, records) -> None:
        """Retire one due row without closing the window (per-row fold).

        Applies the uniform fold to just this row (same expression as
        :meth:`win_materialize`), settles its deferred received-from-virtual
        integral into the user record, freezes its final (unclipped -- the
        window invariant guarantees no row clips) rate into the detached
        entry, and removes its capacity from the window's running total.
        ``q_max``/``ratio_min`` are left stale-conservative: the departed
        row can only have made them tighter than necessary, never unsafe.
        """
        win = self.win
        swarm = self._swarm(entry.file_id)
        store = swarm.store
        # settle adds cap*C to the flushed integral and re-biases the row for a
        # later uniform fold; the row leaves before any such fold, so zero the
        # re-bias below rather than carrying it out on the detached entry
        swarm.settle_received(entry, records)
        slot = entry._slot
        tft = float(store.tft_upload[slot])
        cap = float(store.download_cap[slot])
        rem = float(store.remaining[slot]) - (
            win.eta * tft * (win.t - win.t_start) + cap * win.B
        )
        store.remaining[slot] = rem if rem > 0.0 else 0.0
        store.received_virtual_acc[slot] = 0.0
        store.rate[slot] = win.eta * tft + cap * win.q
        store.rate_from_virtual[slot] = cap * win.qv
        win.total_cap -= cap
        swarm.pop_entry((entry.user_id, entry.file_id))
        if self.n_downloaders == 0:
            win.total_cap = 0.0  # resorb subtraction drift exactly

    def win_materialize(self, t: float) -> None:
        """Fold the window into every member row; the window goes inactive.

        Rates are *not* refreshed here -- every row still carries its
        window-start rate, so the caller must follow up with a recompute
        (or seeds-strength incremental refresh) before anything reads them.
        """
        win = self.win
        if not win.active:
            return
        self.win_accumulate(t)
        coef_t = win.eta * (win.t - win.t_start)
        for swarm in self._members:
            store = swarm.store
            n = store.n
            if n and (coef_t or win.B):
                remaining = store.remaining[:n]
                np.subtract(
                    remaining,
                    coef_t * store.tft_upload[:n] + win.B * store.download_cap[:n],
                    out=remaining,
                )
                np.maximum(remaining, 0.0, out=remaining)
            if n and win.C:
                acc = store.received_virtual_acc[:n]
                np.add(acc, win.C * store.download_cap[:n], out=acc)
            swarm.last_update = win.t
            store._sync = None
        win.active = False


class Swarm(_RateDomain):
    """Population of one file, with its own lazy-progress clock.

    Under ``SUBTORRENT`` a swarm is its own rate domain (one member:
    itself); under ``GLOBAL_POOL`` it is a member of its group's.
    """

    _KERNEL = "mesh"

    def __init__(self, file_id: int):
        self.file_id = file_id
        #: entry key -> active download (membership / identity view)
        self.downloaders: dict[tuple[int, int], DownloadEntry] = {}
        #: structure-of-arrays numeric state backing the entries above
        self.store = PeerStore()
        #: user id -> (bandwidth, user class), seeds that finished everything
        self.real_seeds: dict[int, tuple[float, int]] = _SeedTable()
        #: user id -> (bandwidth, user class), partial seeds (CMFSD)
        self.virtual_seeds: dict[int, tuple[float, int]] = _SeedTable()
        #: time up to which this swarm's progress has been integrated
        self.last_update = 0.0
        #: bumped whenever rates change; completion events carry the epoch
        #: they were planned under so stale ones can be recognised
        self.epoch = 0
        #: tracker-sampled neighbour sets per user (empty dict = full mesh)
        self._neighbors: _VersionedDict = _VersionedDict()
        #: (versions) -> topology-derived kernel state; see
        #: :meth:`_neighbor_topology`
        self._topology_cache: tuple | None = None
        #: incrementally maintained adjacency / seed-reach matrices (built
        #: lazily by the first full topology rebuild); ``None`` until then
        #: or after a structural desync
        self._topo_state: _TopoState | None = None
        #: a SUBTORRENT domain's only member is the swarm itself
        self._members = (self,)
        self._share_cache = None
        #: integral of time this swarm's virtual seeds were uploading
        #: (advanced lazily; see :meth:`settle_virtual_seed`)
        self.virtual_busy_time = 0.0
        #: virtual-seed user id -> ``virtual_busy_time`` at its last settle
        self._virtual_anchor: dict[int, float] = {}
        #: deferred-integration window for this swarm's rate domain.  Under
        #: ``GLOBAL_POOL`` the group rebinds this to its own shared window
        #: (the pool is one rate domain), so :meth:`settle_received` always
        #: sees the integrals that govern this swarm's rows.
        self.win = RateWindow()

    def _swarm(self, file_id: int) -> "Swarm":
        """The member holding ``file_id``'s rows: this swarm itself."""
        return self

    @property
    def neighbors(self) -> dict[int, set[int]]:
        return self._neighbors

    @neighbors.setter
    def neighbors(self, value: Mapping[int, set[int]]) -> None:
        # wholesale replacement (tests, scenario setup) gets a fresh counter;
        # the fresh counter restarts at 0, which could collide with the
        # incremental state's expected versions, so drop the state outright
        self._neighbors = _VersionedDict(value)
        self._topo_state = None

    # ----- membership (store + dict kept in lockstep) ---------------------------

    def add_entry(self, entry: DownloadEntry) -> None:
        """Insert an entry: dict membership plus a store row, atomically."""
        self.downloaders[(entry.user_id, entry.file_id)] = entry
        self.store.attach(entry)
        if self._topo_state is not None:
            self._topo_join(entry.user_id)

    def pop_entry(self, key: tuple[int, int]) -> DownloadEntry:
        """Remove and detach an entry (raises ``KeyError`` when absent)."""
        entry = self.downloaders.pop(key)
        slot = entry._slot
        self.store.detach(entry)
        if self._topo_state is not None:
            self._topo_leave(key[0], slot)
        return entry

    @property
    def n_downloaders(self) -> int:
        return len(self.downloaders)

    @property
    def real_capacity(self) -> float:
        return self.real_seeds.total

    @property
    def virtual_capacity(self) -> float:
        return self.virtual_seeds.total

    def downloader_count_by_class(self, num_classes: int) -> np.ndarray:
        """Vector of downloader counts indexed by user class (1..K)."""
        classes = self.store.column("user_class")
        return np.bincount(classes - 1, minlength=num_classes)[:num_classes].astype(
            float
        )

    def seed_count_by_class(self, num_classes: int) -> np.ndarray:
        """Vector of *real* seed counts indexed by user class (1..K)."""
        counts = np.zeros(num_classes, dtype=float)
        for _bw, klass in self.real_seeds.values():
            counts[klass - 1] += 1
        return counts

    def downloader_count_by_class_stage(self, num_classes: int) -> np.ndarray:
        """Matrix ``M[i-1, j-1]`` of downloaders by (user class, stage).

        The simulator counterpart of Eq. (5)'s ``x^{i,j}`` state (for one
        subtorrent; sum over subtorrents for the torrent-wide population).
        """
        classes = self.store.column("user_class")
        stages = self.store.column("stage")
        flat = (classes - 1) * num_classes + (stages - 1)
        return (
            np.bincount(flat, minlength=num_classes * num_classes)[
                : num_classes * num_classes
            ]
            .reshape(num_classes, num_classes)
            .astype(float)
        )

    # ----- deferred virtual give/take accounting ---------------------------------

    def settle_virtual_seed(
        self, user_id: int, records: Mapping[int, UserRecord] | None
    ) -> None:
        """Flush one virtual seed's deferred upload integral into its record.

        Must run *before* the seed's bandwidth changes or the seed leaves:
        the busy time accumulated since the last settle was served at the
        old bandwidth.
        """
        seed = self.virtual_seeds.get(user_id)
        if seed is None:
            return
        busy = self.virtual_busy_time
        dt = busy - self._virtual_anchor.get(user_id, 0.0)
        self._virtual_anchor[user_id] = busy
        bw = seed[0]
        if dt > 0.0 and bw > 0.0 and records is not None:
            rec = records.get(user_id)
            if rec is not None:
                rec.uploaded_virtual += bw * dt

    def settle_received(
        self, entry: DownloadEntry, records: Mapping[int, UserRecord] | None
    ) -> None:
        """Flush one downloader's deferred received-from-virtual integral.

        Window-aware: while the domain defers integration, the true
        integral is ``stored + cap * C`` and the row is re-biased to
        ``-cap * C`` so the eventual uniform materialise fold lands it back
        at zero-since-this-settle.  The owner must have accumulated the
        window to *now* first.
        """
        if entry._store is not self.store:
            return
        slot = entry._slot
        store = self.store
        acc = float(store.received_virtual_acc[slot])
        win = self.win
        rebias = 0.0
        if win.active and win.C:
            carried = float(store.download_cap[slot]) * win.C
            acc += carried
            rebias = -carried
        if acc or rebias:
            store.received_virtual_acc[slot] = rebias
            if acc and records is not None:
                rec = records.get(entry.user_id)
                if rec is not None:
                    rec.received_virtual += acc

    def sync_virtual_accounting(
        self, records: Mapping[int, UserRecord] | None
    ) -> None:
        """Flush every deferred give/take integral into the user records.

        Idempotent between advances; totals match the old eager per-advance
        accounting up to float summation order.
        """
        if records is None:
            return
        store = self.store
        n = store.n
        if n:
            acc = store.received_virtual_acc[:n]
            user_ids = store.user_id[:n]
            for i in np.flatnonzero(acc != 0.0):
                rec = records.get(int(user_ids[i]))
                if rec is not None:
                    rec.received_virtual += float(acc[i])
            acc[:] = 0.0
        for user_id in self.virtual_seeds:
            self.settle_virtual_seed(user_id, records)

    def connected(self, a: int, b: int) -> bool:
        """Whether users ``a`` and ``b`` hold a connection (either sampled
        the other from the tracker; BitTorrent connections are mutual)."""
        return b in self.neighbors.get(a, ()) or a in self.neighbors.get(b, ())

    # ----- incremental neighbour-topology maintenance ---------------------------
    #
    # Each hook journals one mutation into ``_topo_state`` (when it exists)
    # so the next :meth:`_neighbor_topology` call can serve the adjacency /
    # seed-reach matrices by gathering instead of rebuilding.  Hooks run
    # *after* the underlying mutation; ``_topo_note`` advances the expected
    # version by the mutation's known delta and verifies the real counters
    # agree -- any unjournalled mutation desyncs the check and drops the
    # state, falling back to a full rebuild.

    def set_neighbor_sample(self, user_id: int, sample: set) -> None:
        """Install a user's tracker sample (replaces any previous one)."""
        state = self._topo_state
        old = self._neighbors.get(user_id) if state is not None else None
        self._neighbors[user_id] = sample
        state = self._topo_note(0)
        if state is not None:
            self._topo_sample_changed(state, user_id, old or (), sample)

    def drop_neighbor_sample(self, user_id: int) -> None:
        """Remove a user's tracker sample (raises ``KeyError`` when absent)."""
        state = self._topo_state
        old = self._neighbors.get(user_id) if state is not None else None
        del self._neighbors[user_id]
        state = self._topo_note(0)
        if state is not None:
            self._topo_sample_changed(state, user_id, old or (), ())

    def _topo_note(self, index: int) -> "_TopoState | None":
        """Advance one expected version component; drop the state on desync."""
        state = self._topo_state
        if state is None:
            return None
        versions = state.versions
        versions[index] += 1
        if (
            self._neighbors.version != versions[0]
            or self.store.version != versions[1]
            or self.virtual_seeds.version != versions[2]
            or self.real_seeds.version != versions[3]
        ):
            self._topo_state = None
            return None
        return state

    def _topo_partners(self, state: _TopoState, user_id: int):
        """Users connected to ``user_id``: sampled by it or sampling it."""
        mine = self._neighbors.get(user_id)
        back = state.rev.get(user_id)
        if mine and back:
            return mine | back
        return mine or back or ()

    def _topo_join(self, user_id: int) -> None:
        """A downloader attached at the store's last slot."""
        state = self._topo_note(1)
        if state is None:
            return
        n = self.store.n  # already includes the fresh row
        slot = n - 1
        if n > state.adj.shape[0]:
            state.grow_slots(n)
        state.slot_user.append(user_id)
        state.slot_of[user_id] = slot
        adj = state.adj
        conn = state.conn
        slot_of = state.slot_of
        seed_rows = state.seed_rows
        for v in self._topo_partners(state, user_id):
            w_slot = slot_of.get(v)
            if w_slot is not None and w_slot != slot:
                adj[slot, w_slot] = True
                adj[w_slot, slot] = True
            row = seed_rows.get(v)
            if row is not None:
                conn[row, slot] = 1.0
        reg = current_registry()
        if reg.enabled:
            reg.inc("sim.kernel.neighbor.rows")

    def _topo_leave(self, user_id: int, slot: int) -> None:
        """A downloader detached; the store swap-filled its slot."""
        state = self._topo_note(1)
        if state is None:
            return
        n_old = self.store.n + 1  # the store already dropped the row
        last = n_old - 1
        adj = state.adj
        conn = state.conn
        slot_user = state.slot_user
        if slot != last:
            moved = slot_user[last]
            slot_user[slot] = moved
            state.slot_of[moved] = slot
            adj[slot, :n_old] = adj[last, :n_old]
            adj[:n_old, slot] = adj[:n_old, last]
            adj[slot, slot] = False
            conn[:, slot] = conn[:, last]
        slot_user.pop()
        del state.slot_of[user_id]
        adj[last, :n_old] = False
        adj[:n_old, last] = False
        conn[:, last] = 0.0
        reg = current_registry()
        if reg.enabled:
            reg.inc("sim.kernel.neighbor.rows")

    def _topo_sample_changed(
        self, state: _TopoState, user_id: int, old, new
    ) -> None:
        """Re-derive the edges whose sample endpoint changed (O(degree))."""
        rev = state.rev
        for v in old:
            if v not in new:
                back = rev.get(v)
                if back is not None:
                    back.discard(user_id)
        for v in new:
            if v not in old:
                rev.setdefault(v, set()).add(user_id)
        neighbors = self._neighbors
        slot_of = state.slot_of
        seed_rows = state.seed_rows
        slot_u = slot_of.get(user_id)
        row_u = seed_rows.get(user_id)
        adj = state.adj
        conn = state.conn
        changed = set(old) ^ set(new)
        for v in changed:
            linked = (v in new) or (user_id in neighbors.get(v, ()))
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
        reg = current_registry()
        if reg.enabled:
            reg.inc("sim.kernel.neighbor.rows")

    def _topo_seed_added(self, user_id: int, virtual: bool) -> None:
        """A seed allocation appeared; ensure the user has a reach row."""
        state = self._topo_note(2 if virtual else 3)
        if state is None:
            return
        if user_id in state.seed_rows:
            return  # the other table already gave this user a row
        row = len(state.row_users)
        if row >= state.conn.shape[0]:
            state.grow_rows(row + 1)
        state.row_users.append(user_id)
        state.seed_rows[user_id] = row
        conn = state.conn
        slot_of = state.slot_of
        for v in self._topo_partners(state, user_id):
            w_slot = slot_of.get(v)
            if w_slot is not None:
                conn[row, w_slot] = 1.0
        reg = current_registry()
        if reg.enabled:
            reg.inc("sim.kernel.neighbor.rows")

    def _topo_seed_removed(self, user_id: int, virtual: bool) -> None:
        """A seed allocation left; drop the reach row when none remain."""
        state = self._topo_note(2 if virtual else 3)
        if state is None:
            return
        if user_id in self.virtual_seeds or user_id in self.real_seeds:
            return  # still holds the other allocation: the row stays
        row = state.seed_rows.pop(user_id, None)
        if row is None:
            return
        row_users = state.row_users
        last = len(row_users) - 1
        conn = state.conn
        if row != last:
            moved = row_users[last]
            row_users[row] = moved
            state.seed_rows[moved] = row
            conn[row] = conn[last]
        row_users.pop()
        conn[last] = 0.0
        reg = current_registry()
        if reg.enabled:
            reg.inc("sim.kernel.neighbor.rows")

    def _topo_seed_updated(self, user_id: int, virtual: bool) -> None:
        """A seed's bandwidth changed in place: reach rows are unaffected
        (bandwidth enters at gather time), only the version advances."""
        del user_id
        self._topo_note(2 if virtual else 3)

    def recompute_rates(self, eta: float) -> None:
        """Refresh entry rates from swarm-local allocations (full kernel).

        Runs the domain's share kernel (see :meth:`_share_pass`); under
        ``neighbor_aware`` the full-mesh math is replaced by per-connection
        flows (see :meth:`_recompute_rates_neighbor_aware`).
        """
        if self.neighbor_aware:
            # full-vs-incremental accounting happens inside
            # _neighbor_topology, which knows whether it rebuilt or gathered
            self.epoch += 1
            self._recompute_rates_neighbor_aware(eta)
            return
        self._share_pass(eta)

    def recompute_rates_incremental(
        self, eta: float, entries: "list[DownloadEntry] | None" = None
    ) -> bool:
        """Refresh rates from the cached capacity shares (see
        :meth:`_share_refresh`); ``False`` on a cache miss or under
        neighbour-aware allocation, whose topology products have their own
        cache.  :meth:`recompute_rates` is the oracle this must match."""
        if self.neighbor_aware:
            return False
        return self._share_refresh(eta, entries)

    def _recompute(self, eta: float, entries=None, *, incremental=True) -> None:
        """Incremental refresh when allowed and valid, else the full kernel."""
        if not (incremental and self.recompute_rates_incremental(eta, entries)):
            self.recompute_rates(eta)

    def _recompute_rates_neighbor_aware(self, eta: float) -> None:
        """Bounded-connectivity allocation as adjacency matrix + matmul.

        * Tit-for-tat returns ``eta * upload`` only to downloaders with at
          least one connected downloader partner to trade with.
        * Each seed allocation is split across the downloaders *connected
          to that seed*, proportionally to their download capacity; a seed
          with no connected downloader idles (the mixing loss the fluid
          models assume away).

        Connections are mutual, so the downloader adjacency is the
        symmetrised sample matrix; seed service is a single matrix-vector
        product of the seed-connectivity matrix against per-seed
        bandwidth-per-unit-capacity coefficients.
        """
        store = self.store
        n = store.n
        if n == 0:
            return
        caps = store.column("download_cap")
        tft = store.column("tft_upload")

        has_partner, connectivity, bandwidth, virtual_vec = self._neighbor_topology()
        rate = np.where(has_partner, eta * tft, 0.0)
        if connectivity is not None:
            reachable_cap = connectivity @ caps
            coeff = np.divide(
                bandwidth,
                reachable_cap,
                out=np.zeros(bandwidth.size),
                where=reachable_cap > 0,
            )
            rate = rate + caps * (connectivity.T @ coeff)
            rate_from_virtual = caps * (connectivity.T @ (coeff * virtual_vec))
        else:
            rate_from_virtual = np.zeros(n)
        _apply_download_caps(rate, rate_from_virtual, caps)
        store.rate[:n] = rate
        store.rate_from_virtual[:n] = rate_from_virtual

    def _neighbor_topology(self):
        """Topology-derived kernel state, cached across unchanged epochs.

        Returns ``(has_partner, connectivity, bandwidth, virtual_vec)``:
        which downloaders have a connected downloader partner, the
        seed-allocation x downloader-slot connectivity matrix (``None``
        when no seed has positive bandwidth), per-allocation bandwidths
        and a 0/1 virtual-allocation indicator.

        Everything here depends only on membership (store slots), the
        tracker samples and the seed tables -- not on capacities or
        progress -- so it is cached and rebuilt only when one of those
        version counters moves.  Between full rebuilds the incrementally
        maintained ``_topo_state`` (see :class:`_TopoState`) serves a
        changed topology by *gathering* from its live matrices -- O(n)
        row slices instead of the O(edges + n^2) reconstruction -- so a
        full rebuild only happens when the state was desynced by a direct
        (unjournalled) mutation.

        Counters: ``sim.kernel.neighbor.incremental`` counts product-cache
        hits and state gathers, ``sim.kernel.neighbor.full`` /
        ``sim.kernel.neighbor.peers`` count full rebuilds and the rows
        they touched, ``sim.kernel.neighbor.rows`` (incremented by the
        notify hooks) counts O(degree) state maintenance operations.
        """
        neighbors = self._neighbors
        versions = (
            neighbors.version,
            self.store.version,
            self.virtual_seeds.version,
            self.real_seeds.version,
        )
        reg = current_registry()
        if self._topology_cache is not None and self._topology_cache[0] == versions:
            if reg.enabled:
                reg.inc("sim.kernel.neighbor.incremental")
            return self._topology_cache[1]

        state = self._topo_state
        if state is not None:
            if tuple(state.versions) == versions:
                topology = self._topo_products(state)
                if topology is not None:
                    self._topology_cache = (versions, topology)
                    if reg.enabled:
                        reg.inc("sim.kernel.neighbor.incremental")
                    return topology
            # desynced (direct mutation) or internally inconsistent: rebuild
            self._topo_state = None

        store = self.store
        n = store.n
        user_ids = store.column("user_id")
        if reg.enabled:
            reg.inc("sim.kernel.neighbor.full")
            reg.inc("sim.kernel.neighbor.peers", n)

        # Flatten the tracker samples into one (src, dst) edge array; all
        # subsequent id -> slot mapping is vectorised (searchsorted), which
        # is what keeps this kernel ahead of the scalar loop -- per-edge
        # Python dict lookups would dominate the matmul.
        if neighbors:
            keys = np.fromiter(neighbors.keys(), dtype=np.int64, count=len(neighbors))
            degrees = np.fromiter(
                (len(s) for s in neighbors.values()),
                dtype=np.int64,
                count=len(neighbors),
            )
            n_edges = int(degrees.sum())
            dst = np.fromiter(
                (u for s in neighbors.values() for u in s),
                dtype=np.int64,
                count=n_edges,
            )
            src = np.repeat(keys, degrees)
        else:
            src = dst = np.empty(0, dtype=np.int64)

        slot_order = np.argsort(user_ids, kind="stable")
        sorted_ids = user_ids[slot_order]

        def to_slot(ids: np.ndarray) -> np.ndarray:
            """Downloader slot of each user id (-1 when not a downloader)."""
            pos = np.minimum(np.searchsorted(sorted_ids, ids), n - 1)
            return np.where(sorted_ids[pos] == ids, slot_order[pos], -1)

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
            for virtual, table in ((True, self.virtual_seeds), (False, self.real_seeds))
            for seed_user, (bw, _) in table.items()
            if bw > 0
        ]
        # Connection rows are per seed *user* (a user may hold a virtual
        # and a real seed at once) and are built for every seed user --
        # zero-bandwidth allocations included -- so the reconstructed
        # incremental state stays valid when a bandwidth later turns
        # positive.  Only positive-bandwidth rows enter the product.
        seed_users = sorted(set(self.virtual_seeds) | set(self.real_seeds))
        if seed_users:
            unique_ids = np.array(seed_users, dtype=np.int64)

            def to_seed_row(ids: np.ndarray) -> np.ndarray:
                if ids.size == 0:
                    return np.empty(0, dtype=np.int64)
                pos = np.minimum(
                    np.searchsorted(unique_ids, ids), unique_ids.size - 1
                )
                return np.where(unique_ids[pos] == ids, pos, -1)

            reach = np.zeros((unique_ids.size, n))
            # downloader sampled the seed (src is a slot, dst is a seed)
            seed_of_dst = to_seed_row(dst)
            hit = (src_slot >= 0) & (seed_of_dst >= 0)
            reach[seed_of_dst[hit], src_slot[hit]] = 1.0
            # seed sampled the downloader (src is a seed, dst is a slot)
            seed_of_src = to_seed_row(src)
            hit = (seed_of_src >= 0) & (dst_slot >= 0)
            reach[seed_of_src[hit], dst_slot[hit]] = 1.0
        else:
            unique_ids = reach = None
        if seeds:
            seed_ids = np.array([s for s, _, _ in seeds], dtype=np.int64)
            rows = np.searchsorted(unique_ids, seed_ids)
            connectivity = reach[rows]
            bandwidth = np.array([bw for _, bw, _ in seeds])
            virtual_vec = np.array([float(v) for *_, v in seeds])
        else:
            connectivity = bandwidth = virtual_vec = None

        self._topo_state = _TopoState(
            n, adjacency, user_ids, unique_ids, reach, neighbors, versions
        )

        topology = (has_partner, connectivity, bandwidth, virtual_vec)
        self._topology_cache = (versions, topology)
        return topology

    def _topo_products(self, state: "_TopoState"):
        """Gather the topology tuple from the live incremental state.

        Returns ``None`` when the state turns out internally inconsistent
        (a seed allocation without a reach row), signalling the caller to
        fall back to a full rebuild.  The gathered arrays are bit-exact
        matches of the full rebuild's: boolean any() over the same
        adjacency block, and a fancy-indexed (fresh, C-contiguous) copy
        of the same reach rows.
        """
        n = self.store.n
        has_partner = state.adj[:n, :n].any(axis=1)
        seed_versions = (state.versions[2], state.versions[3])
        prod = state.prod
        if prod is None or prod[0] != seed_versions:
            # the seed-side plan (which rows enter the product, at what
            # bandwidth) only moves with the seed tables, which churn far
            # slower than membership/samples -- rebuild it lazily
            seeds = [
                (seed_user, bw, virtual)
                for virtual, table in (
                    (True, self.virtual_seeds),
                    (False, self.real_seeds),
                )
                for seed_user, (bw, _) in table.items()
                if bw > 0
            ]
            if seeds:
                seed_rows = state.seed_rows
                try:
                    rows = [seed_rows[s] for s, _, _ in seeds]
                except KeyError:
                    return None
                bandwidth = np.array([bw for _, bw, _ in seeds])
                virtual_vec = np.array([float(v) for *_, v in seeds])
            else:
                rows = bandwidth = virtual_vec = None
            prod = state.prod = (seed_versions, rows, bandwidth, virtual_vec)
        _, rows, bandwidth, virtual_vec = prod
        if rows is not None:
            connectivity = state.conn[:, :n][rows]
        else:
            connectivity = None
        return (has_partner, connectivity, bandwidth, virtual_vec)

    # ----- completion queries (one shared snapshot) -----------------------------

    def work_snapshot(self) -> WorkSnapshot:
        """Freeze (entries, remaining, rate) under the current epoch."""
        store = self.store
        n = store.n
        return WorkSnapshot(
            epoch=self.epoch,
            time=self.last_update,
            entries=tuple(store.entries),
            remaining=store.remaining[:n].copy(),
            rate=store.rate[:n].copy(),
        )

    def next_completion_time(self) -> float:
        """Absolute time of the earliest completion (``inf`` if none)."""
        store = self.store
        n = store.n
        if n == 0:
            return math.inf
        if n <= SCALAR_KERNEL_CUTOFF:
            remaining_l = store.remaining[:n].tolist()
            rate_l = store.rate[:n].tolist()
            eta_min = math.inf
            for i in range(n):
                rem = remaining_l[i]
                if rem <= 0.0:
                    # a finished entry is due immediately regardless of rate
                    return self.last_update
                r = rate_l[i]
                if r > 0.0:
                    eta = rem / r
                    if eta < eta_min:
                        eta_min = eta
            if eta_min <= 0.0:
                return self.last_update
            return self.last_update + eta_min
        remaining = store.remaining[:n]
        rate = store.rate[:n]
        etas = np.full(n, math.inf)
        with np.errstate(over="ignore"):  # tiny rate / huge remaining -> inf is right
            np.divide(remaining, rate, out=etas, where=rate > 0.0)
        eta_min = float(etas.min())
        # a finished entry is due immediately regardless of its rate
        if eta_min <= 0.0 or bool((remaining <= 0.0).any()):
            return self.last_update
        return self.last_update + eta_min

    def due_entries(self, slack: float) -> list[DownloadEntry]:
        store = self.store
        n = store.n
        if n <= SCALAR_KERNEL_CUTOFF:
            remaining = store.remaining[:n].tolist()
            entries = store.entries
            return [entries[i] for i in range(n) if remaining[i] <= slack]
        remaining = store.remaining[:n]
        return [store.entries[i] for i in np.flatnonzero(remaining <= slack)]


def _win_due(
    win: RateWindow, store: PeerStore, eps: float
) -> "tuple[float, list[DownloadEntry], float]":
    """One store's earliest completion under the open window, its rows due
    within ``eps``, and the earliest *non-due* completion (the bound the
    window keeps once the due rows leave; ``inf`` when every row is due).

    The remaining-work expression matches the fold in
    :meth:`_RateDomain.win_materialize` element-wise, so every judgement
    made here agrees bit-for-bit with what a materialise would produce.
    """
    t = win.t
    n = store.n
    if not n:
        return math.inf, [], math.inf
    if n <= SCALAR_KERNEL_CUTOFF:
        # scalar fast path (same cutoff as the rate kernels): python-float
        # arithmetic with the exact expression shape of the vector pass,
        # so the judgements agree bit-for-bit
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
    # rates are sums of nonnegative terms, so plain division suffices: a
    # stalled positive row divides to ``+inf``
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


def _write_rates(
    store: PeerStore, share: "list | np.ndarray", eta: float, pool: float, sv: float
) -> None:
    """Write one store's rates from its capacity shares and the seed pool.

    ``rate = eta * tft + share * pool`` and ``rate_from_virtual = share *
    sv``, clipped at the download cap.  A list ``share`` (small domains)
    takes a scalar loop performing the same IEEE operations element-wise as
    the vector path, so results are identical.
    """
    n = len(share)
    if type(share) is list:
        caps = store.download_cap[:n].tolist()
        tft = store.tft_upload[:n].tolist()
        rate_l = [0.0] * n
        rfv_l = [0.0] * n
        for i in range(n):
            s = share[i]
            r = eta * tft[i] + s * pool
            rv = s * sv
            c = caps[i]
            if r > c > 0.0:
                rv *= c / r
                r = c
            rate_l[i] = r
            rfv_l[i] = rv
        store.rate[:n] = rate_l
        store.rate_from_virtual[:n] = rfv_l
        return
    caps = store.download_cap[:n]
    rate = eta * store.tft_upload[:n] + share * pool
    rate_from_virtual = share * sv
    _apply_download_caps(rate, rate_from_virtual, caps)
    store.rate[:n] = rate
    store.rate_from_virtual[:n] = rate_from_virtual


def _apply_download_caps(
    rate: np.ndarray, rate_from_virtual: np.ndarray, caps: np.ndarray
) -> None:
    """Clip rates at the download link in place, rescaling the virtual part.

    Mirrors the scalar rule ``if rate > cap > 0``: entries with a zero cap
    are never clipped (they already receive no seed share).
    """
    over = (rate > caps) & (caps > 0)
    if np.any(over):
        scale = caps[over] / rate[over]
        rate_from_virtual[over] *= scale
        rate[over] = caps[over]


class SwarmGroup(_RateDomain):
    """One torrent: swarms for each published file plus seed bookkeeping.

    Under ``GLOBAL_POOL`` the group is one rate domain over all its member
    swarms; under ``SUBTORRENT`` each member swarm is its own (see
    ``_domains``).

    Parameters
    ----------
    group_id:
        Identifier (torrent index).
    file_ids:
        Files published by this torrent; one swarm each.
    eta:
        Downloader tit-for-tat efficiency.
    policy:
        Seed-placement policy (see :class:`SeedPolicy`).
    records:
        Optional ``user_id -> UserRecord`` mapping that virtual-seed
        give/take (the Adapt observable) is flushed into.  Accounting is
        deferred: advancement only grows per-swarm integrals, which
        :meth:`sync_accounting`, :meth:`sync_user_accounting` and the
        per-row settle hooks fold into the records.
    """

    _KERNEL = "pool"

    def __init__(
        self,
        group_id: int,
        file_ids: tuple[int, ...],
        *,
        eta: float,
        policy: SeedPolicy = SeedPolicy.SUBTORRENT,
        records: Mapping[int, UserRecord] | None = None,
    ):
        if not file_ids:
            raise ValueError("a swarm group needs at least one file")
        if not 0 < eta <= 1:
            raise ValueError(f"eta must be in (0, 1], got {eta}")
        self.group_id = group_id
        self.eta = eta
        self.policy = policy
        self.swarms: dict[int, Swarm] = {f: Swarm(f) for f in file_ids}
        self.records = records
        self._members = tuple(self.swarms.values())
        self._share_cache = None
        #: deferred-integration window for the pooled rate domain; under
        #: ``GLOBAL_POOL`` every member swarm aliases it so row-level hooks
        #: (:meth:`Swarm.settle_received`) see the governing integrals
        self.win = RateWindow()
        #: the rate domains this group's rows live in: the group itself
        #: when pooled, else one per member swarm
        self._domains: tuple[_RateDomain, ...] = self._members
        if policy is SeedPolicy.GLOBAL_POOL:
            self._domains = (self,)
            for swarm in self._members:
                swarm.win = self.win

    # ----- membership ---------------------------------------------------------

    def _swarm(self, file_id: int) -> Swarm:
        try:
            return self.swarms[file_id]
        except KeyError:
            raise KeyError(
                f"file {file_id} is not published by group {self.group_id}"
            ) from None

    def add_downloader(self, entry: DownloadEntry) -> None:
        key = (entry.user_id, entry.file_id)
        swarm = self._swarm(entry.file_id)
        if key in swarm.downloaders:
            raise ValueError(f"duplicate download entry {key} in group {self.group_id}")
        swarm.add_entry(entry)

    def remove_downloader(self, user_id: int, file_id: int) -> DownloadEntry:
        swarm = self._swarm(file_id)
        try:
            entry = swarm.downloaders[(user_id, file_id)]
        except KeyError:
            raise KeyError(
                f"no download entry (user={user_id}, file={file_id}) "
                f"in group {self.group_id}"
            ) from None
        # the entry's deferred received-from-virtual integral leaves with it
        swarm.settle_received(entry, self.records)
        return swarm.pop_entry((user_id, file_id))

    def get_downloader(self, user_id: int, file_id: int) -> DownloadEntry:
        return self._swarm(file_id).downloaders[(user_id, file_id)]

    def add_seed(
        self,
        user_id: int,
        file_id: int,
        bandwidth: float,
        user_class: int,
        *,
        virtual: bool,
    ) -> None:
        """Attach seed bandwidth for ``user_id`` to ``file_id``'s swarm.

        Under ``GLOBAL_POOL`` the capacity is pooled anyway, but the file
        attachment is kept so population metrics can report per-swarm seed
        counts and so a policy switch is purely an allocation-math change.
        """
        if bandwidth < 0:
            raise ValueError(f"seed bandwidth must be nonnegative, got {bandwidth}")
        swarm = self._swarm(file_id)
        table = swarm.virtual_seeds if virtual else swarm.real_seeds
        if user_id in table:
            raise ValueError(
                f"user {user_id} already has a {'virtual' if virtual else 'real'} "
                f"seed on file {file_id}"
            )
        table[user_id] = (bandwidth, user_class)
        if swarm._topo_state is not None:
            swarm._topo_seed_added(user_id, virtual)
        if virtual:
            # upload accounting starts now, not at swarm creation
            swarm._virtual_anchor[user_id] = swarm.virtual_busy_time

    def remove_seed(self, user_id: int, file_id: int, *, virtual: bool) -> float:
        """Detach a seed allocation; returns the bandwidth it held."""
        swarm = self._swarm(file_id)
        table = swarm.virtual_seeds if virtual else swarm.real_seeds
        if virtual:
            # flush the deferred upload integral before the seed vanishes
            swarm.settle_virtual_seed(user_id, self.records)
            swarm._virtual_anchor.pop(user_id, None)
        try:
            bw, _ = table.pop(user_id)
        except KeyError:
            raise KeyError(
                f"user {user_id} has no {'virtual' if virtual else 'real'} seed "
                f"on file {file_id}"
            ) from None
        if swarm._topo_state is not None:
            swarm._topo_seed_removed(user_id, virtual)
        return bw

    def set_seed_bandwidth(
        self, user_id: int, file_id: int, bandwidth: float, *, virtual: bool
    ) -> None:
        """Adjust an existing allocation in place (Adapt rho changes)."""
        if bandwidth < 0:
            raise ValueError(f"seed bandwidth must be nonnegative, got {bandwidth}")
        swarm = self._swarm(file_id)
        table = swarm.virtual_seeds if virtual else swarm.real_seeds
        if user_id not in table:
            raise KeyError(f"user {user_id} has no seed on file {file_id}")
        if virtual:
            # busy time accumulated so far was served at the old bandwidth
            swarm.settle_virtual_seed(user_id, self.records)
        _, klass = table[user_id]
        table[user_id] = (bandwidth, klass)
        if swarm._topo_state is not None:
            swarm._topo_seed_updated(user_id, virtual)

    # ----- queries --------------------------------------------------------------

    def all_entries(self) -> Iterator[DownloadEntry]:
        for swarm in self.swarms.values():
            yield from swarm.downloaders.values()

    @property
    def n_downloaders(self) -> int:
        return sum(s.n_downloaders for s in self.swarms.values())

    def total_virtual_capacity(self) -> float:
        return sum(s.virtual_seeds.total for s in self.swarms.values())

    def total_real_capacity(self) -> float:
        return sum(s.real_seeds.total for s in self.swarms.values())

    # ----- deferred accounting ----------------------------------------------------

    def sync_accounting(self) -> None:
        """Flush all deferred virtual give/take integrals into the records."""
        for swarm in self.swarms.values():
            swarm.sync_virtual_accounting(self.records)

    def sync_user_accounting(self, user_id: int) -> None:
        """Flush one user's deferred give/take integrals (Adapt ticks)."""
        records = self.records
        if records is None:
            return
        for swarm in self.swarms.values():
            entry = swarm.downloaders.get((user_id, swarm.file_id))
            if entry is not None:
                swarm.settle_received(entry, records)
            if user_id in swarm.virtual_seeds:
                swarm.settle_virtual_seed(user_id, records)

    # ----- the pool kernel (GLOBAL_POOL) ---------------------------------------------

    def recompute_rates_all(self) -> None:
        """Refresh every entry's rate from the group-wide pool (full kernel,
        see :meth:`_share_pass`)."""
        self._share_pass(self.eta)

    def recompute_rates_all_incremental(
        self, entries: "list[DownloadEntry] | None" = None
    ) -> bool:
        """Pool-coupled counterpart of :meth:`Swarm.recompute_rates_incremental`
        (see :meth:`_share_refresh`); ``False`` on cache miss."""
        return self._share_refresh(self.eta, entries)

    def _recompute(self, eta: float, entries=None, *, incremental=True) -> None:
        """Incremental refresh when allowed and valid, else the full kernel
        (``eta`` is the group's own)."""
        del eta
        if not (incremental and self.recompute_rates_all_incremental(entries)):
            self.recompute_rates_all()

    def next_completion_time(self) -> float:
        """Earliest completion over the whole group (``inf`` if none)."""
        return min(
            (s.next_completion_time() for s in self.swarms.values()),
            default=math.inf,
        )
