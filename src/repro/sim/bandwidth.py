"""Pure bandwidth-allocation math (the paper's Sec.-2 assumptions).

Kept free of simulator state so the rules are unit-testable in isolation:

* Assumption 1 (tit-for-tat): a downloader receives ``eta`` times its own
  tit-for-tat upload contribution from the downloader pool.
* Assumption 2 (altruistic seeds): aggregate seed capacity is divided among
  downloaders proportionally to their download bandwidth.

The module also hosts :class:`RateWindow`, the deferred-integration state
that lets the event-driven simulator handle rate changes in O(1): under
assumptions 1+2 every unclipped full-mesh rate factorises as

    ``rate_k = eta * tft_k + cap_k * q``   with   ``q = pool / total_cap``

so between completions the *entire* per-peer trajectory is parameterised by
the scalars ``q`` (and ``qv`` for the virtual-seed part), and integrating
progress only needs the running integrals ``B = int q dt`` /
``C = int qv dt`` plus the elapsed time.  Per-row state is materialised
(folded) only at completion events or when something actually reads it.

Completion events ask the window which rows are due (:meth:`RateWindow.due`).
Rows of one store that share ``(tft_upload, download_cap)`` form a *lane*:
every row of a lane gets the same rate outside a window and the same
subtraction inside one, so a lane's order by stored remaining work never
changes, and its due rows are a prefix.  Each store keeps its rows in lanes
(:meth:`repro.sim.peerstore.PeerStore.lanes`), and the judgement walks each
lane from its head, so it costs O(lanes + due rows) rather than O(rows).
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.obs import current_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.entities import DownloadEntry
    from repro.sim.peerstore import PeerStore

__all__ = ["SCALAR_KERNEL_CUTOFF", "RateWindow", "downloader_rates", "seed_share"]

#: Swarms at or below this size take scalar (pure-Python) kernel paths --
#: a dozen ufunc launches cost ~40us regardless of n, which dwarfs the
#: arithmetic for the small swarms event-driven runs are made of.  The
#: scalar loops perform the same IEEE operations element-wise, so results
#: are identical; only the capacity *sum* differs in rounding from NumPy's
#: pairwise reduction, and the path choice depends only on n (part of the
#: simulation state), so every run makes the same choice deterministically.
#: The due judgement (:meth:`RateWindow.due`) makes the same split by
#: lanes: a store with more lanes than this takes one vector pass.
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

_slot_of = attrgetter("_slot")


class RateWindow:
    """Deferred-integration window for one rate domain.

    While ``active``, the store's ``remaining`` / ``received_virtual_acc``
    arrays are *frozen at window start* (plus per-row join biases) and the
    true values are implied by the accumulated integrals:

    ``remaining_k(t) = stored_k - eta*tft_k*(t - t_start) - cap_k*B``
    ``received_k(t)  = stored_k + cap_k*C``

    Rows that join mid-window are *biased* on attach (their stored values
    are pre-charged with the integrals accumulated so far) so one uniform
    vector fold materialises every row correctly, with no per-row anchors.

    Invariants the owner must maintain:

    * ``accumulate`` runs **before** any mutation (the integrals up to now
      were produced under the old ``q``/``qv``);
    * ``q <= q_max`` at all times (no row's unclipped rate may exceed its
      download cap inside a window; ``q_max`` is a conservative lower bound
      for the true clip threshold ``min_k (1 - eta*tft_k/cap_k)``);
    * ``bound`` is a lower bound on the domain's next completion time --
      the completion event fires at ``bound`` and re-plans exactly, so a
      conservative bound costs a wasted wake-up, never a wrong trajectory.
    """

    __slots__ = (
        "active",
        "eta",
        "t_start",
        "t",
        "B",
        "C",
        "q",
        "qv",
        "q_max",
        "ratio_min",
        "total_cap",
        "bound",
    )

    def __init__(self) -> None:
        self.active = False
        self.eta = 0.0
        self.t_start = 0.0
        self.t = 0.0
        self.B = 0.0
        self.C = 0.0
        self.q = 0.0
        self.qv = 0.0
        self.q_max = math.inf
        self.ratio_min = math.inf
        self.total_cap = 0.0
        self.bound = math.inf

    def start(
        self,
        *,
        eta: float,
        t: float,
        q: float,
        qv: float,
        q_max: float,
        ratio_min: float,
        total_cap: float,
        bound: float,
    ) -> None:
        self.active = True
        self.eta = eta
        self.t_start = t
        self.t = t
        self.B = 0.0
        self.C = 0.0
        self.q = q
        self.qv = qv
        self.q_max = q_max
        self.ratio_min = ratio_min
        self.total_cap = total_cap
        self.bound = bound

    def accumulate(self, t: float) -> float:
        """Extend the integrals to ``t`` under the current ``q``/``qv``.

        Returns the elapsed ``dt`` (0 for same-timestamp batches) so the
        caller can advance its busy-time integrals alongside.
        """
        dt = t - self.t
        if dt <= 0.0:
            return 0.0
        self.B += self.q * dt
        if self.qv:
            self.C += self.qv * dt
        self.t = t
        return dt

    def refresh(self, q: float, qv: float, n: int) -> bool:
        """Adopt new rate parameters after a mutation; update the bound.

        Returns ``False`` when the window cannot absorb the change (a row
        could clip, or previously stalled rows might start moving, which a
        scalar bound cannot track) -- the caller must then materialise and
        fall back to the exact per-event path.
        """
        if q > self.q_max:
            return False  # a row's unclipped rate would exceed its cap
        old = self.q
        if q > old:
            bound = self.bound
            if bound == math.inf:
                # stalled rows (rate 0) may start moving under a larger q;
                # only an empty domain keeps an infinite bound safely
                if n > 0:
                    return False
            else:
                # row ``i`` speeds up by ``(x_i + q') / (x_i + q)`` with
                # ``x_i = eta*tft_i/cap_i``, which is largest at the
                # smallest ratio -- so every completion shrinks toward now
                # by at most ``(m + q') / (m + q)``.  (With ``m = 0`` this
                # degrades to the plain ``q'/q`` factor.)
                m = self.ratio_min
                num = m + old
                if num <= 0.0:
                    self.bound = self.t  # unbounded speed-up: re-plan now
                else:
                    self.bound = self.t + (bound - self.t) * (num / (m + q))
        self.q = q
        self.qv = qv
        return True

    def note_row(self, eta_row: float) -> None:
        """Fold one row's time-to-completion into the bound (joins)."""
        if eta_row < math.inf:
            t = self.t + eta_row
            if t < self.bound:
                self.bound = t

    def due(
        self, stores: "Iterable[PeerStore]", eps: float
    ) -> "tuple[float, list[DownloadEntry], float]":
        """Rows of ``stores`` due within ``eps`` of now, judged in window space.

        Returns ``(t_next, due, t_rest)``: the earliest completion time
        (``inf`` when empty), the due rows sorted by (store, slot), and the
        earliest completion among the rows that stay -- the window's next
        bound once the due rows leave.  A row's remaining work is
        ``stored - (coef_t*tft + B*cap)``, the fold
        :meth:`~repro.sim.swarm._RateDomain.win_materialize` applies,
        element-wise identical, so an event that fired at a stale
        conservative bound can re-plan without materialising.  The caller
        must have accumulated the window to *now* first.

        Each lane is walked from its head and stops at its first row that
        is not due: that row is the lane's earliest non-due completion, and
        every row behind it completes no earlier.  A store with more than
        ``SCALAR_KERNEL_CUTOFF`` lanes takes one vector pass over all its
        rows instead.
        """
        t = self.t
        eta_w = self.eta
        q = self.q
        B = self.B
        coef_t = eta_w * (t - self.t_start)
        e_next = e_rest = math.inf
        due: list[DownloadEntry] = []
        rows = 0
        for store in stores:
            n = store.n
            if not n:
                continue
            lanes = store.lanes()
            if len(lanes) > SCALAR_KERNEL_CUTOFF:
                rows += n
                tft = store.tft_upload[:n]
                caps = store.download_cap[:n]
                remaining = store.remaining[:n] - (coef_t * tft + B * caps)
                rate = eta_w * tft + q * caps
                # rates are sums of nonnegative terms, so plain division
                # suffices: a stalled positive row divides to ``+inf``
                with np.errstate(divide="ignore", invalid="ignore"):
                    etas = remaining / rate
                etas[remaining <= 0.0] = 0.0  # done rows are due regardless of rate
                e_min = float(etas.min())
                if e_min < e_next:
                    e_next = e_min
                if e_min > eps:
                    if e_min < e_rest:
                        e_rest = e_min
                    continue
                due_mask = etas <= eps
                entries = store.entries
                due.extend(entries[i] for i in np.flatnonzero(due_mask))
                rest = etas[~due_mask]
                if rest.size:
                    e_min = float(rest.min())
                    if e_min < e_rest:
                        e_rest = e_min
                continue
            remaining = store.remaining
            found: list[DownloadEntry] = []
            for (tf, cp), lane in lanes.items():
                sub = coef_t * tf + B * cp
                rate = eta_w * tf + q * cp
                for entry in lane:
                    rows += 1
                    r = remaining.item(entry._slot) - sub
                    if r <= 0.0:
                        e = 0.0
                    else:
                        e = r / rate if rate > 0.0 else math.inf
                    if e < e_next:
                        e_next = e
                    if e <= eps:
                        found.append(entry)
                    else:
                        if e < e_rest:
                            e_rest = e
                        break
            if len(found) > 1:
                found.sort(key=_slot_of)
            due.extend(found)
        reg = current_registry()
        if reg.enabled:
            reg.inc("sim.window.due.scans")
            reg.inc("sim.window.due.rows", rows)
        return t + e_next, due, t + e_rest


def seed_share(download_caps: Sequence[float], capacity: float) -> np.ndarray:
    """Split ``capacity`` across downloaders proportionally to download caps.

    Returns a zero vector when there are no downloaders or no positive
    capacity weight (the capacity is then simply unused, as in a swarm with
    seeds but nobody downloading).
    """
    caps = np.asarray(download_caps, dtype=float)
    if caps.size == 0 or capacity <= 0:
        return np.zeros(caps.size)
    if np.any(caps < 0):
        raise ValueError("download capacities must be nonnegative")
    total = float(np.sum(caps))
    if total <= 0:
        return np.zeros(caps.size)
    return caps / total * capacity


def downloader_rates(
    tft_uploads: Sequence[float],
    download_caps: Sequence[float],
    *,
    eta: float,
    seed_capacity: float,
) -> np.ndarray:
    """Per-downloader service rates under both Sec.-2 assumptions.

    ``rate_k = eta * tft_uploads[k] + share_k(seed_capacity)``.
    """
    tft = np.asarray(tft_uploads, dtype=float)
    caps = np.asarray(download_caps, dtype=float)
    if tft.shape != caps.shape:
        raise ValueError("tft_uploads and download_caps must have equal length")
    if np.any(tft < 0):
        raise ValueError("tit-for-tat uploads must be nonnegative")
    if not 0 < eta <= 1:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    return eta * tft + seed_share(caps, seed_capacity)
