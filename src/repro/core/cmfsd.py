"""Collaborative Multi-File-torrent Sequential Downloading -- Eq. (5).

CMFSD is the paper's proposed scheme.  ``K`` correlated files live in one
torrent (one subtorrent per file).  A peer requesting ``i`` files downloads
them *sequentially* in randomised order with its full download bandwidth.
While downloading file ``j >= 2`` it splits its upload: a fraction ``rho``
plays tit-for-tat in the current subtorrent, and the remaining
``(1 - rho)`` serves one of its ``j - 1`` completed files as a *virtual
seed*.  Peers that finished everything seed for an exponential ``1/gamma``
as usual.

State: ``x^{i,j}(t)`` counts class-``i`` peers currently downloading their
``j``-th file (``1 <= j <= i <= K``), ``y^i(t)`` counts class-``i`` real
seeds.  With the bandwidth-split function

    P(i, j) = 1    if i == 1 or j == 1   (nothing finished yet)
            = rho  otherwise,

the three service sources seen by a downloader group are (per unit time):

* tit-for-tat from downloaders:  ``mu*eta*P(i,j)*x^{i,j}`` (assumption 1 --
  each group receives what it contributes),
* virtual seeds + real seeds, pooled over the whole torrent and split
  uniformly per downloader (assumption 2 with equal download bandwidth):

      S^{i,j} = mu * x^{i,j} * (sum_{l,m} (1-P(l,m))*x^{l,m} + sum_l y^l)
                / sum_{l,m} x^{l,m}.

Eq. (5) then chains the stages:

    dx^{i,1}/dt = lambda_i                     - out(i,1)
    dx^{i,j}/dt = out(i,j-1)                   - out(i,j)        (j >= 2)
    dy^i/dt     = out(i,i)                     - gamma*y^i

with ``out(i,j) = mu*eta*P(i,j)*x^{i,j} + S^{i,j}`` the rate at which the
group completes its current file (file size normalised to 1).

Stationary points reduce to one scalar equation.  At stationarity every
stage of class ``i`` passes the flow ``lambda_i`` on (the chain has no
other exit), so ``out(i,j) = lambda_i`` and ``y^i = lambda_i/gamma``.
Write ``r`` for the pooled seed-to-downloader ratio
``(sum (1-P)*x + sum y) / sum x``; then ``out(i,j) = x^{i,j} * d_{ij}(r)``
with ``d_{ij}(r) = min(mu*eta*P(i,j) + mu*r, c)`` (``c`` the optional
download cap, infinite by default), so

    x^{i,j} = lambda_i / d_{ij}(r),

and ``r`` itself must reproduce the ratio it was assumed to be:

    h(r) = sum_{i,j} x^{i,j}(r) * (r - (1 - P(i,j))) - sum_i lambda_i/gamma = 0.

``h`` is strictly increasing on ``r > 0``: its slope is
``sum lambda_i*(mu*eta*P + mu*(1-P))/d^2`` over uncapped stages plus
``sum lambda_i/c`` over capped ones.  ``h(0+) < 0`` (the seeds' term),
and ``h(inf) = sum_i lambda_i*(i/mu - 1/gamma) > 0`` whenever
``gamma > mu`` (:attr:`FluidParameters.is_stable`), or ``+inf`` under a
cap -- so the root is unique and a bracketed Newton iteration finds it
(:func:`steady_state_path` solves a whole path of models in one
vectorised root-find).  Without a sign change (``h(inf) <= 0``, possible
only for ``gamma <= mu`` without a cap) Eq. (5) has no interior
stationary point, and the numerical driver
(:func:`repro.ode.find_steady_state`, Sec. 4.2.2 of the paper) answers.
``rho`` may be a scalar or a per-class vector, the latter enabling the
Adapt mechanism's fluid-level analysis where classes tune their own
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.correlation import CorrelationModel
from repro.core.metrics import ClassMetrics, SystemMetrics, aggregate_metrics
from repro.core.parameters import FluidParameters
from repro.obs import current_registry
from repro.ode import (
    IntegrationResult,
    SteadyStateOptions,
    find_steady_state,
    integrate,
    residual_norm,
    solve_path,
)

__all__ = ["CMFSDModel", "CMFSDSteadyState", "StateIndex", "steady_state_path"]


@dataclass(frozen=True)
class StateIndex:
    """Index maps for the triangular CMFSD state vector.

    The flat layout is ``[x^{1,1}, x^{2,1}, x^{2,2}, ..., x^{K,K},
    y^1, ..., y^K]``: all stage populations in (i, j) lexicographic order,
    then the seed populations.
    """

    num_files: int
    i_of_pair: np.ndarray
    j_of_pair: np.ndarray
    prev_pair: np.ndarray
    last_pair_of_class: np.ndarray

    @classmethod
    def build(cls, num_files: int) -> "StateIndex":
        """The index for ``K = num_files``: one shared, read-only instance per K."""
        if num_files < 1:
            raise ValueError(f"num_files must be >= 1, got {num_files}")
        cached = _INDICES.get(num_files)
        if cached is None:
            pairs = [(i, j) for i in range(1, num_files + 1) for j in range(1, i + 1)]
            index = {pair: k for k, pair in enumerate(pairs)}
            arrays = (
                np.array([i for i, _ in pairs]),
                np.array([j for _, j in pairs]),
                np.array([index[(i, j - 1)] if j > 1 else -1 for i, j in pairs]),
                np.array([index[(i, i)] for i in range(1, num_files + 1)]),
            )
            for a in arrays:
                a.setflags(write=False)
            cached = _INDICES[num_files] = cls(num_files, *arrays)
        return cached

    @property
    def n_pairs(self) -> int:
        return int(self.i_of_pair.size)

    @property
    def state_dim(self) -> int:
        return self.n_pairs + self.num_files

    def pair_index(self, i: int, j: int) -> int:
        """Flat index of ``x^{i,j}``."""
        if not 1 <= j <= i <= self.num_files:
            raise ValueError(f"need 1 <= j <= i <= {self.num_files}, got (i={i}, j={j})")
        # Pairs for classes 1..i-1 occupy i*(i-1)/2 slots, then j-1 within class i.
        return i * (i - 1) // 2 + (j - 1)

    def seed_index(self, i: int) -> int:
        """Flat index of ``y^i``."""
        if not 1 <= i <= self.num_files:
            raise ValueError(f"class must be in 1..{self.num_files}, got {i}")
        return self.n_pairs + (i - 1)

    def split(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(x_pairs, y)`` views of a flat state vector."""
        return state[: self.n_pairs], state[self.n_pairs :]


#: :meth:`StateIndex.build`'s instances, keyed by K (models share them).
_INDICES: dict[int, StateIndex] = {}


@dataclass(frozen=True)
class CMFSDSteadyState:
    """Stationary point of Eq. (5) with convenience accessors."""

    index: StateIndex
    state: np.ndarray
    residual: float
    converged: bool

    def x(self, i: int, j: int) -> float:
        """Stationary ``x^{i,j}``."""
        return float(self.state[self.index.pair_index(i, j)])

    def y(self, i: int) -> float:
        """Stationary ``y^i``."""
        return float(self.state[self.index.seed_index(i)])

    def class_downloaders(self, i: int) -> float:
        """``sum_j x^{i,j}`` -- all class-``i`` downloaders."""
        return float(sum(self.x(i, j) for j in range(1, i + 1)))

    @property
    def total_downloaders(self) -> float:
        return float(np.sum(self.index.split(self.state)[0]))

    @property
    def total_seeds(self) -> float:
        return float(np.sum(self.index.split(self.state)[1]))


@dataclass(frozen=True)
class CMFSDModel:
    """Eq. (5) fluid model of the collaborative sequential scheme.

    Attributes
    ----------
    params:
        Shared fluid parameters (``K = params.num_files``).
    class_rates:
        ``lambda_i`` for ``i = 1..K``.
    rho:
        Bandwidth-allocation ratio: fraction of upload kept for tit-for-tat
        once a peer owns at least one complete file.  Scalar, or a length-K
        vector giving each class its own ratio (Adapt analysis).  ``rho = 1``
        disables collaboration entirely; ``rho = 0`` donates all upload to
        the virtual seed (the paper's system-optimal setting).
    """

    params: FluidParameters
    class_rates: np.ndarray = field(repr=False)
    rho: float | np.ndarray = 0.5

    def __post_init__(self) -> None:
        rates = np.asarray(self.class_rates, dtype=float)
        K = self.params.num_files
        if rates.shape != (K,):
            raise ValueError(f"class_rates must have shape ({K},), got {rates.shape}")
        if np.any(rates < 0):
            raise ValueError("class_rates must be nonnegative")
        rho = np.asarray(self.rho, dtype=float)
        if rho.ndim == 0:
            rho_vec = np.full(K, float(rho))
        elif rho.shape == (K,):
            rho_vec = rho.copy()
        else:
            raise ValueError(f"rho must be a scalar or have shape ({K},), got {rho.shape}")
        if np.any((rho_vec < 0) | (rho_vec > 1)):
            raise ValueError("rho values must lie in [0, 1]")
        object.__setattr__(self, "class_rates", rates)
        object.__setattr__(self, "rho", rho_vec)
        object.__setattr__(self, "_index", StateIndex.build(K))
        # P(i, j): 1 when the peer has nothing finished (i == 1 or j == 1),
        # otherwise the class's rho.
        idx: StateIndex = self._index
        p_vec = np.where(
            (idx.i_of_pair == 1) | (idx.j_of_pair == 1),
            1.0,
            rho_vec[idx.i_of_pair - 1],
        )
        object.__setattr__(self, "_p_vec", p_vec)

    @classmethod
    def from_correlation(
        cls,
        params: FluidParameters,
        correlation: CorrelationModel,
        rho: float | np.ndarray = 0.5,
    ) -> "CMFSDModel":
        if correlation.num_files != params.num_files:
            raise ValueError(
                f"correlation K={correlation.num_files} != params K={params.num_files}"
            )
        return cls(params=params, class_rates=correlation.class_rates(), rho=rho)

    # ----- structure ----------------------------------------------------------

    @property
    def index(self) -> StateIndex:
        """Index maps for the flat state vector."""
        return self._index

    @property
    def state_dim(self) -> int:
        return self._index.state_dim

    def p_function(self, i: int, j: int) -> float:
        """The paper's ``P(i, j)`` bandwidth-split function."""
        return float(self._p_vec[self._index.pair_index(i, j)])

    # ----- dynamics (Eq. 5) ---------------------------------------------------

    def rhs(self, t: float, state: np.ndarray) -> np.ndarray:
        """Vectorised right-hand side of Eq. (5).

        Accepts a single state vector of shape ``(dim,)`` or a batch of
        shape ``(dim, k)`` evaluated column-wise (the scipy ``vectorized``
        convention) -- the batched form lets the Newton solver build its
        finite-difference Jacobian in one call.
        """
        idx: StateIndex = self._index
        mu, eta, gamma = self.params.mu, self.params.eta, self.params.gamma
        state = np.asarray(state, dtype=float)
        single = state.ndim == 1
        cols = state[:, None] if single else state
        x = cols[: idx.n_pairs]
        y = cols[idx.n_pairs :]
        p_vec = self._p_vec[:, None]
        total_x = np.sum(x, axis=0)
        pooled = np.sum((1.0 - p_vec) * x, axis=0) + np.sum(y, axis=0)
        safe_total = np.where(total_x > 0.0, total_x, 1.0)
        s_vec = np.where(total_x > 0.0, mu * x * (pooled / safe_total), 0.0)
        out = mu * eta * p_vec * x + s_vec
        c = self.params.download_bandwidth
        if c is not None:
            # Sequential downloads use the full download link: cap each
            # group's service at c per peer (positivity-preserving drains).
            out = np.minimum(out, c * np.maximum(x, 0.0))
        inflow = np.where(
            (idx.j_of_pair == 1)[:, None],
            self.class_rates[idx.i_of_pair - 1][:, None],
            out[idx.prev_pair],
        )
        dx = inflow - out
        dy = out[idx.last_pair_of_class] - gamma * y
        derivative = np.concatenate([dx, dy], axis=0)
        return derivative[:, 0] if single else derivative

    def transient(
        self,
        t_span: tuple[float, float] = (0.0, 2000.0),
        y0: np.ndarray | None = None,
        *,
        method: str = "scipy",
        **kwargs,
    ) -> IntegrationResult:
        """Integrate Eq. (5) over a time span (flash-crowd studies etc.)."""
        if y0 is None:
            y0 = np.zeros(self.state_dim)
        return integrate(self.rhs, y0, t_span, method=method, **kwargs)

    def steady_state(
        self,
        options: SteadyStateOptions | None = None,
        *,
        initial_state: np.ndarray | None = None,
    ) -> CMFSDSteadyState:
        """Solve Eq. (5) to stationarity.

        The stationary point comes from the scalar root of the module
        docstring's ``h(r)``; without a root the numerical driver
        (:func:`repro.ode.find_steady_state`, from the empty torrent)
        answers.  ``initial_state`` -- a nearby solution, e.g. the previous
        point of a sweep -- only seeds the root's bracket, so a poor guess
        cannot change the answer.
        """
        if initial_state is not None:
            initial_state = np.asarray(initial_state, dtype=float)
            if initial_state.shape != (self.state_dim,):
                raise ValueError(
                    f"initial_state must have shape ({self.state_dim},), "
                    f"got {initial_state.shape}"
                )
        return _stationary_points([self], options, initial_state)[0]

    # ----- metrics ------------------------------------------------------------

    def _class_downloaders(self, steady: CMFSDSteadyState) -> np.ndarray:
        """``sum_j x^{i,j}`` for every class ``i`` (index ``i - 1``)."""
        idx = self._index
        return np.bincount(
            idx.i_of_pair - 1,
            weights=steady.state[: idx.n_pairs],
            minlength=self.params.num_files,
        )

    def _metrics_of_class(self, i: int, downloaders: float) -> ClassMetrics:
        lam = float(self.class_rates[i - 1])
        if lam > 0:
            download = float(downloaders) / lam
            online = download + self.params.mean_seed_time
        else:
            download = float("nan")
            online = float("nan")
        return ClassMetrics(
            class_index=i,
            arrival_rate=lam,
            total_download_time=download,
            total_online_time=online,
        )

    def class_metrics(
        self, i: int, steady: CMFSDSteadyState | None = None
    ) -> ClassMetrics:
        """Little's-law metrics for class ``i`` from a stationary point.

        At steady state the flow through every stage of class ``i`` equals
        ``lambda_i``, so the expected time in stage ``j`` is
        ``x^{i,j}/lambda_i`` and the total download time is their sum.
        Classes with ``lambda_i = 0`` are empty; their times are NaN.
        """
        if not 1 <= i <= self.params.num_files:
            raise ValueError(f"class index must be in 1..{self.params.num_files}")
        ss = steady if steady is not None else self.steady_state()
        return self._metrics_of_class(i, self._class_downloaders(ss)[i - 1])

    def system_metrics(self, steady: CMFSDSteadyState | None = None) -> SystemMetrics:
        """Aggregate metrics (the Fig.-4(a) quantity)."""
        ss = steady if steady is not None else self.steady_state()
        downloaders = self._class_downloaders(ss)
        per_class = [
            self._metrics_of_class(i, downloaders[i - 1])
            for i in range(1, self.params.num_files + 1)
        ]
        return aggregate_metrics("CMFSD", per_class)

    # ----- Adapt diagnostics ----------------------------------------------------

    def virtual_seed_balance(self, steady: CMFSDSteadyState | None = None) -> np.ndarray:
        """Per-peer give/take imbalance ``Delta_i`` of each class.

        ``Delta_i`` is the Adapt mechanism's observable: the rate at which an
        average class-``i`` downloader uploads through its virtual seed minus
        the rate at which it receives from *other peers'* virtual seeds.
        Classes with no downloaders report NaN.
        """
        ss = steady if steady is not None else self.steady_state()
        idx = self._index
        mu = self.params.mu
        x, _ = idx.split(ss.state)
        p_vec = self._p_vec
        total_x = float(np.sum(x))
        virtual_pool = mu * float(np.sum((1.0 - p_vec) * x))
        deltas = np.full(self.params.num_files, np.nan)
        for i in range(1, self.params.num_files + 1):
            sel = idx.i_of_pair == i
            pop = float(np.sum(x[sel]))
            if pop <= 0 or total_x <= 0:
                continue
            give = mu * float(np.sum((1.0 - p_vec[sel]) * x[sel]))
            take = pop * virtual_pool / total_x
            deltas[i - 1] = (give - take) / pop
        return deltas


def steady_state_path(
    models: "list[CMFSDModel] | tuple[CMFSDModel, ...]",
    options: SteadyStateOptions | None = None,
    *,
    warm_start: bool = True,
) -> list[CMFSDSteadyState]:
    """Stationary points along a sequence of CMFSD models (a rho grid, an
    arrival-rate sweep, ...), which must share one state dimension (same K).

    By default one vectorised root-find of the module docstring's ``h(r)``
    serves every model of the path at once.  With ``warm_start=False``
    every point is solved cold by the numerical driver from the empty
    torrent (:func:`repro.ode.solve_path`) -- the reference the root is
    tested against.
    """
    models = list(models)
    if not models:
        return []
    dim = models[0].state_dim
    for m in models[1:]:
        if m.state_dim != dim:
            raise ValueError(
                f"all models on a path must share state_dim={dim}, got {m.state_dim}"
            )
    if warm_start:
        return _stationary_points(models, options)
    path = solve_path(
        lambda m: m.rhs,
        models,
        np.zeros(dim),
        options,
        warm_start=False,
    )
    return [
        CMFSDSteadyState(
            index=m.index,
            state=np.clip(r.state, 0.0, None),
            residual=r.residual,
            converged=r.converged,
        )
        for m, r in zip(models, path.results)
    ]


#: Iteration cap of the vectorised root-find.  Newton from inside the
#: bracket converges quadratically; a step leaving the bracket is replaced
#: by bisection, so the cap is only a guard.
ROOT_MAX_ITER = 100


def _stationary_points(
    models: list[CMFSDModel],
    options: SteadyStateOptions | None,
    initial_state: np.ndarray | None = None,
) -> list[CMFSDSteadyState]:
    """Stationary points of ``models`` (one K) from one vectorised root-find.

    Models without a root, or whose root state misses ``options.tol``,
    fall back to :func:`repro.ode.find_steady_state` from the empty
    torrent.  ``initial_state`` (single-model calls only) seeds the
    bracket.
    """
    tol = (options or SteadyStateOptions()).tol
    idx = models[0].index
    rates = np.array([m.class_rates for m in models])
    lam = rates[:, idx.i_of_pair - 1]
    p = np.array([m._p_vec for m in models])
    mu = np.array([[m.params.mu] for m in models])
    tft = np.array([[m.params.mu * m.params.eta] for m in models]) * p
    cap = np.array([[m.params.download_bandwidth or np.inf] for m in models])
    gamma = np.array([m.params.gamma for m in models])
    guess = np.full(len(models), np.nan)
    if initial_state is not None:
        x0, y0 = idx.split(initial_state)
        with np.errstate(divide="ignore", invalid="ignore"):
            guess[0] = (np.sum((1.0 - p[0]) * x0) + np.sum(y0)) / np.sum(x0)
    ratios, has_root, iterations = _stationary_ratios(
        lam, 1.0 - p, tft, mu, cap, np.sum(rates, axis=1) / gamma, guess
    )

    results: list[CMFSDSteadyState] = []
    solves = fallbacks = 0
    for k, m in enumerate(models):
        if not np.any(lam[k] > 0.0):
            results.append(
                CMFSDSteadyState(
                    index=idx, state=np.zeros(idx.state_dim), residual=0.0, converged=True
                )
            )
            continue
        if has_root[k]:
            d = np.minimum(tft[k] + mu[k] * ratios[k], cap[k])
            state = np.concatenate([lam[k] / d, rates[k] / gamma[k]])
            residual = residual_norm(m.rhs, state)
            if residual < tol:
                solves += 1
                results.append(
                    CMFSDSteadyState(index=idx, state=state, residual=residual, converged=True)
                )
                continue
        fallbacks += 1
        result = find_steady_state(m.rhs, np.zeros(idx.state_dim), options)
        results.append(
            CMFSDSteadyState(
                index=idx,
                state=np.clip(result.state, 0.0, None),
                residual=result.residual,
                converged=result.converged,
            )
        )
    reg = current_registry()
    if reg.enabled:
        reg.inc("core.cmfsd.root.solves", solves)
        reg.inc("core.cmfsd.root.iterations", iterations)
        reg.inc("core.cmfsd.root.fallbacks", fallbacks)
    return results


def _stationary_ratios(
    lam: np.ndarray,
    share: np.ndarray,
    tft: np.ndarray,
    mu: np.ndarray,
    cap: np.ndarray,
    seeds: np.ndarray,
    guess: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Roots of ``h(r)`` for every row at once.

    Row ``k`` is one model: per stage its arrival rate ``lam``, virtual-seed
    share ``share = 1 - P``, tit-for-tat rate ``tft = mu*eta*P``; per model
    ``mu``, ``cap`` (``inf`` for none) and the seed population ``seeds``.
    Returns ``(r, has_root, iterations)``; ``r`` is meaningful where
    ``has_root`` holds.

    The bracket's upper end is explicit.  Uncapped, ``h(r) >= A - D/(mu r)
    - seeds`` with ``A = sum lam/mu`` and ``D = sum lam*(share + tft/mu)``,
    so ``h >= 0`` from ``D / (mu*(A - seeds))`` on, provided ``A > seeds``.
    Capped, every ``x >= lam/c`` and for ``r >= 1`` every ``r - share >=
    r - 1``, so ``h >= 0`` from ``1 + c*seeds/sum(lam)`` on; at ``r >= 1``
    the cap only raises ``h``, so the uncapped end (at least 1) holds too.
    A row with neither end has no root.
    """
    total = np.sum(lam, axis=1)
    mu_row, cap_row = mu[:, 0], cap[:, 0]
    excess = total / mu_row - seeds
    with np.errstate(divide="ignore", invalid="ignore"):
        hi = np.where(
            excess > 0.0,
            np.sum(lam * (share + tft / mu), axis=1) / (mu_row * excess),
            np.inf,
        )
        hi = np.where(
            np.isfinite(cap_row),
            np.minimum(1.0 + cap_row * seeds / total, np.maximum(hi, 1.0)),
            hi,
        )
    has_root = np.isfinite(hi) & (total > 0.0)
    rows = np.flatnonzero(has_root)
    ratios = np.full(lam.shape[0], np.nan)
    if rows.size == 0:
        return ratios, has_root, 0
    lam, share, tft, mu, cap = lam[rows], share[rows], tft[rows], mu[rows], cap[rows]
    seeds, hi = seeds[rows], hi[rows]
    # Uncapped, h rises to its limit h(inf) = excess, and the step below is
    # Newton's on 1/(h(inf) - h): concave and close to linear in r, so it
    # neither crawls up from the 1/r pole at rho = 0 nor overshoots from
    # the right.  Capped rows have no finite limit and step plainly.
    limit = np.where(np.isfinite(cap[:, 0]), np.inf, excess[rows])
    lo = np.zeros_like(hi)
    r = np.where((guess[rows] > 0.0) & (guess[rows] < hi), guess[rows], hi)
    # uncapped slope numerator lam*(mu*eta*P + mu*(1 - P)) per stage
    bend = lam * (tft + mu * share)
    iterations = 0
    while iterations < ROOT_MAX_ITER:
        iterations += 1
        rate = tft + mu * r[:, None]
        capped = rate >= cap
        d = np.minimum(rate, cap)
        x = lam / d
        h = np.sum(x * (r[:, None] - share), axis=1) - seeds
        slope = np.sum(np.where(capped, lam / cap, bend / (d * d)), axis=1)
        lo = np.where(h < 0.0, r, lo)
        hi = np.where(h > 0.0, r, hi)
        step = r - h * (1.0 - h / limit) / slope
        inside = (step >= lo) & (step <= hi) & (step > 0.0)
        nxt = np.where(h == 0.0, r, np.where(inside, step, 0.5 * (lo + hi)))
        done = np.abs(nxt - r) <= 4.0 * np.finfo(float).eps * nxt
        r = nxt
        if done.all():
            break
    ratios[rows] = r
    return ratios, has_root, iterations
