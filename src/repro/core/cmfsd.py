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

There is no closed form; the model is solved numerically (Sec. 4.2.2 of the
paper does the same).  ``rho`` may be a scalar or a per-class vector, the
latter enabling the Adapt mechanism's fluid-level analysis where classes
tune their own ratio.
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
    SteadyStateResult,
    find_steady_state,
    integrate,
    newton_steady_state,
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
        if num_files < 1:
            raise ValueError(f"num_files must be >= 1, got {num_files}")
        pairs = [(i, j) for i in range(1, num_files + 1) for j in range(1, i + 1)]
        index = {pair: k for k, pair in enumerate(pairs)}
        i_of_pair = np.array([i for i, _ in pairs])
        j_of_pair = np.array([j for _, j in pairs])
        prev_pair = np.array(
            [index[(i, j - 1)] if j > 1 else -1 for i, j in pairs]
        )
        last_pair = np.array([index[(i, i)] for i in range(1, num_files + 1)])
        return cls(num_files, i_of_pair, j_of_pair, prev_pair, last_pair)

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

        The default path runs pseudo-transient continuation from the empty
        torrent and polishes with Newton (globally robust).
        ``initial_state`` enables warm starts for parameter sweeps -- a
        nearby solution (e.g. the previous point on a rho grid) lets Newton
        converge directly, which is an order of magnitude faster; if the
        warm Newton solve fails, the robust path runs as a fallback.
        """
        if float(np.sum(self.class_rates)) == 0.0:
            return CMFSDSteadyState(
                index=self._index,
                state=np.zeros(self.state_dim),
                residual=0.0,
                converged=True,
            )
        reg = current_registry()
        if initial_state is not None:
            guess = np.asarray(initial_state, dtype=float)
            if guess.shape != (self.state_dim,):
                raise ValueError(
                    f"initial_state must have shape ({self.state_dim},), "
                    f"got {guess.shape}"
                )
            warm = newton_steady_state(self.rhs, guess, options)
            if warm.converged:
                if reg.enabled:
                    reg.inc("core.cmfsd.steady_state.warm_hits")
                return CMFSDSteadyState(
                    index=self._index,
                    state=np.clip(warm.state, 0.0, None),
                    residual=warm.residual,
                    converged=True,
                )
        if reg.enabled:
            reg.inc("core.cmfsd.steady_state.cold_solves")
        result: SteadyStateResult = find_steady_state(
            self.rhs, np.zeros(self.state_dim), options
        )
        return CMFSDSteadyState(
            index=self._index,
            state=np.clip(result.state, 0.0, None),
            residual=result.residual,
            converged=result.converged,
        )

    # ----- metrics ------------------------------------------------------------

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
        lam = float(self.class_rates[i - 1])
        if lam > 0:
            download = ss.class_downloaders(i) / lam
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

    def system_metrics(self, steady: CMFSDSteadyState | None = None) -> SystemMetrics:
        """Aggregate metrics (the Fig.-4(a) quantity)."""
        ss = steady if steady is not None else self.steady_state()
        per_class = [
            self.class_metrics(i, ss) for i in range(1, self.params.num_files + 1)
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
    """Stationary points along a sequence of CMFSD models (continuation).

    The models must share one state dimension (same ``K``) and should vary
    a parameter smoothly -- a rho grid, an arrival-rate sweep -- so each
    stationary point is a good Newton guess for the next
    (:func:`repro.ode.solve_path` does the threading; with
    ``warm_start=False`` every point is solved cold from the empty
    torrent, which is the reference the warm path is tested against).
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
    path = solve_path(
        lambda m: m.rhs,
        models,
        np.zeros(dim),
        options,
        warm_start=warm_start,
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
