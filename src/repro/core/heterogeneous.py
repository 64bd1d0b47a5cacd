"""General multi-class fluid model of Sec. 2 of the paper.

Peers in one torrent are categorised into ``S`` classes
``{C_1(mu_1, c_1), ..., C_S(mu_S, c_S)}`` -- class ``C_i`` peers upload at
``mu_i`` and download at ``c_i`` -- with the paper's two allocation
assumptions:

1. *Tit-for-tat between downloaders*: class-``i`` downloaders receive from
   the downloader pool exactly what they contribute, scaled by the
   efficiency: ``eta * mu_i * x_i``.
2. *Altruistic seeds*: the aggregate seed capacity ``sum_l mu_l * y_l`` is
   split across downloader classes proportionally to download capacity,
   class ``i`` receiving the fraction ``x_i*c_i / sum_l x_l*c_l``.

Hence

    dx_i/dt = lambda_i - eta*mu_i*x_i - (x_i*c_i / sum_l x_l*c_l) * sum_l mu_l*y_l
    dy_i/dt = eta*mu_i*x_i + (x_i*c_i / sum_l x_l*c_l) * sum_l mu_l*y_l - gamma_i*y_i

This is the paper's umbrella model: Eq. (1) (MTCD) is the special case
``mu_i = mu/i, c_i = c/i, gamma_i = gamma`` and the test-suite verifies that
the stationary point below reproduces Eq. (2) in that case.

Stationary points reduce to one scalar equation.  At stationarity every
class passes its arrival flow on, ``served_i = lambda_i = gamma_i*y_i``, so
``y_i = lambda_i/gamma_i`` and the seed capacity is the constant
``S = sum_l mu_l*lambda_l/gamma_l``.  Write ``D = sum_l c_l*x_l`` for the
download-weighted population; then ``served_i = x_i * d_i(D)`` with
``d_i(D) = min(eta*mu_i + c_i*S/D, c_i)`` (the second term the download
cap), so

    x_i = lambda_i / d_i(D),

and ``D`` must reproduce itself: ``D = F(D) = sum_i c_i*lambda_i/d_i(D)``.
Equivalently ``g(D) = F(D)/D - 1 = sum_i max(c_i*lambda_i/(eta*mu_i*D +
c_i*S), lambda_i/D) - 1 = 0``.  ``g`` is strictly decreasing, tends to
``+inf`` as ``D -> 0`` and to ``-1`` as ``D -> inf``, so for any mix with
``sum lambda > 0`` the root is unique -- download-constrained (capped)
classes included.  It lies in ``[sum lambda, sum lambda + sum
c_i*lambda_i/(eta*mu_i)]`` (each term of ``F`` is at least ``lambda_i``
and at most ``c_i*lambda_i/(eta*mu_i) + lambda_i``).  With proportional
bandwidths ``mu_i/c_i = kappa`` and no class capped, ``D = (sum lambda -
S)/(eta*kappa)``: the closed form is the root's special case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ode import SteadyStateOptions, residual_norm

__all__ = ["PeerClass", "HeterogeneousModel", "HeterogeneousSteadyState"]


@dataclass(frozen=True)
class PeerClass:
    """One bandwidth class ``C_i(mu_i, c_i)``.

    Attributes
    ----------
    upload:
        ``mu_i``, upload bandwidth.
    download:
        ``c_i``, download bandwidth.
    arrival_rate:
        ``lambda_i``, entry rate of new class-``i`` downloaders.
    seed_departure_rate:
        ``gamma_i``, rate at which class-``i`` seeds leave.
    """

    upload: float
    download: float
    arrival_rate: float
    seed_departure_rate: float

    def __post_init__(self) -> None:
        if self.upload <= 0 or self.download <= 0:
            raise ValueError("upload and download bandwidths must be positive")
        if self.arrival_rate < 0:
            raise ValueError("arrival_rate must be nonnegative")
        if self.seed_departure_rate <= 0:
            raise ValueError("seed_departure_rate must be positive")


@dataclass(frozen=True)
class HeterogeneousSteadyState:
    """Stationary populations, per-class download times and the solve's quality.

    ``download_times`` are Little's-law ``x_i/lambda_i`` (NaN for a class
    with ``lambda_i = 0``); ``residual`` is the true scaled
    :func:`repro.ode.residual_norm` of the state ``[downloaders, seeds]``
    and ``converged`` whether it met the default
    :class:`~repro.ode.SteadyStateOptions` tolerance.
    """

    downloaders: np.ndarray
    seeds: np.ndarray
    download_times: np.ndarray
    residual: float
    converged: bool


@dataclass(frozen=True)
class HeterogeneousModel:
    """The Sec.-2 multi-class fluid model with efficiency ``eta``."""

    classes: tuple[PeerClass, ...]
    eta: float = 0.5

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("at least one peer class is required")
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        object.__setattr__(self, "classes", tuple(self.classes))

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def state_dim(self) -> int:
        """State is ``[x_1..x_S, y_1..y_S]``."""
        return 2 * self.num_classes

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        mu = np.array([c.upload for c in self.classes])
        cdl = np.array([c.download for c in self.classes])
        lam = np.array([c.arrival_rate for c in self.classes])
        gam = np.array([c.seed_departure_rate for c in self.classes])
        return mu, cdl, lam, gam

    def rhs(self, t: float, state: np.ndarray) -> np.ndarray:
        """Right-hand side over ``[x, y]``."""
        S = self.num_classes
        mu, cdl, lam, gam = self._arrays()
        x = state[:S]
        y = state[S:]
        weighted = x * cdl
        denom = float(np.sum(weighted))
        seed_capacity = float(np.sum(mu * y))
        from_seeds = weighted / denom * seed_capacity if denom > 0 else np.zeros(S)
        from_peers = self.eta * mu * x
        # Physical cap: a class cannot absorb more than its aggregate
        # download capacity (keeps drain transients positivity preserving).
        served = np.minimum(from_peers + from_seeds, cdl * np.maximum(x, 0.0))
        dx = lam - served
        dy = served - gam * y
        return np.concatenate([dx, dy])

    def stationary_seed_capacity(self) -> float:
        """Aggregate upload the stationary seed population would provide.

        ``sum_l mu_l * lambda_l / gamma_l`` -- every arriving peer
        eventually seeds for ``1/gamma_l`` at rate ``mu_l``.
        """
        mu, _, lam, gam = self._arrays()
        return float(np.sum(mu * lam / gam))

    def is_stable(self) -> bool:
        """Whether the stationary point is upload-constrained.

        The paper's upload-constrained regime needs demand to exceed what
        the seeds alone supply: ``sum lambda > stationary_seed_capacity()``.
        Beyond that boundary seeds saturate demand and the stationary point
        is download-constrained (:meth:`steady_state` still solves it) -- a
        regime the paper's models deliberately do not cover (the
        generalisation of the ``gamma > mu`` condition of Eq. 4).
        """
        _, _, lam, _ = self._arrays()
        total = float(np.sum(lam))
        return total > self.stationary_seed_capacity()

    def steady_state(self) -> HeterogeneousSteadyState:
        """Stationary point for any bandwidth mix, from the scalar root of
        the module docstring's ``g(D)``.

        An empty workload (``sum lambda = 0``) is the zero state.
        """
        mu, cdl, lam, gam = self._arrays()
        seeds = lam / gam
        if np.any(lam > 0.0):
            tft = self.eta * mu
            seed_capacity = float(np.sum(mu * seeds))
            scale = _stationary_scale(lam, cdl, tft, seed_capacity)
            downloaders = lam / np.minimum(tft + cdl * seed_capacity / scale, cdl)
        else:
            downloaders = np.zeros(self.num_classes)
        with np.errstate(divide="ignore", invalid="ignore"):
            times = np.where(lam > 0, downloaders / lam, np.nan)
        residual = residual_norm(self.rhs, np.concatenate([downloaders, seeds]))
        return HeterogeneousSteadyState(
            downloaders=downloaders,
            seeds=seeds,
            download_times=times,
            residual=residual,
            converged=residual < SteadyStateOptions().tol,
        )


#: Iteration cap of the root-find.  Newton from inside the bracket converges
#: quadratically; a step leaving the bracket is replaced by bisection, so the
#: cap is only a guard.
ROOT_MAX_ITER = 100


def _stationary_scale(
    lam: np.ndarray, cdl: np.ndarray, tft: np.ndarray, seed_capacity: float
) -> float:
    """The root ``D`` of ``g(D)`` for one model (``sum lam > 0``).

    Newton runs on ``phi(D) = D/F(D) - 1``, increasing like ``-g`` and
    linear in ``D`` when bandwidths are proportional and no class is
    capped, so that case lands in one step.  It starts at the bracket's
    lower end ``sum lam`` (where ``F >= D``); a step leaving the bracket is
    replaced by bisection.
    """
    lo = float(np.sum(lam))
    hi = lo + float(np.sum(cdl * lam / tft))
    scale = lo
    for _ in range(ROOT_MAX_ITER):
        rate = tft + cdl * seed_capacity / scale
        d = np.minimum(rate, cdl)
        flow = float(np.sum(cdl * lam / d))
        if flow > scale:
            lo = scale
        elif flow < scale:
            hi = scale
        else:
            break
        # dF/dD; a capped class contributes the constant lambda_i to F
        uncapped = cdl * cdl * lam * seed_capacity / (scale * d) ** 2
        slope = float(np.sum(np.where(rate >= cdl, 0.0, uncapped)))
        step = scale - (scale - flow) * flow / (flow - scale * slope)
        nxt = step if lo <= step <= hi else 0.5 * (lo + hi)
        done = abs(nxt - scale) <= 4.0 * np.finfo(float).eps * nxt
        scale = nxt
        if done:
            break
    return scale
