"""Multi-Torrent Concurrent Downloading -- Eq. (1)/(2) of the paper.

Under MTCD a user requesting ``i`` of the ``K`` files joins all ``i``
torrents at once, splitting its upload and download bandwidth ``i`` ways.
Within one torrent the peers therefore fall into ``K`` classes; with
class-``i`` entry rate ``lambda_j^i`` the per-torrent fluid model is

    dx_j^i/dt = lambda_j^i - eta*(mu/i)*x_j^i - share_i * sum_l (mu/l)*y_j^l
    dy_j^i/dt = eta*(mu/i)*x_j^i + share_i * sum_l (mu/l)*y_j^l - gamma*y_j^i

where ``share_i = (x_j^i/i) / sum_l (x_j^l/l)`` is the class's slice of the
seed service (proportional to download bandwidth ``c/i`` -- Sec. 2,
assumption 2).  The closed-form steady state (Eq. 2) is

    y_j^i = lambda_j^i / gamma
    x_j^i = i * lambda_j^i * c,
    c = (gamma*sum_l lambda_j^l - mu*sum_l lambda_j^l/l)
        / (gamma*mu*eta*sum_l lambda_j^l)

so every class downloads each file in time ``c`` (fair in download time per
file) while a class-``i`` user is online ``i*c + 1/gamma`` in total, i.e.
``c + 1/(i*gamma)`` per file -- multi-file users amortise the seeding phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.correlation import CorrelationModel
from repro.core.metrics import ClassMetrics, SystemMetrics, aggregate_metrics
from repro.core.parameters import FluidParameters

__all__ = ["MTCDModel", "MTCDSteadyState"]


@dataclass(frozen=True)
class MTCDSteadyState:
    """Per-torrent steady state of the MTCD model.

    ``downloaders[i-1]`` and ``seeds[i-1]`` are the class-``i`` populations
    in one torrent; ``download_time_per_file`` is the constant ``c``.
    """

    downloaders: np.ndarray
    seeds: np.ndarray
    download_time_per_file: float

    @property
    def total_downloaders(self) -> float:
        return float(np.sum(self.downloaders))

    @property
    def total_seeds(self) -> float:
        return float(np.sum(self.seeds))


@dataclass(frozen=True)
class MTCDModel:
    """Eq. (1) fluid model of one torrent under concurrent multi-torrent use.

    Attributes
    ----------
    params:
        Shared fluid parameters; ``params.num_files`` is ``K``.
    per_torrent_rates:
        ``lambda_j^i`` for ``i = 1..K`` -- class-``i`` peer entry rate into
        this torrent.  All torrents are symmetric under the paper's workload
        model, so one instance describes them all.
    """

    params: FluidParameters
    per_torrent_rates: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        rates = np.asarray(self.per_torrent_rates, dtype=float)
        if rates.shape != (self.params.num_files,):
            raise ValueError(
                f"per_torrent_rates must have shape ({self.params.num_files},), "
                f"got {rates.shape}"
            )
        if np.any(rates < 0):
            raise ValueError("per_torrent_rates must be nonnegative")
        object.__setattr__(self, "per_torrent_rates", rates)

    @classmethod
    def from_correlation(
        cls, params: FluidParameters, correlation: CorrelationModel
    ) -> "MTCDModel":
        """Build the model from the Sec.-4.1 workload (``lambda_j^i``)."""
        if correlation.num_files != params.num_files:
            raise ValueError(
                f"correlation K={correlation.num_files} != params K={params.num_files}"
            )
        return cls(params=params, per_torrent_rates=correlation.per_torrent_rates())

    # ----- ODE form (Eq. 1) -------------------------------------------------

    @property
    def state_dim(self) -> int:
        """State is ``[x_1..x_K, y_1..y_K]`` for one torrent."""
        return 2 * self.params.num_files

    def rhs(self, t: float, state: np.ndarray) -> np.ndarray:
        """Right-hand side of Eq. (1), vectorised over the ``K`` classes."""
        K = self.params.num_files
        mu, eta, gamma = self.params.mu, self.params.eta, self.params.gamma
        x = state[:K]
        y = state[K:]
        i = np.arange(1, K + 1, dtype=float)
        weighted_x = x / i
        denom = float(np.sum(weighted_x))
        seed_service = float(np.sum(mu / i * y))
        if denom > 0.0:
            from_seeds = weighted_x / denom * seed_service
        else:
            from_seeds = np.zeros(K)
        from_peers = eta * mu / i * x
        served = from_peers + from_seeds
        c = self.params.download_bandwidth
        if c is not None:
            # Qiu--Srikant service cap: a class-i virtual peer downloads at
            # most c/i (its share of the user's download link).
            served = np.minimum(served, c / i * np.maximum(x, 0.0))
        dx = self.per_torrent_rates - served
        dy = served - gamma * y
        return np.concatenate([dx, dy])

    # ----- closed form (Eq. 2) ----------------------------------------------

    def download_time_per_file(self) -> float:
        """The constant ``c`` of Eq. (2) -- per-file download time.

        Equals ``1/(mu*eta) - r/(gamma*eta)`` with
        ``r = (sum_l lambda_l/l) / (sum_l lambda_l)``; reduces to the
        single-torrent ``(gamma-mu)/(gamma*mu*eta)`` when only class 1 is
        populated (``r = 1``).
        """
        rates = self.per_torrent_rates
        total = float(np.sum(rates))
        if total == 0.0:
            return float("nan")
        i = np.arange(1, self.params.num_files + 1, dtype=float)
        r = float(np.sum(rates / i)) / total
        p = self.params
        c = (p.gamma * total - p.mu * total * r) / (p.gamma * p.mu * p.eta * total)
        if c < 0:
            raise ValueError(
                "unstable configuration: gamma*sum(lambda) <= mu*sum(lambda/l); "
                "the downloader population has no positive steady state"
            )
        cap = p.download_bandwidth
        if cap is not None and cap * c < 1.0:
            raise ValueError(
                "download-constrained regime: the Eq.-(2) closed form assumes "
                f"c_download * c_time >= 1, got {cap} * {c:.4g}"
            )
        return c

    def steady_state(self) -> MTCDSteadyState:
        """Closed-form Eq. (2) steady state for one torrent."""
        c = self.download_time_per_file()
        i = np.arange(1, self.params.num_files + 1, dtype=float)
        rates = self.per_torrent_rates
        if np.isnan(c):
            zeros = np.zeros_like(rates)
            return MTCDSteadyState(zeros, zeros, c)
        return MTCDSteadyState(
            downloaders=i * rates * c,
            seeds=rates / self.params.gamma,
            download_time_per_file=c,
        )

    # ----- metrics ------------------------------------------------------------

    def class_metrics(self, i: int) -> ClassMetrics:
        """Steady-state metrics of class ``i`` (Eq. 2 + Little's law)."""
        if not 1 <= i <= self.params.num_files:
            raise ValueError(f"class index must be in 1..{self.params.num_files}")
        c = self.download_time_per_file()
        # Class rate of *users* across the system: each class-i user shows up
        # in i torrents, so lambda_i(user) = K * lambda_j^i / i.
        user_rate = self.params.num_files * float(self.per_torrent_rates[i - 1]) / i
        return ClassMetrics(
            class_index=i,
            arrival_rate=user_rate,
            total_download_time=i * c,
            total_online_time=i * c + self.params.mean_seed_time,
        )

    def system_metrics(self) -> SystemMetrics:
        """Rate-weighted aggregate over all classes (the Fig.-2 quantity)."""
        per_class = [self.class_metrics(i) for i in range(1, self.params.num_files + 1)]
        return aggregate_metrics("MTCD", per_class)
