"""Single-torrent fluid model (Eq. 3 of the paper; Qiu--Srikant, SIGCOMM'04).

The paper's Sec. 2 baseline, restricted (as the paper is throughout) to the
upload-constrained regime where each peer's download capacity is ample:

    dx/dt = lambda - mu*eta*x(t) - mu*y(t)
    dy/dt = mu*eta*x(t) + mu*y(t) - gamma*y(t)

with ``x`` downloaders, ``y`` seeds, arrival rate ``lambda``, upload
bandwidth ``mu``, downloader efficiency ``eta`` and seed departure rate
``gamma``.  The steady state requires ``gamma > mu`` (otherwise seeds alone
can serve all demand and the downloader population empties):

    y* = lambda / gamma
    x* = lambda * (gamma - mu) / (gamma * mu * eta)
    T  = x*/lambda = (gamma - mu) / (gamma * mu * eta)   (download time)

All multi-torrent results of the paper degenerate to these expressions for
``K = 1`` -- which is exactly how the paper argues their correctness, and is
enforced in our test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.parameters import FluidParameters

__all__ = ["SingleTorrentModel", "SingleTorrentSteadyState"]


@dataclass(frozen=True)
class SingleTorrentSteadyState:
    """Closed-form operating point of the single-torrent model."""

    downloaders: float
    seeds: float
    download_time: float
    online_time: float


@dataclass(frozen=True)
class SingleTorrentModel:
    """The Eq.-(3) fluid model for one torrent serving one file."""

    params: FluidParameters
    arrival_rate: float

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError(f"arrival_rate must be >= 0, got {self.arrival_rate}")

    @property
    def state_dim(self) -> int:
        """State is ``[x, y]``."""
        return 2

    def rhs(self, t: float, state: np.ndarray) -> np.ndarray:
        """Right-hand side of Eq. (3); ``state = [x, y]``.

        With a finite ``download_bandwidth`` this is Qiu--Srikant's full
        ``min{c*x, mu*(eta*x + y)}`` service term (positivity preserving);
        with ``None`` it is the paper's upload-constrained simplification.
        """
        x, y = state
        mu, eta, gamma = self.params.mu, self.params.eta, self.params.gamma
        served = mu * eta * x + mu * y
        c = self.params.download_bandwidth
        if c is not None:
            served = min(served, c * max(x, 0.0))
        return np.array([self.arrival_rate - served, served - gamma * y])

    def steady_state(self) -> SingleTorrentSteadyState:
        """Closed-form steady state (requires ``gamma > mu``)."""
        p = self.params
        if not p.is_stable:
            raise ValueError(
                f"steady state requires gamma > mu, got gamma={p.gamma}, mu={p.mu}"
            )
        download_time = (p.gamma - p.mu) / (p.gamma * p.mu * p.eta)
        if p.download_bandwidth is not None and p.download_bandwidth * download_time < 1.0:
            raise ValueError(
                "download-constrained regime: the Eq.-(3) closed form assumes "
                f"c*T >= 1, got c={p.download_bandwidth}, T={download_time:.4g}"
            )
        return SingleTorrentSteadyState(
            downloaders=self.arrival_rate * download_time,
            seeds=self.arrival_rate / p.gamma,
            download_time=download_time,
            online_time=download_time + 1.0 / p.gamma,
        )
