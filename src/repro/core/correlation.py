"""The paper's file-correlation workload model (Sec. 4.1).

A user visiting the indexing web server requests each of the ``K`` published
files independently with probability ``p`` (the *file correlation*).  With a
server visiting rate ``lambda_0``, users requesting exactly ``i`` files
arrive at rate

    lambda_i = lambda_0 * C(K, i) * p^i * (1-p)^(K-i)        (class rate)

and, in the multi-torrent scenario, the entry rate of class-``i`` peers into
one particular torrent is

    lambda_j^i = lambda_0 * C(K-1, i-1) * p^i * (1-p)^(K-i)  (per-torrent rate)

(the torrent must be one of the ``i`` chosen files, which conditions one
slot).  The identity ``i*C(K,i) = K*C(K-1,i-1)`` ties the two together:
summing per-torrent rates over all ``K`` torrents counts each class-``i``
user ``i`` times.

>>> model = CorrelationModel(num_files=4, p=0.5, visit_rate=16.0)
>>> [round(float(r), 9) for r in model.class_rates()]   # 16 * C(4,i) / 16
[4.0, 6.0, 4.0, 1.0]
>>> float(model.total_file_request_rate())    # lambda0 * K * p
32.0
>>> round(model.mean_files_per_user(), 4)     # K*p / (1 - (1-p)^K)
2.1333
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

__all__ = ["CorrelationModel"]


@dataclass(frozen=True)
class CorrelationModel:
    """Binomial request model over ``K`` files with correlation ``p``.

    Attributes
    ----------
    num_files:
        ``K``, number of files published in the system.
    p:
        Per-file request probability (file correlation), in ``[0, 1]``.
    visit_rate:
        ``lambda_0``, rate of users visiting the indexing server.  The
        paper's metrics are rate-free (``lambda_0`` cancels in Eq. 2), so the
        default of 1.0 is fine for the analytic experiments; the simulator
        uses real values.
    """

    num_files: int
    p: float
    visit_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.num_files < 1:
            raise ValueError(f"num_files must be >= 1, got {self.num_files}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.visit_rate <= 0:
            raise ValueError(f"visit_rate must be positive, got {self.visit_rate}")

    @property
    def K(self) -> int:
        """Alias matching the paper's notation."""
        return self.num_files

    def _cached(self, key: str, compute) -> np.ndarray:
        """Memoise an immutable derived array on this frozen instance.

        The model's parameters are fixed at construction, so derived
        vectors never change; recomputing ``binom.pmf`` on every arrival
        dominated the arrival hot path.  Cached arrays are marked
        read-only so sharing them is safe.
        """
        cached = self.__dict__.get(key)
        if cached is None:
            cached = compute()
            cached.setflags(write=False)
            object.__setattr__(self, key, cached)
        return cached

    @property
    def classes(self) -> np.ndarray:
        """The class indices ``i = 1..K`` (users requesting ``i`` files)."""
        return self._cached(
            "_classes", lambda: np.arange(1, self.num_files + 1)
        )

    def class_rates(self) -> np.ndarray:
        """``lambda_i`` for ``i = 1..K`` (system arrival rate of class-i users).

        Users drawing ``i = 0`` never enter the system, so the vector omits
        that mass; consequently ``sum(class_rates()) =
        visit_rate * (1 - (1-p)^K)``.  Rates below the smallest normal float
        are flushed to 0: a subnormal rate carries too few significant bits
        for any identity above to hold, so such a class is empty instead.
        """

        def compute() -> np.ndarray:
            rates = self.visit_rate * binom.pmf(self.classes, self.num_files, self.p)
            rates[rates < np.finfo(float).tiny] = 0.0
            return rates

        return self._cached("_class_rates", compute)

    def per_torrent_rates(self) -> np.ndarray:
        """``lambda_j^i`` for ``i = 1..K`` (class-i peer entry rate into one torrent).

        Every torrent sees the same rates by symmetry; the paper's
        ``C(K-1, i-1) p^i (1-p)^(K-i)`` equals ``(i/K) * C(K,i) p^i (1-p)^(K-i)``.
        """
        i = self.classes
        return self.class_rates() * i / self.num_files

    def total_file_request_rate(self) -> float:
        """Rate at which *file requests* (not users) enter: ``lambda_0 * K * p``."""
        return float(self.visit_rate * self.num_files * self.p)

    def effective_user_rate(self) -> float:
        """Rate of users that actually enter (request >= 1 file)."""
        return float(np.sum(self.class_rates()))

    def mean_files_per_user(self) -> float:
        """Average number of files requested, conditioned on requesting >= 1.

        Equals ``K*p / (1 - (1-p)^K)``; undefined at ``p = 0`` where no user
        enters (returns ``nan``).
        """
        rates = self.class_rates()
        total = float(np.sum(rates))
        if total == 0.0:
            return float("nan")
        return float(np.sum(self.classes * rates) / total)

    def class_distribution(self) -> np.ndarray:
        """Probability that an *entering* user is of class ``i`` (i = 1..K)."""

        def compute() -> np.ndarray:
            rates = self.class_rates()
            total = float(np.sum(rates))
            if total == 0.0:
                raise ValueError("p = 0: no users enter, class distribution undefined")
            return rates / total

        return self._cached("_class_distribution", compute)

    def sample_class(self, rng: np.random.Generator) -> int:
        """Draw the class of one entering user (binomial conditioned on >= 1).

        One ``rng.random()`` looked up in the cached CDF, built exactly as
        ``Generator.choice`` builds it: the values and the generator stream
        of ``rng.choice(self.classes, p=self.class_distribution())``,
        without re-validating ``p`` on every draw (pinned by
        tests/core/test_correlation.py).
        """

        def compute() -> np.ndarray:
            cdf = self.class_distribution().cumsum()
            cdf /= cdf[-1]
            return cdf

        cdf = self._cached("_class_cdf", compute)
        return int(self.classes[cdf.searchsorted(rng.random(), side="right")])

    def sample_file_set(self, rng: np.random.Generator) -> tuple[int, ...]:
        """Draw the file subset of one entering user.

        Files are exchangeable in the model, so given the class ``i`` the
        subset is uniform over ``i``-subsets of ``{0..K-1}``.
        """
        i = self.sample_class(rng)
        files = rng.choice(self.num_files, size=i, replace=False)
        return tuple(int(f) for f in np.sort(files))
