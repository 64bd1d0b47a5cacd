"""Measurement collection and end-of-run summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.metrics import ClassMetrics, SystemMetrics, aggregate_metrics
from repro.sim.entities import EntrySpan, UserRecord

__all__ = [
    "PopulationSample",
    "MetricsCollector",
    "SimulationSummary",
    "summary_to_dict",
]


@dataclass(frozen=True)
class PopulationSample:
    """Snapshot of one swarm's population at one sampling instant.

    ``downloaders[k]`` / ``seeds[k]`` count peers of user class ``k + 1``
    (``seeds`` counts *real* seeds; virtual seeds are downloaders in the
    fluid models and are counted there).
    """

    time: float
    group_id: int
    file_id: int
    downloaders: np.ndarray
    seeds: np.ndarray
    #: optional (class, stage) matrix -- the Eq.-(5) x^{i,j} counterpart
    stage_downloaders: np.ndarray | None = None


@dataclass
class MetricsCollector:
    """Accumulates user records, per-entry spans and population samples."""

    num_classes: int
    records: dict[int, UserRecord] = field(default_factory=dict)
    entry_spans: list[EntrySpan] = field(default_factory=list)
    samples: list[PopulationSample] = field(default_factory=list)

    def new_record(self, record: UserRecord) -> None:
        if record.user_id in self.records:
            raise ValueError(f"duplicate user id {record.user_id}")
        self.records[record.user_id] = record

    def record_span(self, span: EntrySpan) -> None:
        self.entry_spans.append(span)

    def record_sample(self, sample: PopulationSample) -> None:
        self.samples.append(sample)

    # ----- reductions -----------------------------------------------------------

    def completed_users(self, warmup: float = 0.0, horizon: float = math.inf):
        """Users that arrived in ``[warmup, horizon)`` and fully departed.

        Restricting to departed users avoids censoring bias at the end of
        the run (still-active users have longer-than-average times).
        """
        return [
            r
            for r in self.records.values()
            if r.is_departed and warmup <= r.arrival_time < horizon
        ]

    def summarize(
        self,
        *,
        warmup: float = 0.0,
        horizon: float = math.inf,
    ) -> "SimulationSummary":
        """Reduce to per-class and aggregate steady-state estimates."""
        users = self.completed_users(warmup, horizon)
        K = self.num_classes

        dl_by_class: list[list[float]] = [[] for _ in range(K)]
        online_by_class: list[list[float]] = [[] for _ in range(K)]
        for r in users:
            dl_by_class[r.user_class - 1].append(r.download_time_per_file)
            online_by_class[r.user_class - 1].append(r.online_time_per_file)

        entry_dl_by_class: list[list[float]] = [[] for _ in range(K)]
        for span in self.entry_spans:
            if warmup <= span.started_at < horizon:
                entry_dl_by_class[span.user_class - 1].append(span.download_time)

        def _mean(xs: list[float]) -> float:
            return float(np.mean(xs)) if xs else math.nan

        per_class_dl = np.array([_mean(xs) for xs in dl_by_class])
        per_class_online = np.array([_mean(xs) for xs in online_by_class])
        per_class_entry_dl = np.array([_mean(xs) for xs in entry_dl_by_class])
        class_counts = np.array([len(xs) for xs in online_by_class])

        total_files = sum(r.user_class for r in users)
        if total_files > 0:
            avg_online = (
                sum(r.total_online_time for r in users) / total_files
            )
            avg_dl = sum(r.total_download_time for r in users) / total_files
        else:
            avg_online = math.nan
            avg_dl = math.nan

        # Time-averaged swarm populations over the post-warmup window.
        pop_dl: dict[tuple[int, int], np.ndarray] = {}
        pop_seed: dict[tuple[int, int], np.ndarray] = {}
        pop_stage: dict[tuple[int, int], np.ndarray] = {}
        counts: dict[tuple[int, int], int] = {}
        for s in self.samples:
            if not warmup <= s.time < horizon:
                continue
            key = (s.group_id, s.file_id)
            if key not in pop_dl:
                pop_dl[key] = np.zeros(K)
                pop_seed[key] = np.zeros(K)
                counts[key] = 0
            pop_dl[key] += s.downloaders
            pop_seed[key] += s.seeds
            counts[key] += 1
            if s.stage_downloaders is not None:
                pop_stage.setdefault(key, np.zeros((K, K)))
                pop_stage[key] += s.stage_downloaders
        mean_downloaders = {k: pop_dl[k] / counts[k] for k in counts if counts[k] > 0}
        mean_seeds = {k: pop_seed[k] / counts[k] for k in counts if counts[k] > 0}
        mean_stage = {
            k: pop_stage[k] / counts[k] for k in pop_stage if counts.get(k, 0) > 0
        }

        return SimulationSummary(
            n_users_completed=len(users),
            class_counts=class_counts,
            download_time_per_file_by_class=per_class_dl,
            online_time_per_file_by_class=per_class_online,
            entry_download_time_by_class=per_class_entry_dl,
            avg_online_time_per_file=float(avg_online),
            avg_download_time_per_file=float(avg_dl),
            mean_downloaders=mean_downloaders,
            mean_seeds=mean_seeds,
            mean_stage_downloaders=mean_stage,
        )


@dataclass(frozen=True)
class SimulationSummary:
    """Steady-state estimates from one simulation run.

    Attributes
    ----------
    n_users_completed:
        Number of departed users contributing to the estimates.
    class_counts:
        Per-class user counts (index ``i - 1``).
    download_time_per_file_by_class / online_time_per_file_by_class:
        User-level per-file times, per class (NaN for empty classes).
    entry_download_time_by_class:
        Mean single-file transfer time per class (per-entry accounting --
        the fluid ``x/lambda`` quantity; excludes MTSD's interleaved seed
        phases).
    avg_online_time_per_file / avg_download_time_per_file:
        The paper's aggregate metrics over all completed users.
    mean_downloaders / mean_seeds:
        ``(group_id, file_id) -> per-class time-averaged population``.
    mean_stage_downloaders:
        ``(group_id, file_id) -> (class, stage) matrix`` when stage-level
        sampling was enabled (the Eq.-(5) ``x^{i,j}`` observable).

    Notes
    -----
    The summary speaks the same metric vocabulary as the fluid models'
    :class:`~repro.core.metrics.SystemMetrics`: the aggregate fields
    ``avg_online_time_per_file`` / ``avg_download_time_per_file`` carry the
    same names and definitions, and :meth:`class_metrics` /
    :meth:`to_system_metrics` re-express the per-class arrays as
    :class:`~repro.core.metrics.ClassMetrics`, so experiments can tabulate
    simulated and fluid results through one code path (see the
    "metric vocabulary" section of ``docs/API.md`` for the full mapping).
    """

    n_users_completed: int
    class_counts: np.ndarray
    download_time_per_file_by_class: np.ndarray
    online_time_per_file_by_class: np.ndarray
    entry_download_time_by_class: np.ndarray
    avg_online_time_per_file: float
    avg_download_time_per_file: float
    mean_downloaders: dict[tuple[int, int], np.ndarray]
    mean_seeds: dict[tuple[int, int], np.ndarray]
    mean_stage_downloaders: dict[tuple[int, int], np.ndarray] = field(
        default_factory=dict
    )

    def swarm_population(self, group_id: int, file_id: int) -> tuple[np.ndarray, np.ndarray]:
        """``(mean downloaders by class, mean real seeds by class)``."""
        key = (group_id, file_id)
        return self.mean_downloaders[key], self.mean_seeds[key]

    # ----- core-metrics vocabulary (parity with the fluid models) -------------

    @property
    def classes(self) -> tuple[int, ...]:
        """Class indices ``1..K`` (mirrors ``SystemMetrics.classes``)."""
        return tuple(range(1, len(self.class_counts) + 1))

    def class_metrics(self, i: int) -> ClassMetrics:
        """Class ``i`` estimates as a :class:`~repro.core.metrics.ClassMetrics`.

        The ``arrival_rate`` slot carries the *completed-user count* of the
        class -- over a fixed measurement window counts are proportional to
        rates, so rate-weighted aggregation over these objects reproduces
        the summary's own user-level aggregates.  Empty classes have NaN
        times, exactly like zero-rate classes in the fluid models.
        """
        if not 1 <= i <= len(self.class_counts):
            raise ValueError(f"class index must be in 1..{len(self.class_counts)}")
        per_file_dl = float(self.download_time_per_file_by_class[i - 1])
        per_file_online = float(self.online_time_per_file_by_class[i - 1])
        return ClassMetrics(
            class_index=i,
            arrival_rate=float(self.class_counts[i - 1]),
            total_download_time=i * per_file_dl,
            total_online_time=i * per_file_online,
        )

    def to_system_metrics(self, scheme: str = "simulation") -> SystemMetrics:
        """Re-express the summary as a :class:`~repro.core.metrics.SystemMetrics`.

        The aggregates equal ``avg_online_time_per_file`` /
        ``avg_download_time_per_file`` up to floating-point rounding (count
        weighting is algebraically identical to the user-level sums), so
        simulated and fluid results can flow through the same tables.
        """
        per_class = [self.class_metrics(i) for i in self.classes]
        return aggregate_metrics(scheme, per_class)


def summary_to_dict(summary: SimulationSummary) -> dict[str, Any]:
    """Serialise a run summary for JSON output (NaNs become None)."""

    def clean(x: float) -> float | None:
        return None if x != x else float(x)

    return {
        "n_users_completed": summary.n_users_completed,
        "avg_online_time_per_file": clean(summary.avg_online_time_per_file),
        "avg_download_time_per_file": clean(summary.avg_download_time_per_file),
        "online_time_per_file_by_class": [
            clean(v) for v in summary.online_time_per_file_by_class
        ],
        "download_time_per_file_by_class": [
            clean(v) for v in summary.download_time_per_file_by_class
        ],
        "entry_download_time_by_class": [
            clean(v) for v in summary.entry_download_time_by_class
        ],
        "class_counts": [int(v) for v in summary.class_counts],
    }
