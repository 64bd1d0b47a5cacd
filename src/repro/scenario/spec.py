"""The declarative scenario schema (dataclass form of the DSL).

A :class:`ScenarioSpec` is the single document describing one workload --
scheme, fluid parameters, correlation workload, arrival process, churn,
collaboration/cheating behaviour, seed placement, heterogeneous bandwidth
tiers, chunk-engine geometry and streaming deadlines -- independent of the
backend that will run it.  The compilers in :mod:`repro.scenario.compile`
turn the same spec into

* a fluid model (:func:`repro.scenario.compile_fluid`),
* a discrete-event simulator scenario (:func:`repro.scenario.compile_sim`),
* a chunk-level swarm run (:func:`repro.scenario.compile_chunks`),

so one YAML file can be cross-checked across all three layers of the stack.
Sections a backend cannot honour are rejected at compile time with
path-qualified errors; everything representable is honoured identically.

All classes are frozen dataclasses validated in ``__post_init__``;
:func:`repro.scenario.schema.from_mapping` re-raises those validations as
path-qualified :class:`~repro.scenario.schema.SpecError`\\ s when a spec is
built from YAML/JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.adapt import AdaptPolicy
from repro.core.schemes import Scheme
from repro.scenario.schema import SpecError, from_mapping, to_mapping

__all__ = [
    "AdaptSpec",
    "ArrivalsSpec",
    "BehaviorSpec",
    "ChunkSpec",
    "ChurnSpec",
    "ParamsSpec",
    "ScenarioSpec",
    "SeedsSpec",
    "ServiceSpec",
    "SimSpec",
    "StreamingSpec",
    "TierSpec",
    "WorkloadSpec",
    "spec_from_dict",
    "spec_to_dict",
]


@dataclass(frozen=True)
class ParamsSpec:
    """Fluid parameters (mirrors :class:`repro.core.FluidParameters`)."""

    mu: float = 0.02
    eta: float = 0.5
    gamma: float = 0.05
    num_files: int = 10
    download_bandwidth: float | None = None

    def __post_init__(self) -> None:
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.num_files < 1:
            raise ValueError(f"num_files must be >= 1, got {self.num_files}")
        if self.download_bandwidth is not None and self.download_bandwidth <= 0:
            raise ValueError(
                f"download_bandwidth must be positive or null, "
                f"got {self.download_bandwidth}"
            )


@dataclass(frozen=True)
class WorkloadSpec:
    """The Sec.-4.1 binomial file-request workload (class mix via ``p``)."""

    p: float
    visit_rate: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.visit_rate <= 0:
            raise ValueError(f"visit_rate must be positive, got {self.visit_rate}")


@dataclass(frozen=True)
class ArrivalsSpec:
    """Arrival process: steady Poisson visits and/or a t=0 flash crowd."""

    process: str = "poisson"  #: "poisson" or "none" (pure drain)
    initial_burst: int = 0

    def __post_init__(self) -> None:
        if self.process not in ("poisson", "none"):
            raise ValueError(
                f"process must be 'poisson' or 'none', got {self.process!r}"
            )
        if self.initial_burst < 0:
            raise ValueError(f"initial_burst must be >= 0, got {self.initial_burst}")
        if self.process == "none" and self.initial_burst == 0:
            raise ValueError(
                "nothing would ever arrive: process 'none' needs initial_burst > 0"
            )


@dataclass(frozen=True)
class ChurnSpec:
    """Seed-departure churn (rate ``gamma`` lives in ``params``)."""

    seed_lifetime: str = "exponential"  #: "exponential", "fixed" or "uniform"

    def __post_init__(self) -> None:
        if self.seed_lifetime not in ("exponential", "fixed", "uniform"):
            raise ValueError(
                "seed_lifetime must be 'exponential', 'fixed' or 'uniform', "
                f"got {self.seed_lifetime!r}"
            )


@dataclass(frozen=True)
class AdaptSpec:
    """The Sec.-4.3 Adapt controller (CMFSD only)."""

    phi_increase: float = 0.0
    phi_decrease: float = 0.0
    step_increase: float = 0.1
    step_decrease: float = 0.1
    patience: int = 1
    initial_rho: float = 0.0
    period: float = 20.0  #: observation period of the per-peer controllers

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        # Delegate the rule's own consistency checks to the core policy.
        self.to_policy()

    def to_policy(self) -> AdaptPolicy:
        return AdaptPolicy(
            phi_increase=self.phi_increase,
            phi_decrease=self.phi_decrease,
            step_increase=self.step_increase,
            step_decrease=self.step_decrease,
            patience=self.patience,
            initial_rho=self.initial_rho,
        )


@dataclass(frozen=True)
class BehaviorSpec:
    """Scheme-level user behaviour: collaboration, cheating, departures."""

    rho: float = 0.0  #: CMFSD collaboration ratio (ignored by other schemes)
    cheater_fraction: float = 0.0  #: CMFSD users pinning rho at 1
    depart_together: bool = False  #: MFCD realism toggle
    adapt: AdaptSpec | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if not 0.0 <= self.cheater_fraction <= 1.0:
            raise ValueError(
                f"cheater_fraction must be in [0, 1], got {self.cheater_fraction}"
            )


@dataclass(frozen=True)
class SeedsSpec:
    """Seed placement within a multi-file group."""

    policy: str | None = None  #: "global_pool", "subtorrent" or null (scheme default)

    def __post_init__(self) -> None:
        if self.policy is not None and self.policy not in (
            "global_pool",
            "subtorrent",
        ):
            raise ValueError(
                "policy must be 'global_pool', 'subtorrent' or null, "
                f"got {self.policy!r}"
            )


@dataclass(frozen=True)
class TierSpec:
    """One differentiated-service bandwidth tier (Zhang et al. 2012).

    ``share`` is the fraction of arrivals belonging to this tier; across a
    spec's ``tiers`` the shares must sum to 1.  ``seed_departure_rate``
    optionally overrides ``params.gamma`` per tier (premium users may also
    seed longer).
    """

    name: str
    upload: float
    download: float
    share: float
    seed_departure_rate: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tier name must be non-empty")
        if self.upload <= 0 or self.download <= 0:
            raise ValueError(
                f"tier {self.name!r}: upload and download must be positive"
            )
        if not 0.0 < self.share <= 1.0:
            raise ValueError(
                f"tier {self.name!r}: share must be in (0, 1], got {self.share}"
            )
        if self.seed_departure_rate is not None and self.seed_departure_rate <= 0:
            raise ValueError(
                f"tier {self.name!r}: seed_departure_rate must be positive"
            )


@dataclass(frozen=True)
class ChunkSpec:
    """Chunk-engine geometry and the flash-crowd run shape.

    ``upload_rate`` defaults to ``params.mu`` at compile time so the chunk
    swarm and the fluid models stay in the same units unless explicitly
    decoupled.
    """

    n_chunks: int = 100
    upload_rate: float | None = None
    n_upload_slots: int = 4
    optimistic_slots: int = 1
    round_length: float = 1.0
    seed_stays: bool = True
    seed_unchoke: str = "random"
    super_seeding: bool = False
    piece_selection: str = "rarest"  #: "rarest" or "in_order" (streaming)
    #: null = full mixing (dense vectorised engine); an integer d wires each
    #: joining peer to d tracker-sampled neighbours (sparse O(peers * d)
    #: engine), the knob that makes 10^5-peer scenarios tractable
    neighbor_degree: int | None = None
    n_peers: int = 40
    n_seeds: int = 1
    max_rounds: int = 100_000

    def __post_init__(self) -> None:
        if self.n_peers < 1:
            raise ValueError(f"n_peers must be >= 1, got {self.n_peers}")
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {self.n_seeds}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.upload_rate is not None and self.upload_rate <= 0:
            raise ValueError(
                f"upload_rate must be positive or null, got {self.upload_rate}"
            )
        # Geometry checks (n_chunks, slots, policies) are delegated to
        # ChunkSwarmConfig at compile time; duplicating them here would let
        # the two drift.


@dataclass(frozen=True)
class StreamingSpec:
    """Piece-deadline streaming playback (Rodrigues 2014).

    A peer starts playback ``startup_delay`` after joining and consumes the
    file in piece order at ``playback_rate`` files per unit time; a piece
    that completes after its playback instant is a deadline miss.
    """

    playback_rate: float
    startup_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.playback_rate <= 0:
            raise ValueError(
                f"playback_rate must be positive, got {self.playback_rate}"
            )
        if self.startup_delay < 0:
            raise ValueError(
                f"startup_delay must be >= 0, got {self.startup_delay}"
            )


@dataclass(frozen=True)
class SimSpec:
    """Horizon, sampling and tracker limit of the discrete-event backend."""

    t_end: float = 4000.0
    warmup: float = 1000.0
    seed: int = 0
    sample_interval: float = 10.0
    neighbor_limit: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.warmup < self.t_end:
            raise ValueError(
                f"need 0 <= warmup < t_end, got {self.warmup}, {self.t_end}"
            )
        if self.sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be positive, got {self.sample_interval}"
            )
        if self.neighbor_limit is not None and self.neighbor_limit < 1:
            raise ValueError(
                f"neighbor_limit must be >= 1 or null, got {self.neighbor_limit}"
            )


@dataclass(frozen=True)
class ServiceSpec:
    """Live-service orchestration: how ``repro serve`` runs this scenario.

    Consumed by :class:`repro.service.SwarmService`, not by any backend
    compiler -- the section configures the daemon around the simulation
    (clock mapping, ingest backpressure, journal), never the simulation
    itself, so specs with and without it compile identically.
    """

    time_scale: float = 1.0  #: virtual seconds per wall-clock second
    duration: float | None = None  #: wall seconds to serve (None = until stopped)
    host: str = "127.0.0.1"
    port: int | None = None  #: TCP listener port (None = no network face)
    queue_capacity: int = 1024  #: bounded ingest queue length
    overflow: str = "shed"  #: full-queue policy: "shed" drops, "block" awaits
    journal: str | None = None  #: journal path (None = record nothing)
    journal_rotate_bytes: int | None = None  #: segment size bound

    def __post_init__(self) -> None:
        if self.time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {self.time_scale}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(
                f"duration must be positive or null, got {self.duration}"
            )
        if self.port is not None and not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535] or null, got {self.port}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.overflow not in ("shed", "block"):
            raise ValueError(
                f"overflow must be 'shed' or 'block', got {self.overflow!r}"
            )
        if self.journal_rotate_bytes is not None and self.journal_rotate_bytes < 1024:
            raise ValueError(
                f"journal_rotate_bytes must be >= 1024 or null, "
                f"got {self.journal_rotate_bytes}"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario, compilable to every backend that fits it."""

    scheme: Scheme
    workload: WorkloadSpec
    name: str = ""
    description: str = ""
    params: ParamsSpec = ParamsSpec()
    arrivals: ArrivalsSpec = ArrivalsSpec()
    churn: ChurnSpec = ChurnSpec()
    behavior: BehaviorSpec = BehaviorSpec()
    seeds: SeedsSpec = SeedsSpec()
    tiers: tuple[TierSpec, ...] = ()
    chunks: ChunkSpec | None = None
    streaming: StreamingSpec | None = None
    sim: SimSpec = SimSpec()
    service: ServiceSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiers", tuple(self.tiers))
        if self.tiers:
            total = sum(t.share for t in self.tiers)
            if abs(total - 1.0) > 1e-6:
                raise ValueError(
                    f"tier shares must sum to 1, got {total:.6f} over "
                    f"{[t.name for t in self.tiers]}"
                )
            names = [t.name for t in self.tiers]
            if len(set(names)) != len(names):
                raise ValueError(f"tier names must be unique, got {names}")
        if self.streaming is not None and self.chunks is None:
            raise ValueError(
                "streaming deadlines need a chunks section (only the "
                "chunk engine knows piece completion times)"
            )
        if self.behavior.adapt is not None and self.scheme is not Scheme.CMFSD:
            raise ValueError("behavior.adapt only applies to the CMFSD scheme")
        if self.behavior.cheater_fraction > 0 and self.scheme is not Scheme.CMFSD:
            raise ValueError("cheaters only exist under the CMFSD scheme")

    @property
    def has_tiers(self) -> bool:
        return bool(self.tiers)


def spec_from_dict(doc) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from a plain dict, strictly validated."""
    return from_mapping(ScenarioSpec, doc)


def spec_to_dict(spec: ScenarioSpec) -> dict:
    """Serialise a spec to a JSON/YAML-safe dict (inverse of
    :func:`spec_from_dict` -- the pair round-trips exactly)."""
    if not isinstance(spec, ScenarioSpec):
        raise SpecError("", f"expected a ScenarioSpec, got {type(spec).__name__}")
    return to_mapping(spec)
