"""Compiling one :class:`~repro.scenario.spec.ScenarioSpec` to each backend.

The compile-to-both contract: any spec section a backend can represent is
honoured identically across backends (same parameters, same units), and a
section a backend *cannot* represent raises a path-qualified
:class:`~repro.scenario.schema.SpecError` instead of being silently
dropped.  The support matrix:

==============  =======  ====  ======
section         fluid    DES   chunks
==============  =======  ====  ======
params          yes      yes   upload_rate default
workload        yes      yes   --
arrivals        (rates)  yes   --
churn           (gamma)  yes   --
behavior        rho      yes   --
seeds           --       yes   --
tiers           yes      no    no
chunks          --       no    yes
streaming       no       no    yes
sim             --       yes   seed
==============  =======  ====  ======

``tests/scenario/test_cross_check.py`` pins the contract end to end: a
DSL-defined scenario compiled to the fluid model and to the simulator must
agree on steady-state class metrics within validation-style tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.correlation import CorrelationModel
from repro.core.heterogeneous import HeterogeneousModel, PeerClass
from repro.core.parameters import FluidParameters
from repro.core.schemes import FluidModel, Scheme, build_model
from repro.chunks.config import ChunkSwarmConfig
from repro.scenario.schema import SpecError
from repro.scenario.spec import ScenarioSpec, StreamingSpec
from repro.sim.scenarios import ScenarioConfig
from repro.sim.swarm import SeedPolicy

__all__ = [
    "ChunkRun",
    "compile_chunks",
    "compile_correlation",
    "compile_fluid",
    "compile_params",
    "compile_sim",
    "supported_backends",
]


def compile_params(spec: ScenarioSpec) -> FluidParameters:
    """The spec's ``params`` section as core :class:`FluidParameters`."""
    p = spec.params
    return FluidParameters(
        mu=p.mu,
        eta=p.eta,
        gamma=p.gamma,
        num_files=p.num_files,
        download_bandwidth=p.download_bandwidth,
    )


def compile_correlation(spec: ScenarioSpec) -> CorrelationModel:
    """The spec's ``workload`` section as the Sec.-4.1 binomial model."""
    return CorrelationModel(
        num_files=spec.params.num_files,
        p=spec.workload.p,
        visit_rate=spec.workload.visit_rate,
    )


def compile_fluid(spec: ScenarioSpec) -> FluidModel:
    """Compile to the fluid backend.

    Homogeneous specs dispatch through :func:`repro.core.build_model`
    (MTCD/MTSD/MFCD closed forms, CMFSD ODE solves).  Specs with bandwidth
    ``tiers`` compile to the Sec.-2 general multi-class model instead: each
    tier becomes a :class:`~repro.core.heterogeneous.PeerClass` whose
    arrival rate is its share of the total file-request rate
    ``visit_rate * K * p`` and whose seed-departure rate defaults to
    ``params.gamma``.
    """
    if spec.streaming is not None:
        raise SpecError(
            "streaming", "the fluid backend has no piece-level deadlines; "
            "compile to the chunk backend instead"
        )
    if spec.tiers:
        corr = compile_correlation(spec)
        total_rate = corr.total_file_request_rate()
        classes = tuple(
            PeerClass(
                upload=t.upload,
                download=t.download,
                arrival_rate=total_rate * t.share,
                seed_departure_rate=(
                    t.seed_departure_rate
                    if t.seed_departure_rate is not None
                    else spec.params.gamma
                ),
            )
            for t in spec.tiers
        )
        return HeterogeneousModel(classes=classes, eta=spec.params.eta)
    return build_model(
        spec.scheme,
        compile_params(spec),
        compile_correlation(spec),
        rho=spec.behavior.rho,
    )


def compile_sim(spec: ScenarioSpec) -> ScenarioConfig:
    """Compile to the discrete-event simulator backend."""
    if spec.tiers:
        raise SpecError(
            "tiers",
            "the flow-level simulator backend has one homogeneous peer "
            "bandwidth; compile tiered specs to the fluid backend",
        )
    if spec.streaming is not None:
        raise SpecError(
            "streaming", "the flow-level simulator has no pieces; compile "
            "streaming specs to the chunk backend"
        )
    behavior = spec.behavior
    sim = spec.sim
    seed_policy = (
        SeedPolicy(spec.seeds.policy) if spec.seeds.policy is not None else None
    )
    try:
        return ScenarioConfig(
            scheme=spec.scheme,
            params=compile_params(spec),
            correlation=compile_correlation(spec),
            t_end=sim.t_end,
            warmup=sim.warmup,
            rho=behavior.rho,
            seed=sim.seed,
            sample_interval=sim.sample_interval,
            seed_policy=seed_policy,
            depart_together=behavior.depart_together,
            adapt=(
                behavior.adapt.to_policy() if behavior.adapt is not None else None
            ),
            adapt_period=(
                behavior.adapt.period if behavior.adapt is not None else 20.0
            ),
            cheater_fraction=behavior.cheater_fraction,
            initial_burst=spec.arrivals.initial_burst,
            arrivals_enabled=spec.arrivals.process == "poisson",
            seed_lifetime_distribution=spec.churn.seed_lifetime,
            neighbor_limit=sim.neighbor_limit,
        )
    except ValueError as exc:
        # ScenarioConfig re-validates cross-field constraints the spec
        # cannot see (e.g. neighbor_limit vs seed placement); keep those
        # rejections path-qualified like every other spec error.
        raise SpecError("sim", str(exc)) from None


@dataclass(frozen=True)
class ChunkRun:
    """A compiled chunk-backend run: engine config plus run shape."""

    config: ChunkSwarmConfig
    n_peers: int
    n_seeds: int
    max_rounds: int
    seed: int
    streaming: StreamingSpec | None


def compile_chunks(spec: ScenarioSpec) -> ChunkRun:
    """Compile to the chunk-level swarm backend (flash-crowd run shape)."""
    ch = spec.chunks
    if ch is None:
        raise SpecError(
            "chunks", "spec has no chunks section; add one to run the "
            "chunk-level backend"
        )
    if spec.tiers:
        raise SpecError(
            "tiers", "the chunk engine has one homogeneous upload rate; "
            "compile tiered specs to the fluid backend"
        )
    try:
        config = ChunkSwarmConfig(
            n_chunks=ch.n_chunks,
            upload_rate=(
                ch.upload_rate if ch.upload_rate is not None else spec.params.mu
            ),
            n_upload_slots=ch.n_upload_slots,
            optimistic_slots=ch.optimistic_slots,
            round_length=ch.round_length,
            seed_stays=ch.seed_stays,
            seed_unchoke=ch.seed_unchoke,
            super_seeding=ch.super_seeding,
            piece_selection=ch.piece_selection,
            neighbor_degree=ch.neighbor_degree,
        )
    except ValueError as exc:
        raise SpecError("chunks", str(exc)) from None
    return ChunkRun(
        config=config,
        n_peers=ch.n_peers,
        n_seeds=ch.n_seeds,
        max_rounds=ch.max_rounds,
        seed=spec.sim.seed,
        streaming=spec.streaming,
    )


def supported_backends(spec: ScenarioSpec) -> tuple[str, ...]:
    """Which backends this spec compiles to, in preference order.

    Probes each compiler and collects the ones that accept the spec --
    the generic driver and the fuzz tests iterate exactly this set.
    """
    supported = []
    for name, compiler in (
        ("fluid", compile_fluid),
        ("sim", compile_sim),
        ("chunks", compile_chunks),
    ):
        try:
            compiler(spec)
        except SpecError:
            continue
        supported.append(name)
    return tuple(supported)
