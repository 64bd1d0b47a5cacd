"""Ready-made simulation scenarios for the four downloading schemes.

:func:`build_simulation` wires the correct topology for a scheme:

========  ==========================  ======================  ==============
scheme    torrents                    behaviour               seed policy
========  ==========================  ======================  ==============
MTCD      K single-file groups        concurrent              subtorrent
MTSD      K single-file groups        sequential              subtorrent
MFCD      1 group with K files        concurrent              subtorrent
CMFSD     1 group with K files        collaborative (rho)     global pool*
========  ==========================  ======================  ==============

(* configurable -- running CMFSD with ``SeedPolicy.SUBTORRENT`` measures how
much the paper's Eq.-(5) global-mixing assumption matters.)

:func:`run_scenario` runs to the horizon and reduces to a
:class:`~repro.sim.metrics.SimulationSummary`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.adapt import AdaptPolicy
from repro.core.correlation import CorrelationModel
from repro.core.parameters import FluidParameters
from repro.core.schemes import Scheme
from repro.sim.adapt_runtime import AdaptRuntime
from repro.sim.arrivals import ArrivalProcess
from repro.sim.behaviors import BehaviorKind, make_behavior
from repro.sim.metrics import SimulationSummary
from repro.sim.rng import RandomStreams
from repro.sim.swarm import SeedPolicy
from repro.sim.system import SimulationSystem

__all__ = ["ScenarioConfig", "build_simulation", "run_scenario"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to run one simulation scenario.

    Attributes
    ----------
    scheme:
        Which downloading scheme to simulate.
    params:
        Fluid parameters (``mu``, ``eta``, ``gamma``, ``K``).
    correlation:
        Workload model, including the visit rate ``lambda_0``.
    t_end / warmup:
        Horizon and the initial transient to discard in summaries.
    rho:
        CMFSD collaboration ratio (ignored by other schemes).
    seed:
        Master RNG seed.
    sample_interval:
        Population snapshot period.
    seed_policy:
        Override the scheme's default seed-placement policy (CMFSD only;
        single-file groups are unaffected by policy).
    depart_together:
        MFCD realism toggle (see :class:`ConcurrentBehavior`).
    adapt / adapt_period:
        When ``adapt`` is set, CMFSD users run per-peer Adapt controllers.
    cheater_fraction:
        Probability that a CMFSD user is a cheater (``rho`` pinned at 1).
    initial_burst:
        Users spawned at t=0 (a flash crowd), classed like Poisson arrivals.
    arrivals_enabled:
        Set ``False`` for pure-drain studies of an initial burst.
    seed_lifetime_distribution:
        Passed to :class:`SimulationSystem` ("exponential"/"fixed"/"uniform").
    """

    scheme: Scheme
    params: FluidParameters
    correlation: CorrelationModel
    t_end: float = 4000.0
    warmup: float = 1000.0
    rho: float = 0.0
    seed: int = 0
    sample_interval: float = 10.0
    seed_policy: SeedPolicy | None = None
    depart_together: bool = False
    adapt: AdaptPolicy | None = field(default=None)
    adapt_period: float = 20.0
    cheater_fraction: float = 0.0
    initial_burst: int = 0
    arrivals_enabled: bool = True
    seed_lifetime_distribution: str = "exponential"
    neighbor_limit: int | None = None

    def __post_init__(self) -> None:
        if self.correlation.num_files != self.params.num_files:
            raise ValueError(
                f"correlation K={self.correlation.num_files} != "
                f"params K={self.params.num_files}"
            )
        if not 0.0 <= self.warmup < self.t_end:
            raise ValueError(f"need 0 <= warmup < t_end, got {self.warmup}, {self.t_end}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if not 0.0 <= self.cheater_fraction <= 1.0:
            raise ValueError(
                f"cheater_fraction must be in [0, 1], got {self.cheater_fraction}"
            )
        if self.adapt is not None and self.scheme is not Scheme.CMFSD:
            raise ValueError("Adapt only applies to the CMFSD scheme")
        if self.cheater_fraction > 0 and self.scheme is not Scheme.CMFSD:
            raise ValueError("cheaters only exist under the CMFSD scheme")
        if self.initial_burst < 0:
            raise ValueError(f"initial_burst must be >= 0, got {self.initial_burst}")
        if self.neighbor_limit is not None and self.scheme is Scheme.CMFSD:
            if (self.seed_policy or SeedPolicy.GLOBAL_POOL) is SeedPolicy.GLOBAL_POOL:
                raise ValueError(
                    "neighbor_limit needs SUBTORRENT seed placement; CMFSD "
                    "defaults to GLOBAL_POOL (set seed_policy explicitly)"
                )
        if not self.arrivals_enabled and self.initial_burst == 0:
            raise ValueError(
                "nothing to simulate: arrivals disabled and no initial burst"
            )


def build_simulation(
    config: ScenarioConfig,
) -> tuple[SimulationSystem, ArrivalProcess]:
    """Construct the system, topology and arrival process for a scenario."""
    params = config.params
    K = params.num_files
    system = SimulationSystem(
        mu=params.mu,
        eta=params.eta,
        gamma=params.gamma,
        num_classes=K,
        rng=RandomStreams(config.seed),
        seed_lifetime_distribution=config.seed_lifetime_distribution,
        neighbor_limit=config.neighbor_limit,
    )

    if config.scheme in (Scheme.MTCD, Scheme.MTSD):
        for f in range(K):
            system.add_group((f,), SeedPolicy.SUBTORRENT)
    else:
        default = (
            SeedPolicy.GLOBAL_POOL if config.scheme is Scheme.CMFSD else SeedPolicy.SUBTORRENT
        )
        system.add_group(tuple(range(K)), config.seed_policy or default)

    per_user_options = None
    if config.scheme is Scheme.MTCD:
        factory = make_behavior(BehaviorKind.CONCURRENT)
    elif config.scheme is Scheme.MTSD:
        factory = make_behavior(BehaviorKind.SEQUENTIAL)
    elif config.scheme is Scheme.MFCD:
        factory = make_behavior(
            BehaviorKind.CONCURRENT, depart_together=config.depart_together
        )
    else:  # CMFSD
        adapt_runtime = (
            AdaptRuntime(system, config.adapt, config.adapt_period)
            if config.adapt is not None
            else None
        )
        factory = make_behavior(
            BehaviorKind.COLLABORATIVE, rho=config.rho, adapt=adapt_runtime
        )
        if config.cheater_fraction > 0:
            frac = config.cheater_fraction

            def per_user_options(rng) -> dict:
                return {"is_cheater": bool(rng.random() < frac)}

    arrivals = ArrivalProcess(
        system,
        config.correlation,
        factory,
        t_end=config.t_end,
        per_user_options=per_user_options,
    )
    return system, arrivals


def run_scenario(config: ScenarioConfig) -> SimulationSummary:
    """Build, run to the horizon and summarise one scenario."""
    system, arrivals = build_simulation(config)
    system.start_sampler(config.sample_interval, config.t_end)
    if config.initial_burst:
        options_fn = arrivals.per_user_options
        for _ in range(config.initial_burst):
            files = config.correlation.sample_file_set(system.rng.files)
            options = options_fn(system.rng.misc) if options_fn else {}
            system.spawn_user(arrivals.behavior_factory, files, **options)
    if config.arrivals_enabled:
        arrivals.start()
    system.run_until(config.t_end)
    system.sync_accounting()
    return system.metrics.summarize(warmup=config.warmup, horizon=config.t_end)
