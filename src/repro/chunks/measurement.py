"""Measuring the fluid ``eta`` from chunk-level swarm runs.

In the fluid models a downloader contributes ``eta * mu`` of service and a
seed contributes ``mu``.  The chunk-level analogue of ``eta`` is therefore
the *utilization* of downloader upload capacity: useful work uploaded by
peers while they were downloaders, divided by the upload capacity they had
during that time.  :func:`measure_eta` runs a flash-crowd swarm (the
lifecycle of the Izal et al. measurement the paper cites) and reports that
ratio, alongside the seeds' utilization and the observed download times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chunks.config import ChunkSwarmConfig
from repro.chunks.sparse import SparseChunkSwarm
from repro.chunks.swarm import ChunkSwarm
from repro.obs import current_registry

__all__ = [
    "EtaMeasurement",
    "measure_eta",
    "OpenSwarmMeasurement",
    "measure_eta_open",
    "DeadlineMeasurement",
    "measure_deadline_misses",
]

#: selectable engines -- "vector" is the dense O(peers^2) kernel engine
#: and "sparse" the bounded-degree O(peers * d) engine.  The default
#: ``"auto"`` resolves on the config: ``neighbor_degree=None`` -> dense,
#: a bounded degree -> sparse.  The scalar oracle
#: (:class:`~repro.chunks.reference.ReferenceChunkSwarm`) is not offered:
#: the equivalence suites drive it directly.
_ENGINES = {
    "vector": ChunkSwarm,
    "sparse": SparseChunkSwarm,
}


def _make_swarm(engine: str, cfg: ChunkSwarmConfig, seed: int):
    if engine == "auto":
        engine = "vector" if cfg.neighbor_degree is None else "sparse"
    try:
        cls = _ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of "
            f"{sorted(_ENGINES) + ['auto']}"
        ) from None
    return cls(cfg, seed=seed)


def _record_run(swarm, rounds: int) -> None:
    """Fold one finished run's totals into the active obs registry."""
    reg = current_registry()
    if not reg.enabled:
        return
    reg.inc("chunks.runs")
    reg.inc("chunks.wasted_bytes", swarm.wasted_bytes)
    reg.inc("chunks.downloader_useful", swarm.downloader_useful)
    reg.inc("chunks.downloader_capacity", swarm.downloader_capacity)
    reg.observe("chunks.run_rounds", rounds)


@dataclass(frozen=True)
class EtaMeasurement:
    """Outcome of one eta-measurement run.

    Attributes
    ----------
    eta_effective:
        Useful downloader upload / downloader upload capacity -- the
        empirical counterpart of the fluid ``eta``.
    seed_utilization:
        Same ratio for seeds (how much of their capacity found takers).
    mean_download_time / max_download_time:
        Completion statistics of the initial leechers.
    rounds:
        Choking rounds until the swarm finished.
    n_peers / n_chunks:
        Run configuration echo.
    """

    eta_effective: float
    seed_utilization: float
    mean_download_time: float
    max_download_time: float
    rounds: int
    n_peers: int
    n_chunks: int


def measure_eta(
    *,
    n_peers: int = 40,
    n_seeds: int = 1,
    config: ChunkSwarmConfig | None = None,
    seed: int = 0,
    max_rounds: int = 100_000,
    engine: str = "auto",
) -> EtaMeasurement:
    """Run one flash-crowd swarm and measure the effective ``eta``.

    ``n_peers`` leechers join an ``n_seeds``-seed swarm at t=0 and stay to
    seed after finishing (``config.seed_stays``); the measurement window is
    the whole run, so it covers the startup phase (no chunks to share --
    the main source of downloader idleness) through the endgame.

    ``engine`` selects ``"vector"`` (dense), ``"sparse"`` (bounded
    neighborhoods) or ``"auto"`` (the default: dense for
    ``neighbor_degree=None``, sparse otherwise).
    """
    if n_peers < 1:
        raise ValueError(f"n_peers must be >= 1, got {n_peers}")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1 (someone must hold the file), got {n_seeds}")
    cfg = config if config is not None else ChunkSwarmConfig()
    swarm = _make_swarm(engine, cfg, seed)
    swarm.add_peers(n_seeds, is_seed=True)
    leechers = swarm.add_peers(n_peers, is_seed=False)
    rounds = swarm.run(max_rounds=max_rounds)
    _record_run(swarm, rounds)

    times = np.array([p.finished_at - p.joined_at for p in leechers])
    eta_eff = (
        swarm.downloader_useful / swarm.downloader_capacity
        if swarm.downloader_capacity > 0
        else float("nan")
    )
    seed_util = (
        swarm.seed_useful / swarm.seed_capacity
        if swarm.seed_capacity > 0
        else float("nan")
    )
    return EtaMeasurement(
        eta_effective=float(eta_eff),
        seed_utilization=float(seed_util),
        mean_download_time=float(times.mean()),
        max_download_time=float(times.max()),
        rounds=rounds,
        n_peers=n_peers,
        n_chunks=cfg.n_chunks,
    )


@dataclass(frozen=True)
class OpenSwarmMeasurement:
    """Steady-state measurement of a churned (open) chunk-level swarm.

    The open system is the regime the fluid models actually describe:
    Poisson arrivals at rate ``arrival_rate``, finished peers seed for an
    exponential ``1/gamma`` and leave.  Fields are steady-window averages.

    ``fluid_download_time`` is the Qiu--Srikant prediction evaluated *at
    the measured coefficients*: solving
    ``lambda = mu*(eta*x + u*(lambda/gamma + s))`` (with ``s`` the
    persistent origin seeds) gives

        T = x/lambda = (gamma - u*mu)/(gamma*mu*eta) - u*s/(lambda*eta).

    Comparing it with ``mean_download_time`` closes the chunk-to-fluid
    loop in the open setting (our runs agree to a few percent).
    """

    eta_effective: float
    seed_utilization: float
    mean_download_time: float
    mean_downloaders: float
    mean_seeds: float
    fluid_download_time: float
    n_completed: int


def measure_eta_open(
    *,
    arrival_rate: float = 0.25,
    gamma: float = 0.05,
    config: ChunkSwarmConfig | None = None,
    t_end: float = 2500.0,
    warmup: float = 800.0,
    seed: int = 0,
    engine: str = "auto",
) -> OpenSwarmMeasurement:
    """Run an open chunk-level swarm and compare with the fluid steady state.

    One origin seed persists forever (keeps the torrent alive); leechers
    arrive Poisson(``arrival_rate``), seed for ``Exp(1/gamma)`` after
    finishing and then leave.  Utilizations, populations and download
    times are measured over ``[warmup, t_end]``.
    """
    if arrival_rate <= 0 or gamma <= 0:
        raise ValueError("arrival_rate and gamma must be positive")
    if not 0 <= warmup < t_end:
        raise ValueError(f"need 0 <= warmup < t_end, got {warmup}, {t_end}")
    cfg = config if config is not None else ChunkSwarmConfig()
    swarm = _make_swarm(engine, cfg, seed)
    rng = np.random.default_rng(seed + 77_000)
    origin = swarm.add_peer(is_seed=True)
    departures: dict[int, float] = {}

    n_rounds = int(round(t_end / cfg.round_length))
    warmup_rounds = int(round(warmup / cfg.round_length))
    window_start = (
        swarm.downloader_useful,
        swarm.downloader_capacity,
        swarm.seed_useful,
        swarm.seed_capacity,
    )
    pop_dl: list[int] = []
    pop_seed: list[int] = []
    completed: list[float] = []
    for k in range(n_rounds):
        for _ in range(rng.poisson(arrival_rate * cfg.round_length)):
            swarm.add_peer(is_seed=False)
        swarm.run_round()
        for peer in list(swarm.peers.values()):
            if peer.peer_id == origin.peer_id or not peer.is_seed:
                continue
            if peer.peer_id not in departures:
                departures[peer.peer_id] = swarm.now + rng.exponential(1.0 / gamma)
                if peer.joined_at >= warmup:
                    completed.append(peer.finished_at - peer.joined_at)
            elif swarm.now >= departures[peer.peer_id]:
                swarm.remove_peer(peer.peer_id)
        if k == warmup_rounds:
            window_start = (
                swarm.downloader_useful,
                swarm.downloader_capacity,
                swarm.seed_useful,
                swarm.seed_capacity,
            )
        if k >= warmup_rounds:
            record = swarm.history[-1]
            pop_dl.append(record[5])
            pop_seed.append(record[6])

    _record_run(swarm, n_rounds)
    dl_useful = swarm.downloader_useful - window_start[0]
    dl_capacity = swarm.downloader_capacity - window_start[1]
    seed_useful = swarm.seed_useful - window_start[2]
    seed_capacity = swarm.seed_capacity - window_start[3]
    eta_eff = dl_useful / dl_capacity if dl_capacity > 0 else float("nan")
    seed_util = seed_useful / seed_capacity if seed_capacity > 0 else float("nan")
    mu = cfg.upload_rate
    fluid_T = (gamma - float(seed_util) * mu) / (gamma * mu * float(eta_eff)) - float(
        seed_util
    ) / (arrival_rate * float(eta_eff))
    return OpenSwarmMeasurement(
        eta_effective=float(eta_eff),
        seed_utilization=float(seed_util),
        mean_download_time=float(np.mean(completed)) if completed else float("nan"),
        mean_downloaders=float(np.mean(pop_dl)) if pop_dl else float("nan"),
        mean_seeds=float(np.mean(pop_seed)) if pop_seed else float("nan"),
        fluid_download_time=float(fluid_T),
        n_completed=len(completed),
    )


@dataclass(frozen=True)
class DeadlineMeasurement:
    """Piece-deadline streaming outcome of one flash-crowd swarm run.

    A peer starts playback ``startup_delay`` after joining and consumes
    pieces in index order at ``playback_rate`` files per unit time, so
    piece ``c`` (0-based) must be complete by
    ``joined_at + delay + (c + 1) / (n_chunks * playback_rate)``.
    ``miss_rates[k]`` is the fraction of (peer, piece) pairs whose piece
    completed after that instant under ``startup_delays[k]`` -- every delay
    is evaluated against the *same* run, so sweeping delays is free.

    Piece completion is observed at round ends, matching the engines' own
    ``finished_at`` granularity.
    """

    playback_rate: float
    startup_delays: tuple[float, ...]
    miss_rates: tuple[float, ...]
    mean_download_time: float
    rounds: int
    n_peers: int
    n_chunks: int


def measure_deadline_misses(
    *,
    n_peers: int = 40,
    n_seeds: int = 1,
    config: ChunkSwarmConfig | None = None,
    playback_rate: float,
    startup_delays: tuple[float, ...] = (0.0,),
    seed: int = 0,
    max_rounds: int = 100_000,
    engine: str = "auto",
) -> DeadlineMeasurement:
    """Run one flash-crowd swarm and measure streaming deadline misses.

    The swarm runs exactly like :func:`measure_eta` (``n_peers`` leechers
    join ``n_seeds`` seeds at t=0); per-peer piece completion times are
    recorded by diffing ownership bitmaps at round ends, then evaluated
    against the playback deadlines of every requested ``startup_delay``.
    Compare ``config.piece_selection='rarest'`` against ``'in_order'`` to
    reproduce the classic streaming trade-off: in-order selection slashes
    misses at small startup delays while rarest-first protects piece
    diversity (and hence total download time).
    """
    if n_peers < 1:
        raise ValueError(f"n_peers must be >= 1, got {n_peers}")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    if playback_rate <= 0:
        raise ValueError(f"playback_rate must be positive, got {playback_rate}")
    if not startup_delays:
        raise ValueError("need at least one startup delay")
    if any(d < 0 for d in startup_delays):
        raise ValueError(f"startup delays must be >= 0, got {startup_delays}")
    cfg = config if config is not None else ChunkSwarmConfig()
    swarm = _make_swarm(engine, cfg, seed)
    swarm.add_peers(n_seeds, is_seed=True)
    leechers = swarm.add_peers(n_peers, is_seed=False)

    C = cfg.n_chunks
    completion = np.full((n_peers, C), np.inf)
    prev = np.zeros((n_peers, C), dtype=bool)
    rounds = 0
    while not swarm.all_done:
        if rounds >= max_rounds:
            raise RuntimeError(f"swarm did not finish within {max_rounds} rounds")
        swarm.run_round()
        rounds += 1
        own = np.stack([p.bitmap for p in leechers])
        newly = own & ~prev
        if newly.any():
            completion[newly] = swarm.now
        prev = own
    _record_run(swarm, rounds)

    piece_time = 1.0 / (C * playback_rate)
    joined = np.array([p.joined_at for p in leechers])[:, None]
    playback_offsets = (np.arange(C) + 1.0) * piece_time
    miss_rates = tuple(
        float(np.mean(completion > joined + delay + playback_offsets))
        for delay in startup_delays
    )
    times = np.array([p.finished_at - p.joined_at for p in leechers])
    return DeadlineMeasurement(
        playback_rate=playback_rate,
        startup_delays=tuple(float(d) for d in startup_delays),
        miss_rates=miss_rates,
        mean_download_time=float(times.mean()),
        rounds=rounds,
        n_peers=n_peers,
        n_chunks=C,
    )
