"""The four workloads, run inside a fresh worker process (``worker.py``).

Each workload builds its inputs from the seed, calls ``ctx.ready()`` just
before its first timed operation (that instant ends ``setup_s``), measures,
and returns its figures with a ``check`` closure that the worker calls after
the timed window and outside any metrics registry (the checks solve fluid
models, which must not show up in the traced run's ode counters).  The amount of work
depends only on the seed, ``--seconds`` and the size table, never on how
fast the program runs, so a parent and a child commit do identical work.

The program is reached only through public calls of ``repro.runner``,
``repro.sim``, ``repro.chunks``, ``repro.service`` and ``repro.scenario``;
``instrument`` wraps the entry points each layer exposes for the traced run.
"""

from __future__ import annotations

import asyncio
import selectors
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

import numpy as np

from perfbench import checks

ROOT = Path(__file__).resolve().parents[1]
LIVE_SPEC = ROOT / "examples" / "live_flashcrowd.yaml"

#: per-workload sizes.  ``unit_s`` is what one unit of work (a sweep, a
#: set of DES legs, a flash crowd) took on the reference machine (2-core
#: x86-64 container, CPython 3.11); a run does round(seconds / unit_s)
#: units, at least one.  "tiny" is for the benchmark's own tests.
SIZES = {
    "full": {
        "fluid_sweep": {"p_rows": 18, "rho_points": 41, "cold_checks": 3, "unit_s": 3.5},
        "des_swarm": {
            "horizon": 2000.0,
            "warmup": 700.0,
            "slice": 50.0,
            "little_min_users": 100,
            "unit_s": 17.0,
        },
        "chunk_flashcrowd": {"leechers": 600, "chunks": 200, "unit_s": 14.0},
        "live_service": {
            "paced_rate": 200.0,
            "paced": 1200,
            "flood": 2400,
            "bursts": 4,
            "queue_capacity": 256,
        },
    },
    "tiny": {
        "fluid_sweep": {"p_rows": 3, "rho_points": 5, "cold_checks": 2, "unit_s": 3.5},
        "des_swarm": {
            "horizon": 1800.0,
            "warmup": 600.0,
            "slice": 150.0,
            "little_min_users": 50,
            "unit_s": 17.0,
        },
        "chunk_flashcrowd": {"leechers": 40, "chunks": 20, "unit_s": 14.0},
        "live_service": {
            "paced_rate": 200.0,
            "paced": 200,
            "flood": 300,
            "bursts": 3,
            "queue_capacity": 64,
        },
    },
}


class SetupDone(Exception):
    """Raised by ``Context.ready`` in setup-only mode to end the worker."""


class Context:
    """What a workload needs from the worker: seed, budget, tracing hooks."""

    def __init__(self, workload: str, seed: int, seconds: float, size: str, mode: str, rec):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = SIZES[size][workload]
        self.mode = mode
        self.rec = rec  #: a tracing.Recorder in trace mode, else None
        self.ready_at: float | None = None

    def units(self) -> int:
        return max(1, round(self.seconds / self.size["unit_s"]))

    def ready(self, *extra) -> None:
        """Mark the end of set-up (first call only); set-up-only runs stop here."""
        if self.ready_at is not None:
            return
        self.ready_at = time.perf_counter()
        print("READY", repr(time.monotonic()), *extra, flush=True)
        if self.mode == "setup" and self.workload != "live_service":
            raise SetupDone

    def span(self, name: str, layer: str):
        """A recorded span in trace mode, else nothing."""
        return nullcontext() if self.rec is None else self.rec.span(name, layer)


def instrument(rec) -> None:
    """Wrap every layer's public entry points with span recorders."""
    import repro.experiments.figure4a as figure4a
    import repro.service.core as service_core
    from repro.chunks import ChunkSwarm, ReferenceChunkSwarm, SparseChunkSwarm
    from repro.core.cmfsd import CMFSDModel
    from repro.core.mfcd import MFCDModel
    from repro.service.journal import JournalWriter
    from repro.service.live import SwarmService
    from repro.sim.metrics import MetricsCollector
    from repro.sim.swarm import Swarm, SwarmGroup
    from repro.sim.system import SimulationSystem

    rec.wrap(figure4a, "steady_state_path", "steady_state_path", "core.path")
    for model in (CMFSDModel, MFCDModel):
        rec.wrap(model, "from_correlation", f"{model.__name__}.from_correlation", "core.model")
        rec.wrap(model, "system_metrics", f"{model.__name__}.system_metrics", "core.model")

    rec.wrap(SimulationSystem, "run_until", "run_until", "sim.run_until")
    rec.wrap(SimulationSystem, "flush", "flush", "sim.flush")
    rec.wrap(SimulationSystem, "sync_accounting", "sync_accounting", "sim.summarize")
    rec.wrap(MetricsCollector, "summarize", "summarize", "sim.summarize")
    for name in ("recompute_rates", "recompute_rates_incremental"):
        rec.wrap(Swarm, name, f"Swarm.{name}", "sim.kernel")
    for name in ("recompute_rates_all", "recompute_rates_all_incremental"):
        rec.wrap(SwarmGroup, name, f"SwarmGroup.{name}", "sim.kernel")

    for engine in (ChunkSwarm, SparseChunkSwarm, ReferenceChunkSwarm):
        rec.wrap(engine, "__init__", f"{engine.__name__}.__init__", "chunks.build")
        rec.wrap(engine, "add_peers", f"{engine.__name__}.add_peers", "chunks.build")
        rec.wrap(engine, "run_round", f"{engine.__name__}.run_round", "chunks.round")

    rec.wrap(service_core, "compile_sim", "compile_sim", "scenario.compile")
    rec.wrap(service_core, "build_simulation", "build_simulation", "sim.build")
    rec.wrap(SwarmService, "ingest", "ingest", "service.ingest")
    rec.wrap(SwarmService, "stats", "stats", "service.query")
    rec.wrap(SwarmService, "summary_so_far", "summary_so_far", "service.query")
    rec.wrap(service_core.ServiceCore, "advance", "advance", "service.advance")
    rec.wrap(service_core.ServiceCore, "apply", "apply", "service.apply")
    for name in ("write_header", "advance", "event", "close"):
        rec.wrap(JournalWriter, name, f"journal.{name}", "service.journal")
    # the event loop blocks in select() while it waits for the client
    rec.wrap(selectors.DefaultSelector, "select", "select", "service.loop_idle")


# ----- fluid_sweep --------------------------------------------------------------------


def fluid_sweep(ctx: Context) -> dict:
    """Figure 4(a) CMFSD steady states over a jittered (p, rho) grid."""
    import repro.experiments.figure4a as figure4a
    from repro.ode.steady_state import SteadyStateOptions
    from repro.runner import run_sweep

    size = ctx.size
    rng = np.random.default_rng(ctx.seed)
    rho_values = np.linspace(0.0, 1.0, size["rho_points"])
    # p rows 0.1, 0.15, ... each shifted by one seeded offset below the step,
    # so every row stays in (0.1, 1.0] and each seed solves its own grid
    step = 0.9 / size["p_rows"]
    grids = [
        {
            "p_values": (0.1 + step * (np.arange(size["p_rows"]) + rng.random())).tolist(),
            "rho_values": rho_values.tolist(),
        }
        for _ in range(ctx.units())
    ]
    pairs: list = []
    path_times: list[float] = []
    solve_path = figure4a.steady_state_path

    def captured(models, *args, **kwargs):
        started = time.perf_counter()
        steadies = solve_path(models, *args, **kwargs)
        path_times.append(time.perf_counter() - started)
        pairs.extend(zip(models, steadies))
        return steadies

    figure4a.steady_state_path = captured
    summaries = []
    ctx.ready()
    t0 = time.perf_counter()
    per_sweep = size["p_rows"] * size["rho_points"]
    rates = []
    for grid in grids:
        started = time.perf_counter()
        with ctx.span("run_sweep", "runner"):
            summaries.append(run_sweep("figure4a", [grid], jobs=1))
        rates.append(per_sweep / (time.perf_counter() - started))
    t1 = time.perf_counter()
    figure4a.steady_state_path = solve_path
    points = per_sweep * len(grids)

    def check() -> tuple[int, list[str]]:
        made, failures = checks.check_steady_states(pairs, SteadyStateOptions().tol)
        if len(pairs) != points:
            failures.append(f"solved {len(pairs)} steady states, expected {points}")
        failures += [f"run_sweep failed: {s.failures}" for s in summaries if not s.ok]
        chosen = rng.choice(len(pairs), size=min(size["cold_checks"], len(pairs)), replace=False)
        cold_made, cold_failures = checks.check_cold_agreement([pairs[i] for i in chosen])
        return made + cold_made, failures + cold_failures

    return {
        "t0": t0,
        "t1": t1,
        "rate": median(rates),  # median over sweeps
        "latency_s": median(path_times),
        "latencies_s": path_times,
        "check": check,
        "runner_self_s": sum(s.wall_clock - s.driver_seconds for s in summaries),
        "diagnostics": {"points": (points, "count"), "sweeps": (len(grids), "count")},
    }


# ----- des_swarm ----------------------------------------------------------------------


def des_swarm(ctx: Context) -> dict:
    """MTCD, CMFSD rho=0.5 and MTSD numwant 20 at p=0.9, advanced in virtual slices."""
    from repro.core import Scheme
    from repro.core.cmfsd import CMFSDModel
    from repro.core.correlation import CorrelationModel
    from repro.core.mtcd import MTCDModel
    from repro.core.mtsd import MTSDModel
    from repro.core.parameters import PAPER_PARAMETERS as params
    from repro.sim import ScenarioConfig, SeedPolicy, build_simulation

    size = ctx.size
    horizon, warmup = size["horizon"], size["warmup"]
    corr = CorrelationModel(num_files=params.num_files, p=0.9, visit_rate=1.0)
    legs = (
        ("mtcd", {"scheme": Scheme.MTCD}),
        ("cmfsd", {"scheme": Scheme.CMFSD, "rho": 0.5, "seed_policy": SeedPolicy.GLOBAL_POOL}),
        ("mtsd", {"scheme": Scheme.MTSD, "neighbor_limit": 20}),
    )
    runs = []
    for unit in range(ctx.units()):
        for label, options in legs:
            config = ScenarioConfig(
                params=params,
                correlation=corr,
                t_end=horizon,
                warmup=warmup,
                seed=ctx.seed * 1000 + unit,
                **options,
            )
            with ctx.span("build_simulation", "sim.build"):
                system, arrivals = build_simulation(config)
            system.start_sampler(config.sample_interval, horizon)
            arrivals.start()
            runs.append((label, system))

    slice_times: list[list[float]] = []
    summaries = []
    ctx.ready()
    t0 = time.perf_counter()
    for label, system in runs:
        slice_times.append([])
        t = 0.0
        while t < horizon:
            t = min(horizon, t + size["slice"])
            started = time.perf_counter()
            system.run_until(t)
            slice_times[-1].append(time.perf_counter() - started)
        system.sync_accounting()
        summaries.append(system.metrics.summarize(warmup=warmup, horizon=horizon))
    t1 = time.perf_counter()

    def check() -> tuple[int, list[str]]:
        cmfsd = CMFSDModel.from_correlation(params, corr, rho=0.5).system_metrics()
        mtcd = MTCDModel.from_correlation(params, corr).system_metrics()
        fluid = {
            "mtcd": {"avg_download_time_per_file": mtcd.avg_download_time_per_file},
            "cmfsd": {
                "avg_online_time_per_file": cmfsd.avg_online_time_per_file,
                "avg_download_time_per_file": cmfsd.avg_download_time_per_file,
            },
            "mtsd": {
                "transfer_time": MTSDModel.from_correlation(params, corr).single_download_time()
            },
        }
        attempted, failures = sum(map(len, slice_times)), []
        for (label, system), summary in zip(runs, summaries):
            made, failed = checks.check_des_leg(
                label, system, summary, fluid[label], (warmup, horizon), size["little_min_users"]
            )
            attempted += made
            failures += failed
        return attempted, failures

    return {
        "t0": t0,
        "t1": t1,
        "rate": horizon * len(runs) / (t1 - t0),
        # one slice of every leg: the sum over legs of each leg's median
        # slice time (a median over the pooled slices would jump between legs)
        "latency_s": sum(median(times) for times in slice_times) / ctx.units(),
        "latencies_s": [t for times in slice_times for t in times],
        "check": check,
        "diagnostics": {
            "legs": (len(runs), "count"),
            "users_completed": (sum(s.n_users_completed for s in summaries), "count"),
        },
    }


# ----- chunk_flashcrowd ---------------------------------------------------------------


def chunk_flashcrowd(ctx: Context) -> dict:
    """One seed and a crowd of leechers at full mixing, engine chosen by ``auto``."""
    from repro.chunks import (
        ChunkSwarm,
        ChunkSwarmConfig,
        ReferenceChunkSwarm,
        SparseChunkSwarm,
        measure_eta,
    )

    size = ctx.size
    config = ChunkSwarmConfig(n_chunks=size["chunks"], neighbor_degree=None)
    rounds: list[float] = []
    swarms: list = []
    originals = {}

    def timed(engine):
        run_round = originals[engine] = engine.run_round

        def wrapper(self):
            ctx.ready()
            if not swarms or swarms[-1] is not self:
                swarms.append(self)
            started = time.perf_counter()
            run_round(self)
            rounds.append(time.perf_counter() - started)

        return wrapper

    for engine in (ChunkSwarm, SparseChunkSwarm, ReferenceChunkSwarm):
        engine.run_round = timed(engine)
    results = []
    try:
        for unit in range(ctx.units()):
            results.append(
                measure_eta(
                    n_peers=size["leechers"],
                    n_seeds=1,
                    config=config,
                    seed=ctx.seed * 1000 + unit,
                    engine="auto",
                )
            )
        t0, t1 = ctx.ready_at, time.perf_counter()
    finally:
        for engine, run_round in originals.items():
            engine.run_round = run_round

    def check() -> tuple[int, list[str]]:
        attempted, failures = len(rounds), []
        for swarm in swarms:
            made, failed = checks.check_chunk_run(swarm, size["leechers"])
            attempted += made
            failures += failed
        reported = sum(r.rounds for r in results)
        if reported != len(rounds):
            failures.append(f"measure_eta reported {reported} rounds, ran {len(rounds)}")
        return attempted, failures

    return {
        "t0": t0,
        "t1": t1,
        "rate": len(rounds) / (t1 - t0),
        "latency_s": median(rounds),
        "latencies_s": rounds,
        "check": check,
        "diagnostics": {
            "engine": (type(swarms[0]).__name__, "class"),
            "eta_effective": (median(r.eta_effective for r in results), "ratio"),
            "peers": (size["leechers"] + 1, "count"),
            "chunks": (size["chunks"], "count"),
        },
    }


# ----- live_service (the service side; the client is loadgen.py) -----------------------


def live_service(ctx: Context) -> dict | None:
    return asyncio.run(_serve(ctx))


async def _serve(ctx: Context) -> dict | None:
    from repro.scenario import load_spec
    from repro.service import SwarmService

    size = ctx.size
    with ctx.span("load_spec", "scenario.compile"):
        spec = load_spec(LIVE_SPEC)
    tmp_root = ROOT / ".perfbench" / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="live-", dir=tmp_root))
    journal = workdir / "journal.ndjson"
    try:
        # virtual time moves a fixed step per applied event (time_scale /
        # paced rate, the spec's wall-clock mapping at the paced rate), so
        # every run simulates the same work whatever the wall clock does,
        # and a seed always yields the same journal (the one
        # loadgen.plan_requests foresees)
        step = spec.service.time_scale / size["paced_rate"]
        service = None

        def clock() -> float:
            return service.core.events_applied * step

        service = SwarmService(
            spec,
            journal_path=journal,
            overflow="block",
            queue_capacity=size["queue_capacity"],
            clock=clock,
        )
        await service.start()
        server = await service.serve_tcp("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        ctx.ready(port, repr(service.core.t_end))
        t0 = time.perf_counter()
        if ctx.mode != "setup":
            # the client closes its connection first, then asks us to stop
            command = await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
            if command.strip() != "stop":
                raise RuntimeError(f"expected 'stop' on stdin, got {command!r}")
        server.close()
        await server.wait_closed()
        await service.stop()
        if ctx.mode == "setup":
            return None
        live_digest = service.digest
        with ctx.span("replay_journal", "service.replay"):
            replayed = replay(journal)
        t1 = time.perf_counter()
        replayed["journal_events"] = journal_events(journal)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "t0": t0,
        "t1": t1,
        "applied": service.core.events_applied,
        "live_digest": live_digest,
        "virtual_time": service.core.now,
        "counters": dict(service.counters),
        **replayed,
    }


def journal_events(journal: Path) -> int:
    """Number of event records in a journal."""
    from repro.service import read_journal

    return sum(1 for record in read_journal(journal) if record["op"] == "event")


def replay(journal: Path) -> dict:
    """Re-execute a sealed journal; its digest, event count and timing.

    A replay whose digest disagrees with the one sealed in the journal
    reports ``replay_digest=None`` instead of raising, so the live check
    counts it as a failed operation.
    """
    from repro.service import ReplayMismatchError, replay_journal

    started = time.perf_counter()
    try:
        result = replay_journal(journal)
        digest, verified, replayed = result.digest, result.verified, result.events_applied
    except ReplayMismatchError:
        digest, verified, replayed = None, False, 0
    seconds = time.perf_counter() - started
    return {
        "replay_digest": digest,
        "replay_verified": verified,
        "replay_events": replayed,
        "replay_s": seconds,
    }
