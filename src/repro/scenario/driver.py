"""Running a scenario spec end to end as a registered-style experiment.

:func:`run_spec` is the generic driver behind ``repro run --scenario PATH``
and :func:`repro.experiments.register_experiment`'s ``spec=`` form.  It
inspects which backends the spec compiles to and produces one
:class:`~repro.experiments.base.ExperimentResult` (table + rendered report
+ figures), choosing the richest run the spec supports:

* a ``chunks`` section -> chunk-level flash-crowd run (with per-piece
  deadline miss rates when ``streaming`` is present);
* bandwidth ``tiers`` -> the Sec.-2 heterogeneous fluid model, per-tier
  download times;
* otherwise -> fluid steady state **and** a discrete-event run of the same
  spec, tabulated side by side with relative errors -- every plain spec is
  its own miniature validation experiment.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.experiments.base import ExperimentResult, FigureSpec, rows_from_columns
from repro.scenario.compile import (
    compile_chunks,
    compile_fluid,
    compile_sim,
    supported_backends,
)
from repro.scenario.spec import ScenarioSpec

__all__ = ["run_spec", "spec_experiment_id"]


def spec_experiment_id(spec: ScenarioSpec, fallback: str = "scenario") -> str:
    """Experiment id for a spec: its ``name``, else ``fallback``."""
    return spec.name or fallback


def _rel_err(fluid: float, sim: float) -> float:
    scale = max(abs(fluid), abs(sim), 1e-12)
    return abs(fluid - sim) / scale


def _run_fluid_and_sim(spec: ScenarioSpec, experiment_id: str) -> ExperimentResult:
    """Plain spec: fluid metrics next to a DES run of the same document."""
    from repro.sim.scenarios import run_scenario

    model = compile_fluid(spec)
    summary = run_scenario(compile_sim(spec))
    K = spec.params.num_files
    classes = list(range(1, K + 1))
    fluid_online = [model.class_metrics(i).online_time_per_file for i in classes]
    sim_online = [float(summary.online_time_per_file_by_class[i - 1]) for i in classes]
    fluid_dl = [model.class_metrics(i).download_time_per_file for i in classes]
    sim_dl = [float(summary.download_time_per_file_by_class[i - 1]) for i in classes]
    errs = [
        _rel_err(f, s) if np.isfinite(s) else float("nan")
        for f, s in zip(fluid_online, sim_online)
    ]
    headers = (
        "class",
        "fluid_online_per_file",
        "sim_online_per_file",
        "rel_err",
        "fluid_download_per_file",
        "sim_download_per_file",
    )
    rows = rows_from_columns(classes, fluid_online, sim_online, errs, fluid_dl, sim_dl)
    fluid_sys = model.system_metrics()
    agg = format_table(
        ("metric", "fluid", "simulated"),
        [
            (
                "avg online time / file",
                fluid_sys.avg_online_time_per_file,
                summary.avg_online_time_per_file,
            ),
            (
                "avg download time / file",
                fluid_sys.avg_download_time_per_file,
                summary.avg_download_time_per_file,
            ),
            ("users completed", float("nan"), float(summary.n_users_completed)),
        ],
        title="aggregates",
    )
    title = (
        f"Scenario '{experiment_id}': {spec.scheme.value} fluid model vs "
        f"discrete-event run (p={spec.workload.p}, K={K})"
    )
    table = format_table(headers, rows, title=title)
    figure = FigureSpec(
        name="online_time",
        series={
            "fluid": (classes, fluid_online),
            "simulated": (classes, sim_online),
        },
        title=title,
        xlabel="class i (files requested)",
        ylabel="online time per file",
    )
    rendered = f"{table}\n\n{agg}"
    if spec.description:
        rendered = f"{spec.description}\n\n{rendered}"
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        headers=headers,
        rows=rows,
        rendered=rendered,
        notes=spec.description,
        figures=(figure,),
    )


def _run_tiers(spec: ScenarioSpec, experiment_id: str) -> ExperimentResult:
    """Tiered spec: per-tier populations and download times from the
    heterogeneous model's stationary point."""
    steady = compile_fluid(spec).steady_state()
    if not steady.converged:
        raise RuntimeError(
            f"steady state failed to converge for spec {experiment_id!r}"
        )
    times = steady.download_times
    headers = (
        "tier",
        "upload",
        "download",
        "share",
        "downloaders",
        "seeds",
        "download_time",
    )
    rows = tuple(
        (
            t.name,
            t.upload,
            t.download,
            t.share,
            float(steady.downloaders[i]),
            float(steady.seeds[i]),
            float(times[i]),
        )
        for i, t in enumerate(spec.tiers)
    )
    title = (
        f"Scenario '{experiment_id}': differentiated-service tiers "
        f"(Sec.-2 heterogeneous model, eta={spec.params.eta})"
    )
    table = format_table(headers, rows, title=title)
    order = np.argsort([t.upload for t in spec.tiers])
    figure = FigureSpec(
        name="tier_times",
        series={
            "download time": (
                tuple(spec.tiers[i].upload for i in order),
                tuple(float(times[i]) for i in order),
            )
        },
        title=title,
        xlabel="tier upload bandwidth",
        ylabel="download time",
    )
    rendered = table if not spec.description else f"{spec.description}\n\n{table}"
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        headers=headers,
        rows=rows,
        rendered=rendered,
        notes=spec.description,
        figures=(figure,),
    )


def _run_chunks(spec: ScenarioSpec, experiment_id: str) -> ExperimentResult:
    """Chunk spec: flash-crowd swarm run, plus deadline misses if streaming."""
    from repro.chunks.measurement import measure_deadline_misses, measure_eta

    run = compile_chunks(spec)
    title = (
        f"Scenario '{experiment_id}': chunk-level swarm "
        f"({run.n_peers} peers, {run.config.n_chunks} chunks, "
        f"{run.config.piece_selection} piece selection)"
    )
    if run.streaming is not None:
        piece_time = 1.0 / (run.config.n_chunks * run.streaming.playback_rate)
        # Evaluate the miss-rate curve around the spec's startup delay: one
        # swarm run answers every delay, so the sweep is free.
        base = run.streaming.startup_delay
        span = run.config.n_chunks * piece_time  # one full playback duration
        delays = tuple(
            float(d) for d in np.linspace(base, base + span, 9)
        )
        m = measure_deadline_misses(
            n_peers=run.n_peers,
            n_seeds=run.n_seeds,
            config=run.config,
            playback_rate=run.streaming.playback_rate,
            startup_delays=delays,
            seed=run.seed,
            max_rounds=run.max_rounds,
        )
        headers = ("startup_delay", "miss_rate")
        rows = rows_from_columns(m.startup_delays, m.miss_rates)
        table = format_table(
            headers,
            rows,
            title=f"{title}: piece-deadline misses at playback rate "
            f"{run.streaming.playback_rate}",
        )
        extra = format_table(
            ("metric", "value"),
            [
                ("mean download time", m.mean_download_time),
                ("rounds", float(m.rounds)),
            ],
            title="run summary",
        )
        figure = FigureSpec(
            name="miss_rate",
            series={"miss rate": (m.startup_delays, m.miss_rates)},
            title=title,
            xlabel="startup delay",
            ylabel="deadline miss rate",
        )
        rendered = f"{table}\n\n{extra}"
        if spec.description:
            rendered = f"{spec.description}\n\n{rendered}"
        return ExperimentResult(
            experiment_id=experiment_id,
            title=title,
            headers=headers,
            rows=rows,
            rendered=rendered,
            notes=spec.description,
            figures=(figure,),
        )
    m = measure_eta(
        n_peers=run.n_peers,
        n_seeds=run.n_seeds,
        config=run.config,
        seed=run.seed,
        max_rounds=run.max_rounds,
    )
    headers = ("metric", "value")
    rows = (
        ("eta_effective", m.eta_effective),
        ("seed_utilization", m.seed_utilization),
        ("mean_download_time", m.mean_download_time),
        ("max_download_time", m.max_download_time),
        ("rounds", float(m.rounds)),
    )
    table = format_table(headers, rows, title=title)
    rendered = table if not spec.description else f"{spec.description}\n\n{table}"
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        headers=headers,
        rows=rows,
        rendered=rendered,
        notes=spec.description,
    )


def run_spec(spec: ScenarioSpec, *, experiment_id: str | None = None) -> ExperimentResult:
    """Run one spec end to end on the richest backend set it supports."""
    eid = experiment_id or spec_experiment_id(spec)
    if spec.chunks is not None:
        return _run_chunks(spec, eid)
    if spec.tiers:
        return _run_tiers(spec, eid)
    backends = supported_backends(spec)
    if backends != ("fluid", "sim"):  # pragma: no cover - schema prevents this
        raise RuntimeError(
            f"spec {eid!r} compiles to {backends}; expected a plain "
            "fluid+sim scenario"
        )
    return _run_fluid_and_sim(spec, eid)
