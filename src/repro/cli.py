"""Command-line interface: ``python -m repro`` / ``repro-bt``.

Subcommands
-----------
``list``
    Show the available experiment ids with descriptions.
``run <id> [--out DIR] [--jobs N] [--cache/--no-cache] [--force]``
    Execute one experiment end to end; prints its report and writes the
    numeric series to ``<DIR>/<id>.csv`` (default ``results/``).
``run all [--out DIR] [--jobs N] [--cache/--no-cache] [--force]``
    Execute every registered experiment -- across ``N`` worker processes
    when ``--jobs N`` is given -- and print a per-experiment telemetry
    summary (wall-clock, cache hit vs ran).  Unchanged experiments are
    replayed from the on-disk result cache (``<DIR>/.cache`` unless
    ``--cache-dir`` overrides it); ``--no-cache`` disables the cache and
    ``--force`` re-executes but refreshes the stored entries.  ``--profile``
    prints a solver/simulator/runner metrics table on stderr and ``--trace
    PATH`` writes a Chrome/Perfetto trace timeline of the fleet; neither
    changes the CSV/SVG outputs by a single byte.  ``--retries N``,
    ``--task-timeout SECONDS`` and ``--keep-going`` make long runs
    fault-tolerant: flaky experiments retry with exponential backoff,
    runaway drivers time out, and with ``--keep-going`` the run completes
    anyway, prints a failure table on stderr and exits 1 -- successful
    results are cached as they settle, so re-running resumes from the
    failures.
``run --scenario <spec.yaml> [--out DIR]``
    Run a declarative scenario document (see :mod:`repro.scenario` and
    docs/API.md for the schema) end to end without registering it: the
    spec is compiled to the richest backend set it supports, the report is
    printed and CSV/figures land in ``--out`` like any experiment.
``params``
    Print Table 1 with the paper's evaluation values.
``simulate <scenario.json|.yaml> [--json]``
    Run the flow-level simulator on a flat scenario description (see
    :func:`repro.scenario.sim_config_from_dict` for the schema) and print
    the summary.
``serve --scenario <spec.yaml> [--port N] [--duration S] [--journal PATH]``
    Run a scenario as a live swarm service (:mod:`repro.service`): events
    stream in over a line-JSON TCP protocol, virtual time tracks the wall
    clock (``--time-scale``), and every applied operation is journaled so
    the run can be replayed exactly.  Flags override the spec's
    ``service:`` section.
``replay <journal> [--json]``
    Re-execute a service journal deterministically as a batch run and
    verify the summary digest sealed into it -- the replayed summary is
    bit-identical to what the live run reported.

The experiment table in ``list`` and in ``run --help`` is generated from
the registry (:func:`repro.experiments.format_experiment_table`), so the
help can never drift from the experiments that exist.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro.core.parameters import PAPER_PARAMETERS, format_table1
from repro.experiments import format_experiment_table, list_experiments

__all__ = ["main", "build_parser"]


@contextmanager
def _observing(args):
    """Run the enclosed command under ``--profile``/``--trace`` observability.

    Installs a metrics registry and/or tracer for the block, then prints the
    metrics table on stderr and writes the trace JSON on clean exit.  With
    neither flag this is a no-op, so un-profiled runs stay on the zero-cost
    null instruments.
    """
    profile = getattr(args, "profile", False)
    trace = getattr(args, "trace", None)
    if not profile and trace is None:
        yield
        return
    from repro.analysis import format_metrics_table
    from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer

    registry = MetricsRegistry() if profile else None
    tracer = Tracer() if trace is not None else None
    with use_registry(registry), use_tracer(tracer):
        yield
    if registry is not None:
        print(format_metrics_table(registry, title="profile"), file=sys.stderr)
    if tracer is not None:
        path = tracer.write(trace)
        print(f"[trace] {len(tracer.events)} events -> {path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bt",
        description=(
            "Reproduction of 'Analyzing Multiple File Downloading in "
            "BitTorrent' (Tian, Wu & Ng, ICPP 2006)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_runner_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for parallel execution (default: 1, serial)",
        )
        p.add_argument(
            "--cache",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="replay unchanged experiments from the result cache "
            "(default: enabled; --no-cache disables)",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="result cache directory (default: <out>/.cache)",
        )
        p.add_argument(
            "--force",
            action="store_true",
            help="re-execute even on a cache hit (fresh results still stored)",
        )
        p.add_argument(
            "--retries",
            type=int,
            default=0,
            metavar="N",
            help="retry a failed experiment up to N extra times with "
            "exponential backoff + jitter (default: 0)",
        )
        p.add_argument(
            "--task-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-attempt wall-clock limit; an experiment exceeding it "
            "fails with status 'timeout' (default: no limit)",
        )
        p.add_argument(
            "--keep-going",
            action="store_true",
            help="run every experiment even when some fail; failures are "
            "listed in a table on stderr and the exit code is 1 "
            "(successes land in the cache, so a re-run resumes from "
            "the failures)",
        )
        p.add_argument(
            "--profile",
            action="store_true",
            help="collect solver/simulator/runner metrics and print the "
            "table on stderr (outputs stay byte-identical)",
        )
        p.add_argument(
            "--trace",
            default=None,
            metavar="PATH",
            help="write a Chrome/Perfetto trace JSON of the run to PATH "
            "(load it at chrome://tracing or ui.perfetto.dev)",
        )

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser(
        "run",
        help="run one experiment (or 'all'), or a scenario document",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=f"available experiments:\n{format_experiment_table()}",
    )
    run_p.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment id from 'list', or 'all' (omit with --scenario)",
    )
    run_p.add_argument(
        "--scenario",
        default=None,
        metavar="PATH",
        help="run a declarative scenario document (YAML/JSON, see "
        "docs/API.md) end to end instead of a registered experiment",
    )
    run_p.add_argument(
        "--out",
        default="results",
        help="directory for CSV output (default: results/)",
    )
    add_runner_options(run_p)

    sub.add_parser("params", help="print Table 1 with the paper's values")

    report_p = sub.add_parser(
        "report", help="run every experiment and write results/REPORT.md"
    )
    report_p.add_argument(
        "--out", default="results", help="output directory (default: results/)"
    )
    report_p.add_argument(
        "--only",
        nargs="*",
        default=None,
        metavar="ID",
        help="restrict to these experiment ids",
    )
    add_runner_options(report_p)

    sim_p = sub.add_parser(
        "simulate", help="run the flow-level simulator on a JSON scenario"
    )
    sim_p.add_argument("scenario", help="path to a scenario JSON file")
    sim_p.add_argument(
        "--json", action="store_true", help="emit the summary as JSON on stdout"
    )

    serve_p = sub.add_parser(
        "serve", help="run a scenario as a live swarm service (record/replay)"
    )
    serve_p.add_argument(
        "--scenario",
        required=True,
        metavar="PATH",
        help="scenario document (YAML/JSON); its service: section supplies "
        "defaults for every flag below",
    )
    serve_p.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="N",
        help="listen for line-JSON event/query clients on this TCP port",
    )
    serve_p.add_argument(
        "--host", default=None, metavar="ADDR", help="bind address (default: 127.0.0.1)"
    )
    serve_p.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock seconds to serve before a clean shutdown "
        "(default: until Ctrl-C)",
    )
    serve_p.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="append every applied operation to this NDJSON journal "
        "(replayable with 'replay')",
    )
    serve_p.add_argument(
        "--time-scale",
        type=float,
        default=None,
        metavar="X",
        help="virtual seconds per wall-clock second (default: 1)",
    )
    serve_p.add_argument(
        "--json", action="store_true", help="emit the final summary as JSON"
    )

    replay_p = sub.add_parser(
        "replay", help="re-execute a service journal deterministically"
    )
    replay_p.add_argument("journal", help="journal path written by 'serve'")
    replay_p.add_argument(
        "--json", action="store_true", help="emit the summary as JSON on stdout"
    )
    return parser


def _resolve_cache_dir(args) -> Path | None:
    """Cache directory from CLI flags: ``None`` when caching is off."""
    if not args.cache:
        return None
    if args.cache_dir is not None:
        return Path(args.cache_dir)
    return Path(args.out) / ".cache"


def _print_outcome(outcome, out_dir: Path) -> None:
    if not outcome.ok:
        print(
            f"[{outcome.experiment_id}] {outcome.status} after "
            f"{outcome.attempts} attempt(s): {outcome.error.summary()}"
        )
        return
    result = outcome.result
    print(result.rendered)
    csv_path = result.write_csv(out_dir)
    figure_paths = result.write_figures(out_dir)
    status = "cache hit" if outcome.cached else f"finished in {outcome.elapsed:.1f}s"
    print(f"\n[{outcome.experiment_id}] {status}; series -> {csv_path}")
    for path in figure_paths:
        print(f"[{outcome.experiment_id}] figure -> {path}")


def _report_failures(summary) -> int:
    """Print the failure table on stderr; exit code for the command."""
    if summary.ok:
        return 0
    print(f"\n{summary.format_failures()}", file=sys.stderr)
    print(
        f"{len(summary.failures)} of {len(summary.outcomes)} experiment(s) "
        "failed; successful results are cached, so re-running resumes "
        "from the failures",
        file=sys.stderr,
    )
    return 1


def _print_summary_table(summary, title: str) -> None:
    from repro.analysis.tables import format_table

    rows = [
        ["users completed", float(summary.n_users_completed)],
        ["avg online time / file", summary.avg_online_time_per_file],
        ["avg download time / file", summary.avg_download_time_per_file],
    ]
    print(format_table(["metric", "value"], rows, title=title))


def _cmd_serve(args) -> int:
    import asyncio
    import json as _json

    from repro.scenario import SpecError, load_spec, summary_to_dict
    from repro.service import SwarmService

    try:
        spec = load_spec(args.scenario)
    except (OSError, ValueError) as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return 2
    svc = spec.service
    host = args.host or (svc.host if svc is not None else "127.0.0.1")
    port = args.port if args.port is not None else (svc.port if svc is not None else None)
    duration = (
        args.duration
        if args.duration is not None
        else (svc.duration if svc is not None else None)
    )

    async def _serve():
        try:
            service = SwarmService(
                spec, journal_path=args.journal, time_scale=args.time_scale
            )
        except SpecError as exc:
            print(f"bad scenario: {exc}", file=sys.stderr)
            return None, 2
        await service.start()
        server = None
        if port is not None:
            server = await service.serve_tcp(host, port)
            bound = server.sockets[0].getsockname()
            print(f"[serve] listening on {bound[0]}:{bound[1]}", file=sys.stderr)
        try:
            if duration is not None:
                await asyncio.sleep(duration)
            else:
                await asyncio.Event().wait()  # until Ctrl-C
        except asyncio.CancelledError:
            pass
        finally:
            if server is not None:
                server.close()
                await server.wait_closed()
            await service.stop()
        return service, 0

    try:
        service, code = asyncio.run(_serve())
    except KeyboardInterrupt:
        print(
            "[serve] interrupted; an unsealed journal still replays "
            "(without digest verification)",
            file=sys.stderr,
        )
        return 130
    if service is None:
        return code
    summary = service.core.summary
    if args.json:
        print(
            _json.dumps(
                {
                    "summary": summary_to_dict(summary),
                    "digest": service.digest,
                    "ingest": service.counters,
                    "final_t": service.core.now,
                },
                indent=2,
            )
        )
    else:
        _print_summary_table(
            summary,
            f"live {spec.scheme.value} service (t={service.core.now:.1f} virtual)",
        )
        print(f"\n[serve] ingest: {service.counters}; digest {service.digest[:16]}...")
        if args.journal:
            print(f"[serve] journal -> {args.journal} (replay with 'repro-bt replay')")
    return code


def _cmd_replay(args) -> int:
    import json as _json

    from repro.scenario import summary_to_dict
    from repro.service import JournalError, ReplayMismatchError, replay_journal

    started = time.perf_counter()
    try:
        result = replay_journal(args.journal)
    except JournalError as exc:
        print(f"bad journal: {exc}", file=sys.stderr)
        return 2
    except ReplayMismatchError as exc:
        print(f"replay mismatch: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    if args.json:
        print(
            _json.dumps(
                {
                    "summary": summary_to_dict(result.summary),
                    "digest": result.digest,
                    "verified": result.verified,
                    "events_applied": result.events_applied,
                    "final_t": result.final_t,
                },
                indent=2,
            )
        )
        return 0
    _print_summary_table(
        result.summary,
        f"replayed journal ({result.events_applied} events, "
        f"t={result.final_t:.1f}, {elapsed:.1f}s)",
    )
    if result.recorded_digest is None:
        print(
            "\n[replay] journal was never sealed (service did not shut down "
            "cleanly); summary is deterministic but unverified"
        )
    else:
        print(f"\n[replay] digest {result.digest[:16]}... verified against journal")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print(format_experiment_table())
        return 0
    if args.command == "params":
        print(format_table1(PAPER_PARAMETERS))
        return 0
    if args.command == "report":
        from repro.experiments.report import generate_report
        from repro.runner import TaskFailedError

        only = tuple(args.only) if args.only else None
        cache_dir = _resolve_cache_dir(args)
        try:
            with _observing(args):
                path, summary = generate_report(
                    args.out,
                    experiment_ids=only,
                    jobs=args.jobs,
                    cache_dir=cache_dir,
                    use_cache=cache_dir is not None,
                    force=args.force,
                    retries=args.retries,
                    task_timeout=args.task_timeout,
                    keep_going=args.keep_going,
                )
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        except TaskFailedError as exc:
            print(exc, file=sys.stderr)
            return 1
        print(f"report written to {path}")
        return _report_failures(summary)
    if args.command == "simulate":
        import json as _json

        from repro.analysis.tables import format_table
        from repro.scenario import load_sim_config, summary_to_dict
        from repro.sim.scenarios import run_scenario

        try:
            config = load_sim_config(args.scenario)
        except (OSError, ValueError, _json.JSONDecodeError) as exc:
            print(f"bad scenario: {exc}", file=sys.stderr)
            return 2
        started = time.perf_counter()
        summary = run_scenario(config)
        elapsed = time.perf_counter() - started
        if args.json:
            print(_json.dumps(summary_to_dict(summary), indent=2))
        else:
            rows = [
                ["users completed", float(summary.n_users_completed)],
                ["avg online time / file", summary.avg_online_time_per_file],
                ["avg download time / file", summary.avg_download_time_per_file],
            ]
            print(
                format_table(
                    ["metric", "value"],
                    rows,
                    title=f"{config.scheme.value} scenario ({elapsed:.1f}s)",
                )
            )
        return 0
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "run" and args.scenario is not None:
        if args.experiment is not None:
            print(
                "pass either an experiment id or --scenario PATH, not both",
                file=sys.stderr,
            )
            return 2
        from repro.scenario import SpecError, load_spec, run_spec, spec_experiment_id

        try:
            spec = load_spec(args.scenario)
        except (OSError, ValueError) as exc:
            print(f"bad scenario: {exc}", file=sys.stderr)
            return 2
        eid = spec_experiment_id(spec, fallback=Path(args.scenario).stem)
        started = time.perf_counter()
        try:
            result = run_spec(spec, experiment_id=eid)
        except SpecError as exc:
            print(f"bad scenario: {exc}", file=sys.stderr)
            return 2
        out_dir = Path(args.out)
        print(result.rendered)
        csv_path = result.write_csv(out_dir)
        elapsed = time.perf_counter() - started
        print(f"\n[{eid}] finished in {elapsed:.1f}s; series -> {csv_path}")
        for path in result.write_figures(out_dir):
            print(f"[{eid}] figure -> {path}")
        return 0
    if args.command == "run":
        from repro.runner import TaskFailedError, run_experiments

        if args.experiment is None:
            print(
                "pass an experiment id (see 'repro-bt list'), 'all', "
                "or --scenario PATH",
                file=sys.stderr,
            )
            return 2
        out_dir = Path(args.out)
        running_all = args.experiment == "all"
        ids = (
            [eid for eid, _ in list_experiments()]
            if running_all
            else [args.experiment]
        )
        progress = (
            (lambda line: print(line, flush=True)) if running_all else None
        )
        try:
            with _observing(args):
                summary = run_experiments(
                    ids,
                    jobs=args.jobs,
                    cache_dir=_resolve_cache_dir(args),
                    force=args.force,
                    progress=progress,
                    retries=args.retries,
                    task_timeout=args.task_timeout,
                    keep_going=args.keep_going,
                )
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        except TaskFailedError as exc:
            print(exc, file=sys.stderr)
            return 1
        for outcome in summary.outcomes:
            if running_all:
                print(f"\n{'=' * 72}\n# {outcome.experiment_id}\n{'=' * 72}")
            _print_outcome(outcome, out_dir)
        if running_all:
            print(f"\n{summary.format_summary()}")
        return _report_failures(summary)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
