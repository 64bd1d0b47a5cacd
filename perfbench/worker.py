"""Run one workload in this (fresh) process and print its result.

    python3 -m perfbench.worker --workload NAME --seed N --seconds S \\
        --mode {setup,run,trace} [--size {full,tiny}]

Prints ``READY <monotonic time> [...]`` the moment set-up ends, then (unless
``--mode setup``) one ``RESULT <json>`` line.  ``--mode trace`` installs a
``repro.obs.MetricsRegistry``, wraps the layers' entry points with span
recorders, writes the spans to ``.perfbench/traces/`` as a Chrome trace and
adds the per-layer figures to the result.  ``run.py`` is the only caller.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from contextlib import nullcontext
from statistics import median

from perfbench import workloads
from perfbench.metrics import PER_LAYER, WORKLOADS, percentile
from perfbench.tracing import Recorder

TRACE_DIR = workloads.ROOT / ".perfbench" / "traces"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, registry, out: dict) -> dict[str, float]:
    """The per-layer table of one traced run (0 for layers it never ran)."""
    counters = registry.counters
    hist = registry.histograms
    # spans before the measured window (set-up builds) count toward their
    # layer too, so the window is widened back to the first span
    start = min([out["t0"]] + [span[2] for span in rec.spans])
    self_s = rec.self_times(start, out["t1"])
    layers = {name: 0.0 for name, _, _ in PER_LAYER}

    def take(metric: str, layer: str) -> None:
        layers[metric] = self_s.pop(layer, 0.0)

    take("core.path_s", "core.path")
    take("core.model_s", "core.model")
    for part in ("build", "run_until", "flush", "kernel", "summarize"):
        take(f"sim.{part}_s", f"sim.{part}")
    take("chunks.build_s", "chunks.build")
    take("chunks.round_s", "chunks.round")
    take("scenario.compile_s", "scenario.compile")
    for part in ("ingest", "advance", "apply", "journal", "query", "replay", "loop_idle"):
        take(f"service.{part}_s", f"service.{part}")
    runner_spans = self_s.pop("runner", 0.0)
    layers["runner.self_s"] = out.get("runner_self_s", 0.0)
    wall = out["t1"] - start
    # figure4a's own work outside the solver (tables, plots) is no layer's
    other = self_s.pop("other", 0.0) + runner_spans - layers["runner.self_s"]
    other += sum(self_s.values())
    layers["wall_s"] = wall
    layers["other_s"] = other
    layers["other_pct"] = 100.0 * other / wall if wall > 0 else 0.0

    for name in ("ode.rhs_evals", "ode.steady_state.iterations", "ode.newton.jacobian_builds"):
        layers[name] = counters.get(name, 0.0)
    layers["ode.warm_start_ratio"] = _ratio(
        counters.get("ode.solve_path.warm_hits", 0.0), counters.get("ode.solve_path.points", 0.0)
    )
    for name in ("sim.events", "sim.queue.cancelled", "sim.queue.compactions"):
        layers[name] = counters.get(name, 0.0)
    batch = hist.get("sim.events.batch_size")
    layers["sim.batch_size_mean"] = batch.mean if batch is not None and batch.count else 0.0
    for kernel in ("mesh", "pool", "neighbor"):
        inc = counters.get(f"sim.kernel.{kernel}.incremental", 0.0)
        full = counters.get(f"sim.kernel.{kernel}.full", 0.0)
        layers[f"sim.kernel.{kernel}.rows"] = counters.get(f"sim.kernel.{kernel}.rows", 0.0)
        layers[f"sim.kernel.{kernel}.incremental_ratio"] = _ratio(inc, inc + full)
    layers["sim.window.refire_ratio"] = _ratio(
        counters.get("sim.window.refire", 0.0), counters.get("sim.window.complete", 0.0)
    )

    rounds = [span[3] - span[2] for span in rec.spans if span[1] == "chunks.round"]
    if rounds:
        layers["chunks.round_p50_ms"] = 1e3 * median(rounds)
        layers["chunks.round_p99_ms"] = 1e3 * percentile(rounds, 99)
    for kernel in ("interest", "choke", "transfer"):
        h = hist.get(f"chunks.kernel.{kernel}")
        layers[f"chunks.kernel.{kernel}_s"] = h.total if h is not None else 0.0
    for name in ("chunks.kernel.picks", "chunks.kernel.links", "chunks.wasted_bytes"):
        layers[name] = counters.get(name, 0.0)
    layers["chunks.eta"] = _ratio(
        counters.get("chunks.downloader_useful", 0.0),
        counters.get("chunks.downloader_capacity", 0.0),
    )
    for name in ("events", "dropped", "stale", "errors"):
        layers[f"service.ingest.{name}"] = counters.get(f"service.ingest.{name}", 0.0)
    return {k: float(v) for k, v in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args(argv)

    rec = Recorder() if args.mode == "trace" else None
    ctx = workloads.Context(args.workload, args.seed, args.seconds, args.size, args.mode, rec)
    if rec is not None:
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        scope = use_registry(registry)
        workloads.instrument(rec)
    else:
        scope = nullcontext()
    try:
        with scope:
            out = getattr(workloads, args.workload)(ctx)
    except workloads.SetupDone:
        return 0
    if out is None:  # set-up-only live service
        return 0

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        rec.restore()  # the checks run unwrapped, outside the registry
    check = out.pop("check", None)
    if check is not None:
        out["attempted"], out["failures"] = check()
    if rec is not None:
        out["layers"] = layer_metrics(rec, registry, out)
        rec.write_chrome_trace(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")
        out["spans"] = len(rec.spans)
    print("RESULT", json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
