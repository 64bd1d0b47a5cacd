"""The repository benchmark: four workloads, timed end to end and split by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: fluid_sweep, des_swarm, chunk_flashcrowd, live_service (see
README.md in this directory for why each exists and which layer metric
should move which end-to-end metric).

``--trace 0`` measures the end-to-end metrics from outside the program:
set-up time is taken over several fresh worker processes (median), and the
run itself happens in one more fresh process.  ``--trace 1`` runs the
workload once untraced and once traced (a ``repro.obs`` registry plus span
recorders around each layer's entry points) and reports per-layer self
times, ``other`` and the tracing overhead; the spans land in
``.perfbench/traces/`` as a Chrome trace.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits non-zero without a result if the program's sources are missing or a
worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import loadgen  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    THROUGHPUT_NAMES,
    WORKLOADS,
    percentile,
)

#: fresh processes whose set-up time is measured per run (median reported)
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 160.0


class WorkerError(RuntimeError):
    """A worker process failed, hung or broke the READY/RESULT protocol."""


class Worker:
    """One ``perfbench.worker`` process; a context manager that always reaps it."""

    def __init__(self, args, mode: str, *, stdin: bool = False):
        env = dict(os.environ)
        paths = [str(ROOT / "src"), str(ROOT)]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        cmd = [
            sys.executable, "-m", "perfbench.worker",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--mode", mode, "--size", args.size,
        ]  # fmt: skip
        self.mode = mode
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._watchdog = threading.Timer(WORKER_TIMEOUT_S, self.proc.kill)
        self._watchdog.start()
        self.setup_s: float | None = None

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self._watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()

    def ready(self) -> list[str]:
        """Wait for set-up to end; returns the extra READY fields."""
        line = self.proc.stdout.readline()
        parts = line.split()
        if not parts or parts[0] != "READY":
            raise WorkerError(f"{self.mode} worker did not get ready (printed {line!r})")
        self.setup_s = float(parts[1]) - self.spawned
        return parts[2:]

    def send(self, text: str) -> None:
        self.proc.stdin.write(text)
        self.proc.stdin.flush()

    def result(self) -> dict | None:
        """Read to the end of output and reap; the RESULT payload, if any."""
        result = None
        for line in self.proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = self.proc.wait()
        if code != 0:
            raise WorkerError(f"{self.mode} worker exited with code {code}")
        if result is None and self.mode != "setup":
            raise WorkerError(f"{self.mode} worker printed no result")
        return result


# ----- one measured run -----------------------------------------------------------------


def _run_batch(args, mode: str) -> dict:
    with Worker(args, mode) as worker:
        worker.ready()
        out = worker.result()
    out["setup_s"] = worker.setup_s
    out["wall_s"] = out["t1"] - out["t0"]
    out["failed"] = len(out["failures"])
    return out


def live_plan(args) -> dict:
    """The live_service requests of this seed (``loadgen.plan_requests``).

    Made in this process before any worker starts, so the planning run
    overlaps nothing that is timed; its garbage is collected and the
    survivors frozen so the client's threads never wait on a full
    collection of them.
    """
    import gc

    from perfbench.workloads import LIVE_SPEC, SIZES

    sys.path.insert(0, str(ROOT / "src"))
    size = SIZES[args.size]["live_service"]
    flood = [size["flood"] // size["bursts"]] * size["bursts"]
    plan = loadgen.plan_requests(
        LIVE_SPEC, args.seed, rate=size["paced_rate"], phases=[size["paced"], *flood]
    )
    gc.collect()
    gc.freeze()
    return plan


def _run_live(args, mode: str, plan: dict) -> dict:
    from perfbench.checks import check_live_run
    from perfbench.workloads import SIZES

    size = SIZES[args.size]["live_service"]
    with Worker(args, mode, stdin=True) as worker:
        port, t_end = worker.ready()
        client = loadgen.drive(int(port), phases=plan["phases"], rate=size["paced_rate"])
        worker.send("stop\n")
        out = worker.result()
    out.update(client)
    out["setup_s"] = worker.setup_s
    out["plan_digest"] = plan["digest"]
    out["effects"] = plan["effects"]
    made, failures = check_live_run(
        out, t_end=float(t_end), lateness_limit_s=loadgen.LATENESS_LIMIT_S
    )
    out["attempted"] = client["requests"] + made
    out["failures"] = failures
    out["failed"] = client["not_ok"] + client["rejected"] + len(failures)
    # tracing overhead is judged on the unpaced parts, whose length the
    # service sets (the paced phase lasts as long as its schedule)
    out["wall_s"] = client["flood_s"] + out["replay_s"]
    return out


def measure(args, mode: str, plan: dict | None) -> dict:
    if args.workload == "live_service":
        return _run_live(args, mode, plan)
    return _run_batch(args, mode)


def setup_times(args) -> list[float]:
    """Set-up seconds of SETUP_SAMPLES - 1 fresh set-up-only processes."""
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        with Worker(args, "setup") as worker:
            worker.ready()
            worker.result()
        times.append(worker.setup_s)
    return times


# ----- metric assembly ----------------------------------------------------------------------


def _tail(samples: list[float]) -> tuple[str, float]:
    """Highest of p99/p90/p75/p50 with at least ten samples beyond it."""
    q = next((q for q in (99, 90, 75) if len(samples) * (100 - q) / 100 >= 10), 50)
    return f"p{q}", percentile(samples, q)


def end_to_end(args, run: dict, setups: list[float]) -> tuple[dict, dict]:
    """(gated metrics, diagnostics) of one untraced run."""
    rate_name, latency_name = THROUGHPUT_NAMES[args.workload]
    if args.workload == "live_service":
        throughput, latency = run["events_per_s"], run["ack_p50_ms"]
        diagnostics = {
            "ack_p99_ms": (run["ack_p99_ms"], "ms"),
            "ack_samples": (run["ack_samples"], "count"),
            "apply_lag_p50_ms": (run["apply_lag_p50_ms"], "ms"),
            "replay_events_per_s": (run["replay_events"] / run["replay_s"], "1/s"),
            "flood_burst_rates": (" ".join(f"{r:.0f}" for r in run["burst_rates"]), "1/s"),
            "round_trip_p50_ms": (run["round_trip_p50_ms"], "ms"),
            "generator_lateness_p50_ms": (run["lateness_p50_ms"], "ms"),
            "generator_lateness_p99_ms": (1e3 * run["lateness_p99_s"], "ms"),
            "generator_lateness_max_ms": (run["lateness_max_ms"], "ms"),
            "queue_depth_max": (run["queue_depth_max"], "events"),
            "events_stale": (run["counters"]["stale"], "count"),
            "journal_digest": (run["live_digest"][:16], "sha256"),
        }
        for kind, tally in run["effects"].items():
            diagnostics[f"{kind}s_acted"] = (f"{tally['acted']}/{tally['sent']}", "events")
        substituted = run["effects"]["arrival"]["substituted"]
        diagnostics["arrivals_substituted"] = (substituted, "events")
    else:
        throughput, latency = run["rate"], 1e3 * run["latency_s"]
        latencies = run["latencies_s"]
        q, value = _tail(latencies)
        diagnostics = {
            latency_name.replace("p50", q): (1e3 * value, "ms"),
            "samples": (len(latencies), "count"),
            **{k: tuple(v) for k, v in run["diagnostics"].items()},
        }
    diagnostics[rate_name] = (throughput, "1/s")
    diagnostics[latency_name] = (latency, "ms")
    diagnostics["error_rate"] = (run["failed"] / max(1, run["attempted"]), "fraction")
    diagnostics["setup_samples_s"] = (" ".join(f"{s:.3f}" for s in setups), "s")
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "throughput_per_s": throughput,
        "latency_p50_ms": latency,
    }
    return metrics, diagnostics


def per_layer(args, reference: dict, traced: dict) -> tuple[dict, dict]:
    """(per-layer metrics, diagnostics) of a traced run and its untraced twin."""
    layers = dict(traced["layers"])
    layers["obs.overhead_pct"] = 100.0 * (traced["wall_s"] / reference["wall_s"] - 1.0)
    if args.workload == "live_service":
        layers["service.queue_depth_max"] = float(traced["queue_depth_max"])
        layers["service.queue_depth_mean"] = float(traced["queue_depth_mean"])
    diagnostics = {
        "untraced_wall_s": (reference["wall_s"], "s"),
        "traced_wall_s": (traced["wall_s"], "s"),
        "spans": (traced["spans"], "count"),
        "chrome_trace": (f".perfbench/traces/{args.workload}-seed{args.seed}.json", "path"),
    }
    return layers, diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: seconds-long sizes for the benchmark's own tests",
    )  # fmt: skip
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    try:
        plan = live_plan(args) if args.workload == "live_service" else None
        if args.trace:
            reference = measure(args, "run", plan)
            traced = measure(args, "trace", plan)
            runs = (reference, traced)
            values, diagnostics = per_layer(args, reference, traced)
            table = PER_LAYER
        else:
            setups = setup_times(args)
            run = measure(args, "run", plan)
            runs = (run,)
            values, diagnostics = end_to_end(args, run, setups + [run["setup_s"]])
            table = END_TO_END
    except (WorkerError, OSError) as exc:  # ConnectionError is an OSError
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1

    failures = [f for r in runs for f in r["failures"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in table}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit, better in table:
        print(f"  {name:<40} {values[name]:>14.6g} {unit:<8} ({better} is better)")
    for name, (value, unit) in sorted(diagnostics.items()):
        shown = f"{value:>14.6g}" if isinstance(value, (int, float)) else f"{value:>14}"
        print(f"  [diag] {name:<33} {shown} {unit}")
    for failure in failures:
        print(f"  FAILED CHECK: {failure}")
    print(f"  operations attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
