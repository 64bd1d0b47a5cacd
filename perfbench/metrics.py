"""The benchmark's metric tables, shared by run.py, the worker and the tests.

Kept free of ``repro`` imports so ``run.py`` can read it before it knows
whether the program is even present.
"""

from __future__ import annotations

import math

__all__ = ["END_TO_END", "PER_LAYER", "THROUGHPUT_NAMES", "WORKLOADS", "percentile"]

WORKLOADS = ("fluid_sweep", "des_swarm", "chunk_flashcrowd", "live_service")

#: gated end-to-end metrics: (name, unit, better).  Every workload reports
#: every one of them, so the two workload-specific ones are generic slots
#: (see THROUGHPUT_NAMES and README.md for what they mean per workload).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
)

#: workload -> (name of its throughput_per_s, name of its latency_p50_ms)
THROUGHPUT_NAMES = {
    "fluid_sweep": ("points_per_s", "path_p50_ms"),
    "des_swarm": ("sim_s_per_s", "slice_p50_ms"),
    "chunk_flashcrowd": ("rounds_per_s", "round_p50_ms"),
    "live_service": ("events_per_s", "ack_p50_ms"),
}

#: per-layer metrics of the traced run: (name, unit, better).  Layers a
#: workload does not run read 0 -- the "no change" prediction for it.
PER_LAYER = (
    # runner
    ("runner.self_s", "s", "lower"),
    # core / ode
    ("core.path_s", "s", "lower"),
    ("core.model_s", "s", "lower"),
    ("ode.rhs_evals", "count", "lower"),
    ("ode.steady_state.iterations", "count", "lower"),
    ("ode.newton.jacobian_builds", "count", "lower"),
    ("ode.warm_start_ratio", "ratio", "higher"),
    # sim
    ("sim.build_s", "s", "lower"),
    ("sim.run_until_s", "s", "lower"),
    ("sim.flush_s", "s", "lower"),
    ("sim.kernel_s", "s", "lower"),
    ("sim.summarize_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.batch_size_mean", "events", "higher"),
    ("sim.kernel.mesh.rows", "count", "lower"),
    ("sim.kernel.pool.rows", "count", "lower"),
    ("sim.kernel.neighbor.rows", "count", "lower"),
    ("sim.kernel.mesh.incremental_ratio", "ratio", "higher"),
    ("sim.kernel.pool.incremental_ratio", "ratio", "higher"),
    ("sim.kernel.neighbor.incremental_ratio", "ratio", "higher"),
    ("sim.queue.cancelled", "count", "lower"),
    ("sim.queue.compactions", "count", "lower"),
    ("sim.window.refire_ratio", "ratio", "lower"),
    # chunks
    ("chunks.build_s", "s", "lower"),
    ("chunks.round_s", "s", "lower"),
    ("chunks.round_p50_ms", "ms", "lower"),
    ("chunks.round_p99_ms", "ms", "lower"),
    ("chunks.kernel.interest_s", "s", "lower"),
    ("chunks.kernel.choke_s", "s", "lower"),
    ("chunks.kernel.transfer_s", "s", "lower"),
    ("chunks.kernel.picks", "count", "lower"),
    ("chunks.kernel.links", "count", "lower"),
    ("chunks.wasted_bytes", "chunks", "lower"),
    ("chunks.eta", "ratio", "higher"),
    # scenario
    ("scenario.compile_s", "s", "lower"),
    # service
    ("service.ingest_s", "s", "lower"),
    ("service.advance_s", "s", "lower"),
    ("service.apply_s", "s", "lower"),
    ("service.journal_s", "s", "lower"),
    ("service.query_s", "s", "lower"),
    ("service.replay_s", "s", "lower"),
    ("service.loop_idle_s", "s", "higher"),
    ("service.queue_depth_max", "events", "lower"),
    ("service.queue_depth_mean", "events", "lower"),
    ("service.ingest.events", "count", "higher"),
    ("service.ingest.dropped", "count", "lower"),
    ("service.ingest.stale", "count", "lower"),
    ("service.ingest.errors", "count", "lower"),
    # every workload
    ("wall_s", "s", "lower"),
    ("other_s", "s", "lower"),
    ("other_pct", "%", "lower"),
    ("obs.overhead_pct", "%", "lower"),
)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of a non-empty sequence."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)])
