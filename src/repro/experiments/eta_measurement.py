"""Eta-measurement experiment (extension): what should ``eta`` be?

The paper sets ``eta = 0.5`` (from the Izal et al. measurement) while
Qiu--Srikant argue ``eta -> 1`` as the number of chunks grows.  Our
chunk-level swarm simulator (:mod:`repro.chunks`) measures the effective
``eta`` -- the fraction of downloader upload capacity delivering useful
bytes under real piece maps, rarest-first and tit-for-tat -- across the
chunk-count and swarm-size axes.

Expected shape: ``eta_eff`` increases with the chunk count (more chunks =
more opportunities for downloaders to hold something their neighbours
need), interpolating between the two papers' positions: well below 1 for
coarse-grained files and small flash crowds, approaching (but not
reaching) 1 for fine-grained files.  Seed utilization stays near 1
throughout -- seeds always hold what others need.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.tables import format_table
from repro.chunks import ChunkSwarmConfig, measure_eta, measure_eta_open
from repro.chunks.fluid_bridge import synchronized_crowd_makespan
from repro.experiments.base import ExperimentResult, FigureSpec

__all__ = ["run"]

#: root entropy for this experiment's seed derivation
_SEED_ROOT = 0xE7A_2006

#: axis tags keeping the per-sweep seed streams disjoint
_SEED_AXES = {"chunks": 0, "peers": 1, "slots": 2, "open": 3, "large_swarm": 4}


def _derive_seed(axis: str, value: int, rep: int) -> int:
    """Collision-free swarm seed keyed on (axis, value, rep).

    The old ``1000*rep + n_peers + n_chunks`` scheme handed identical RNG
    streams to distinct grid points with equal sums (peers=40/chunks=20 vs
    peers=20/chunks=40), silently correlating sweep cells.  SeedSequence
    hashes the full key, so every (axis, value, rep) cell draws an
    independent stream.
    """
    seq = np.random.SeedSequence((_SEED_ROOT, _SEED_AXES[axis], value, rep))
    return int(seq.generate_state(1)[0])


def run(
    *,
    chunk_counts: tuple[int, ...] = (10, 25, 50, 100, 200, 400),
    peer_counts: tuple[int, ...] = (10, 30, 60),
    reference_peers: int = 30,
    reference_chunks: int = 100,
    n_repeats: int = 2,
    upload_rate: float = 0.02,
    large_swarm_peers: tuple[int, ...] | None = (1000, 10000),
    large_swarm_chunks: int = 400,
    large_swarm_degree: int | None = 64,
) -> ExperimentResult:
    """Sweep chunk count and swarm size; measure the effective eta.

    ``large_swarm_peers`` adds single-repeat flash-crowd points at
    realistic scale (>= 1000 peers, ``large_swarm_chunks`` pieces -- piece
    counts grow with file size in real swarms).  Points up to 1000 peers
    run on the dense vectorised engine (full mixing, unchanged from
    earlier revisions); larger points run on the sparse neighborhood
    engine with ``large_swarm_degree`` tracker-sampled neighbours per
    peer, the topology real swarms actually have.  Pass ``None`` to skip
    the axis.
    """
    if n_repeats < 1:
        raise ValueError(f"n_repeats must be >= 1, got {n_repeats}")
    large_points = tuple(large_swarm_peers or ())
    for pt in large_points:
        if pt < 1:
            raise ValueError(f"large_swarm_peers must be >= 1, got {pt}")
    headers = (
        "sweep",
        "value",
        "eta_effective",
        "seed_utilization",
        "mean_download_time",
        "fluid_at_measured_eta",
        "fluid_at_eta_0.5",
    )
    rows: list[tuple] = []

    def _measure(
        axis: str,
        value: int,
        n_peers: int,
        n_chunks: int,
        *,
        reps: int,
        degree: int | None = None,
    ) -> tuple[float, ...]:
        etas, utils, times = [], [], []
        for r in range(reps):
            m = measure_eta(
                n_peers=n_peers,
                config=ChunkSwarmConfig(
                    n_chunks=n_chunks,
                    upload_rate=upload_rate,
                    neighbor_degree=degree,
                ),
                seed=_derive_seed(axis, value, r),
            )
            etas.append(m.eta_effective)
            utils.append(m.seed_utilization)
            times.append(m.mean_download_time)
        eta, util = float(np.mean(etas)), float(np.mean(utils))
        # Closed-loop check: the synchronized-crowd fluid at the measured
        # eta must predict the simulated download time; the paper's generic
        # eta = 0.5 is the reference point.
        fluid = synchronized_crowd_makespan(
            n_leechers=n_peers, n_seeds=1, mu=upload_rate,
            eta=eta, seed_utilization=util,
        )
        fluid_05 = synchronized_crowd_makespan(
            n_leechers=n_peers, n_seeds=1, mu=upload_rate, eta=0.5
        )
        return eta, util, float(np.mean(times)), fluid, fluid_05

    for n_chunks in chunk_counts:
        rows.append(
            (
                "chunks",
                n_chunks,
                *_measure("chunks", n_chunks, reference_peers, n_chunks, reps=n_repeats),
            )
        )
    for n_peers in peer_counts:
        rows.append(
            (
                "peers",
                n_peers,
                *_measure("peers", n_peers, n_peers, reference_chunks, reps=n_repeats),
            )
        )
    for pt in large_points:
        # Realistic-scale flash crowds (single repeat: one run already
        # averages ~pt download times).  The scalar engine cannot reach
        # these points; past 1000 peers even the dense O(P^2) matrices
        # become the bottleneck, so the sparse bounded-degree engine
        # takes over.
        degree = (
            large_swarm_degree
            if large_swarm_degree is not None and pt > 1000
            else None
        )
        rows.append(
            (
                "large_swarm",
                pt,
                *_measure(
                    "large_swarm",
                    pt,
                    pt,
                    large_swarm_chunks,
                    reps=1,
                    degree=degree,
                ),
            )
        )

    # Unchoke-slot sweep: BitTorrent's classic tuning knob.  Few slots
    # concentrate bandwidth (fast links, poor reciprocity coverage); many
    # slots fragment it.
    for slots in (1, 2, 4, 8):
        etas, utils, times = [], [], []
        for r in range(n_repeats):
            m = measure_eta(
                n_peers=reference_peers,
                config=ChunkSwarmConfig(
                    n_chunks=reference_chunks,
                    upload_rate=upload_rate,
                    n_upload_slots=slots,
                ),
                seed=_derive_seed("slots", slots, r),
            )
            etas.append(m.eta_effective)
            utils.append(m.seed_utilization)
            times.append(m.mean_download_time)
        fluid = synchronized_crowd_makespan(
            n_leechers=reference_peers,
            n_seeds=1,
            mu=upload_rate,
            eta=float(np.mean(etas)),
            seed_utilization=float(np.mean(utils)),
        )
        rows.append(
            (
                "slots",
                slots,
                float(np.mean(etas)),
                float(np.mean(utils)),
                float(np.mean(times)),
                fluid,
                float("nan"),
            )
        )

    # Open (churned) swarm: the steady-state regime the fluid models
    # actually describe.  eta is measured over the steady window and the
    # fluid prediction uses the measured coefficients (origin seed
    # included) -- see OpenSwarmMeasurement.
    open_m = measure_eta_open(
        arrival_rate=0.25,
        gamma=0.05,
        config=ChunkSwarmConfig(
            n_chunks=reference_chunks, upload_rate=upload_rate
        ),
        t_end=2500.0,
        warmup=800.0,
        seed=_derive_seed("open", reference_chunks, 0),
    )
    rows.append(
        (
            "open",
            reference_chunks,
            open_m.eta_effective,
            open_m.seed_utilization,
            open_m.mean_download_time,
            open_m.fluid_download_time,
            float("nan"),
        )
    )

    table = format_table(
        headers,
        rows,
        title=(
            f"Effective eta from the chunk-level swarm "
            f"(flash crowd, {reference_peers} peers / {reference_chunks} chunks "
            "reference, 1 initial seed)"
        ),
    )
    chunk_rows = [r for r in rows if r[0] == "chunks"]
    plot = ascii_plot(
        {
            "eta_eff": (
                np.array([r[1] for r in chunk_rows], dtype=float),
                np.array([r[2] for r in chunk_rows]),
            ),
            "seed util": (
                np.array([r[1] for r in chunk_rows], dtype=float),
                np.array([r[3] for r in chunk_rows]),
            ),
        },
        title="Effective eta vs chunk count (the paper's 0.5 vs Qiu-Srikant's ~1)",
        xlabel="chunks",
        ylabel="utilization",
        height=14,
    )
    eta_lo = chunk_rows[0][2]
    eta_hi = chunk_rows[-1][2]
    loop_err = max(abs(r[5] - r[4]) / r[4] for r in rows)
    open_row = next(r for r in rows if r[0] == "open")
    notes_open = (
        f"  In the *open* (churned) steady state -- the fluid models' own "
        f"regime -- eta_eff is {open_row[2]:.2f}, far above the flash-crowd "
        "values: the paper's 0.5 reflects crowd lifecycles, Qiu-Srikant's "
        "~1 the warmed-up steady state, and the fluid T at the measured "
        f"coefficients matches the open swarm within "
        f"{abs(open_row[5] - open_row[4]) / open_row[4]:.1%}."
    )
    large_rows = [r for r in rows if r[0] == "large_swarm"]
    notes_large = ""
    if large_rows:
        pts = ", ".join(f"{int(r[1])} peers -> {r[2]:.2f}" for r in large_rows)
        notes_large = (
            f"  At realistic scale ({large_swarm_chunks} chunks; array "
            f"engines, bounded degree {large_swarm_degree} past 1000 peers) "
            f"eta_eff holds steady: {pts} -- many-chunk flash crowds land "
            "in the paper's eta ~ 0.5 regime, not Qiu-Srikant's eta -> 1, "
            "and a realistic sparse neighborhood does not change that."
        )
    notes = (
        f"eta_eff rises from {eta_lo:.2f} at {chunk_rows[0][1]} chunks to "
        f"{eta_hi:.2f} at {chunk_rows[-1][1]} -- the paper's eta = 0.5 and "
        "Qiu-Srikant's eta ~ 1 are both right in their own regimes "
        "(coarse-grained flash crowds vs many-chunk files); the fluid "
        "conclusions themselves hold for any eta < 1 (see the sensitivity "
        "experiment).  Closed loop: the synchronized-crowd fluid at the "
        f"measured eta predicts the simulated download time within "
        f"{loop_err:.1%} worst-case, while the generic eta=0.5 reference "
        "misses by tens of percent outside its regime." + notes_large + notes_open
    )
    chunk_x = tuple(float(r[1]) for r in chunk_rows)
    return ExperimentResult(
        experiment_id="eta",
        title="Measuring eta with a chunk-level swarm (extension)",
        headers=headers,
        rows=tuple(rows),
        rendered=f"{table}\n\n{plot}\n\n{notes}",
        notes=notes,
        figures=(
            FigureSpec(
                name="eta_vs_chunks",
                series={
                    "eta_eff (flash crowd)": (chunk_x, tuple(r[2] for r in chunk_rows)),
                    "seed utilization": (chunk_x, tuple(r[3] for r in chunk_rows)),
                    "eta_eff (open swarm)": (
                        (chunk_x[0], chunk_x[-1]),
                        (open_row[2], open_row[2]),
                    ),
                },
                title="Effective eta vs chunk count",
                xlabel="chunks",
                ylabel="utilization",
            ),
        ),
    )
