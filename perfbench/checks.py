"""Output checks: each returns ``(checks_made, failure messages)``.

Every check is a pure function of a workload's outputs, so the tests can
feed it a corrupted output (a perturbed steady state, a tampered journal,
an unfinished leecher) and watch it fire.  Failures feed the benchmark's
``failed`` count and ``error_rate``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "FLUID_REL_TOL",
    "LITTLE_REL_TOL",
    "check_chunk_run",
    "check_cold_agreement",
    "check_des_leg",
    "check_live_run",
    "check_steady_states",
]

#: relative sim-vs-fluid tolerance of the validation experiment's tests
#: (tests/integration/test_sim_vs_fluid.py: transfer and online times)
FLUID_REL_TOL = 0.08
#: Little's law per class, L_i = lambda_i * i * (mean transfer time),
#: over classes with at least ``min_users`` (default LITTLE_MIN_USERS)
#: completed users
LITTLE_REL_TOL = 0.15
LITTLE_MIN_USERS = 100
#: warm-started and cold steady states must agree to this scaled distance
COLD_REL_TOL = 1e-6


def _rel_err(expected: float, got: float) -> float:
    return abs(expected - got) / max(abs(expected), abs(got), 1e-12)


def check_steady_states(pairs, tol: float) -> tuple[int, list[str]]:
    """Every ``(model, steady)`` converged with a recomputed residual <= ``tol``."""
    from repro.ode.steady_state import residual_norm

    failures = []
    for k, (model, steady) in enumerate(pairs):
        residual = residual_norm(model.rhs, steady.state)
        if not steady.converged or not residual <= tol:
            failures.append(
                f"steady state {k} (rho={float(model.rho[0]):.3f}): residual "
                f"{residual:.3g} > tol {tol:.3g} (converged={steady.converged})"
            )
    return len(pairs), failures


def check_cold_agreement(pairs) -> tuple[int, list[str]]:
    """Warm-started ``(model, steady)`` pairs match a cold solve of the same model."""
    from repro.core.cmfsd import steady_state_path

    failures = []
    for k, (model, steady) in enumerate(pairs):
        cold = steady_state_path([model], warm_start=False)[0]
        scale = max(1.0, float(np.max(np.abs(cold.state))))
        dist = float(np.max(np.abs(cold.state - steady.state))) / scale
        if not dist <= COLD_REL_TOL:
            failures.append(
                f"steady state {k} (rho={float(model.rho[0]):.3f}): warm and cold "
                f"solves differ by {dist:.3g} (> {COLD_REL_TOL})"
            )
    return len(pairs), failures


def check_des_leg(
    label: str,
    system,
    summary,
    fluid: dict,
    window: tuple[float, float],
    min_users: int = LITTLE_MIN_USERS,
):
    """Population conservation, Little's law per class, agreement with the fluid model.

    ``window`` is the summary's ``(warmup, horizon)``.  Little's law uses
    the class's observed arrival rate over the window, so Poisson
    fluctuations of the input do not count against the simulator.
    ``fluid`` maps a summary attribute (``avg_online_time_per_file``,
    ``avg_download_time_per_file`` or ``transfer_time`` -- the mean
    per-entry transfer time) to the fluid model's value for it.
    """
    failures = []
    made = 1
    records = system.metrics.records.values()
    departed = sum(1 for r in records if r.is_departed)
    if len(system.metrics.records) != departed + len(system.behaviors):
        failures.append(
            f"{label}: arrivals {len(system.metrics.records)} != departures "
            f"{departed} + online {len(system.behaviors)}"
        )
    warmup, horizon = window
    arrivals = np.zeros(len(summary.class_counts))
    for r in records:
        if warmup <= r.arrival_time < horizon:
            arrivals[r.user_class - 1] += 1
    for i in range(1, len(summary.class_counts) + 1):
        if summary.class_counts[i - 1] < min_users:
            continue
        population = float(sum(v[i - 1] for v in summary.mean_downloaders.values()))
        download_time = summary.entry_download_time_by_class[i - 1]
        expected = arrivals[i - 1] / (horizon - warmup) * i * download_time
        made += 1
        err = _rel_err(population, float(expected))
        if not err <= LITTLE_REL_TOL:
            failures.append(
                f"{label}: Little's law fails for class {i}: L={population:.3f} vs "
                f"lambda*W={expected:.3f} (rel err {err:.3f})"
            )
    if made == 1:
        failures.append(f"{label}: no class has {min_users} completed users")
    for quantity, expected in fluid.items():
        if quantity == "transfer_time":
            got = float(np.nanmean(summary.entry_download_time_by_class))
        else:
            got = float(getattr(summary, quantity))
        made += 1
        err = _rel_err(expected, got)
        if not err <= FLUID_REL_TOL:
            failures.append(
                f"{label}: {quantity} sim {got:.3f} vs fluid {expected:.3f} "
                f"(rel err {err:.3f} > {FLUID_REL_TOL})"
            )
    return made, failures


def check_chunk_run(swarm, leechers: int) -> tuple[int, list[str]]:
    """Useful bytes <= capacity, 0 < eta <= 1, every leecher finished."""
    failures = []
    useful, capacity = float(swarm.downloader_useful), float(swarm.downloader_capacity)
    if not useful <= capacity * (1 + 1e-12):
        failures.append(f"downloader useful bytes {useful} exceed capacity {capacity}")
    eta = useful / capacity if capacity > 0 else math.nan
    if not 0.0 < eta <= 1.0:
        failures.append(f"eta {eta} outside (0, 1]")
    finished = sum(
        1 for p in swarm.peers.values() if not p.initially_seed and p.finished_at is not None
    )
    if finished != leechers:
        failures.append(f"{finished} of {leechers} leechers finished")
    return 3, failures


def check_live_run(result: dict, *, t_end: float, lateness_limit_s: float) -> tuple[int, list[str]]:
    """Checks on one live-service run (see ``loadgen`` for the ``result`` keys).

    Every accepted event was applied and journaled, replay reproduced the
    live digest, the live run reproduced the digest of the run the requests
    were planned on (so every event met the state it was aimed at), every
    planned event acted, virtual time stayed below ``t_end`` and the
    generator kept to schedule.  Refused events and ``ok: false`` replies
    are counted as failed operations by the caller.
    """
    failures = []
    if not result["accepted"] == result["applied"] == result["journal_events"]:
        failures.append(
            f"accepted {result['accepted']} / applied {result['applied']} / "
            f"journaled {result['journal_events']} events differ"
        )
    if not (result["replay_digest"] == result["live_digest"] and result["replay_verified"]):
        failures.append(
            f"replay digest {str(result['replay_digest'])[:12]} != live digest "
            f"{str(result['live_digest'])[:12]}"
        )
    if result["live_digest"] != result["plan_digest"]:
        failures.append(
            f"live digest {str(result['live_digest'])[:12]} != planned digest "
            f"{str(result['plan_digest'])[:12]}: the service left the planned run"
        )
    effects = result["effects"]
    idle = {k: e["sent"] - e["acted"] for k, e in effects.items() if e["sent"] > e["acted"]}
    if idle:
        failures.append(f"planned events that did not act, per kind: {idle}")
    if not result["virtual_time"] < t_end:
        failures.append(f"virtual time {result['virtual_time']} reached t_end {t_end}")
    if not result["lateness_p99_s"] <= lateness_limit_s:
        failures.append(
            f"generator sent 1% of its requests over {result['lateness_p99_s'] * 1e3:.1f} ms "
            f"late (limit {lateness_limit_s * 1e3:.0f} ms): run invalid"
        )
    return 6, failures
