"""Heterogeneous-bandwidth experiment (extension): Sec. 2 in full.

The paper states its multi-class model for arbitrary bandwidth classes
``C_i(mu_i, c_i)`` but only ever instantiates the symmetric ``mu/i, c/i``
special case that MTCD needs.  This experiment exercises the general
model on a realistic access-link mix inside one torrent:

* dial-up/DSL peers  (slow upload, modest download)
* cable peers        (the paper's baseline)
* fibre peers        (fast both ways)

For each mix we solve the stationary point (one scalar root,
:meth:`HeterogeneousModel.steady_state`; the closed form needs ``mu_i/c_i``
constant) and report per-class download times, then sweep the fibre
fraction to show how a few fast uploaders subsidise everyone -- the same
effect CMFSD engineers deliberately with virtual seeds.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.tables import format_table
from repro.core.heterogeneous import HeterogeneousModel, PeerClass
from repro.core.parameters import FluidParameters, PAPER_PARAMETERS
from repro.experiments.base import ExperimentResult, FigureSpec

__all__ = ["run", "ACCESS_TIERS"]

#: (name, upload mu_i, download c_i) -- cable matches the paper's baseline.
ACCESS_TIERS: tuple[tuple[str, float, float], ...] = (
    ("dsl", 0.008, 0.08),
    ("cable", 0.02, 0.2),
    ("fibre", 0.08, 0.8),
)


def _mix_model(
    fibre_fraction: float,
    total_rate: float,
    gamma: float,
    eta: float,
) -> HeterogeneousModel:
    """One torrent with dsl/cable/fibre classes; fibre share is swept."""
    dsl_frac = (1.0 - fibre_fraction) * 0.5
    cable_frac = (1.0 - fibre_fraction) * 0.5
    fracs = (dsl_frac, cable_frac, fibre_fraction)
    classes = tuple(
        PeerClass(
            upload=mu_i,
            download=c_i,
            arrival_rate=total_rate * frac,
            seed_departure_rate=gamma,
        )
        for (name, mu_i, c_i), frac in zip(ACCESS_TIERS, fracs)
        if frac > 0
    )
    return HeterogeneousModel(classes=classes, eta=eta)


def critical_fibre_fraction(gamma: float) -> float:
    """Fibre share at which stationary seed capacity meets total demand.

    Beyond this boundary the upload-constrained model leaves its validity
    regime (the heterogeneous analogue of Eq. 4's ``gamma > mu``): seeds
    alone saturate demand and the downloader population collapses.
    """
    (_, mu_dsl, _), (_, mu_cable, _), (_, mu_fibre, _) = ACCESS_TIERS
    base = 0.5 * (mu_dsl + mu_cable)  # per-user upload at fibre share 0
    return (gamma - base) / (mu_fibre - base)


def run(
    params: FluidParameters = PAPER_PARAMETERS,
    *,
    total_rate: float = 1.0,
    fibre_fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.35, 0.5),
) -> ExperimentResult:
    """Sweep the fibre share and report per-class download times."""
    headers = ("fibre_fraction", "t_dsl", "t_cable", "t_fibre", "t_mean")
    f_crit = critical_fibre_fraction(params.gamma)
    rows: list[tuple] = []
    for frac in fibre_fractions:
        if not 0.0 <= frac < 1.0:
            raise ValueError(f"fibre fraction must be in [0, 1), got {frac}")
        model = _mix_model(frac, total_rate, params.gamma, params.eta)
        if not model.is_stable():
            raise ValueError(
                f"fibre fraction {frac} is beyond the model's validity "
                f"boundary f* = {f_crit:.3f}: stationary seeds alone would "
                "saturate demand (the system becomes download-constrained)"
            )
        steady = model.steady_state()
        if not steady.converged:
            raise RuntimeError(f"steady state failed to converge at fibre={frac}")
        times = steady.download_times
        lam = np.array([c.arrival_rate for c in model.classes])
        mean_t = float(np.sum(times * lam) / np.sum(lam))
        if frac > 0:
            t_dsl, t_cable, t_fibre = float(times[0]), float(times[1]), float(times[2])
        else:
            t_dsl, t_cable, t_fibre = float(times[0]), float(times[1]), float("nan")
        rows.append((frac, t_dsl, t_cable, t_fibre, mean_t))

    table = format_table(
        headers,
        rows,
        title=(
            "Heterogeneous access mix in one torrent (Sec.-2 general model, "
            f"eta={params.eta}, gamma={params.gamma}): download times"
        ),
    )
    xs = np.array([r[0] for r in rows])
    plot = ascii_plot(
        {
            "dsl": (xs, np.array([r[1] for r in rows])),
            "cable": (xs, np.array([r[2] for r in rows])),
            "mean": (xs, np.array([r[4] for r in rows])),
        },
        title="Download time vs fibre share (fast uploaders subsidise everyone)",
        xlabel="fibre fraction",
        ylabel="download time",
        height=14,
    )
    notes = (
        "Seed capacity is allocated proportionally to download bandwidth "
        "(assumption 2), so fibre peers also *receive* the most -- yet the "
        "mean download time falls steeply with the fibre share because their "
        "upload enters the common pool: the same subsidy mechanism CMFSD "
        "builds deliberately with virtual seeds.  Beyond the boundary "
        f"f* = {f_crit:.3f} the stationary seeds saturate demand and the "
        "upload-constrained model (like Eq. 4's gamma > mu condition) no "
        "longer applies."
    )
    return ExperimentResult(
        experiment_id="heterogeneity",
        title="Heterogeneous bandwidth classes (Sec.-2 general model, extension)",
        headers=headers,
        rows=tuple(rows),
        rendered=f"{table}\n\n{plot}\n\n{notes}",
        notes=notes,
        figures=(
            FigureSpec(
                name="times_vs_fibre",
                series={
                    "dsl": (tuple(xs), tuple(r[1] for r in rows)),
                    "cable": (tuple(xs), tuple(r[2] for r in rows)),
                    "mean": (tuple(xs), tuple(r[4] for r in rows)),
                },
                title="Download times vs fibre share (Sec.-2 general model)",
                xlabel="fibre fraction",
                ylabel="download time",
            ),
        ),
    )
