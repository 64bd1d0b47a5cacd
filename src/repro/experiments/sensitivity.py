"""Parameter-sensitivity experiment (extension): do the conclusions hold?

Two of the paper's parameter choices deserve stress-testing:

* ``eta = 0.5`` -- the paper *disagrees* with Qiu--Srikant (who argue
  ``eta`` is near 1) and picks 0.5 from the Izal et al. measurement.  Does
  the MTSD-over-MTCD advantage and the CMFSD gain survive across the whole
  range?
* ``gamma`` -- seeds' patience.  The upload-constrained steady state needs
  ``gamma > mu``; near that boundary seeds serve almost everything and the
  scheme differences should collapse.

For each swept value this driver evaluates all four schemes at high
correlation (p = 0.9) and records the two headline ratios:
``mtcd_over_mtsd`` and ``mfcd_over_cmfsd0`` (both > 1 when the paper's
conclusions hold).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.tables import format_table
from repro.core.cmfsd import CMFSDModel
from repro.core.correlation import CorrelationModel
from repro.core.parameters import FluidParameters, PAPER_PARAMETERS
from repro.core.schemes import Scheme, evaluate_scheme
from repro.experiments.base import ExperimentResult, FigureSpec

__all__ = ["run"]


def _evaluate(params: FluidParameters, p: float) -> tuple[float, float, float, float]:
    """Times of all four schemes.

    MTCD/MTSD/MFCD have closed forms; CMFSD comes from its scalar root.
    """
    corr = CorrelationModel(num_files=params.num_files, p=p)
    closed = tuple(
        evaluate_scheme(s, params, corr).avg_online_time_per_file
        for s in (Scheme.MTCD, Scheme.MTSD, Scheme.MFCD)
    )
    model = CMFSDModel.from_correlation(params, corr, rho=0.0)
    return closed + (model.system_metrics().avg_online_time_per_file,)


def run(
    params: FluidParameters = PAPER_PARAMETERS,
    *,
    p: float = 0.9,
    eta_values: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 1.0),
    gamma_values: tuple[float, ...] = (0.022, 0.03, 0.05, 0.1, 0.2),
) -> ExperimentResult:
    """Sweep eta and gamma; record scheme times and headline ratios."""
    headers = (
        "parameter",
        "value",
        "mtcd",
        "mtsd",
        "mfcd",
        "cmfsd_rho0",
        "mtcd_over_mtsd",
        "mfcd_over_cmfsd0",
    )
    rows: list[tuple] = []
    for eta in eta_values:
        mtcd, mtsd, mfcd, cmfsd = _evaluate(params.with_(eta=eta), p)
        rows.append(("eta", eta, mtcd, mtsd, mfcd, cmfsd, mtcd / mtsd, mfcd / cmfsd))
    for gamma in gamma_values:
        if gamma <= params.mu:
            raise ValueError(f"gamma={gamma} violates the stability condition gamma > mu")
        mtcd, mtsd, mfcd, cmfsd = _evaluate(params.with_(gamma=gamma), p)
        rows.append(
            ("gamma", gamma, mtcd, mtsd, mfcd, cmfsd, mtcd / mtsd, mfcd / cmfsd)
        )

    table = format_table(
        headers,
        rows,
        title=f"Sensitivity of the scheme comparison at p={p} "
        f"(baseline mu={params.mu}, eta={params.eta}, gamma={params.gamma})",
    )
    eta_rows = [r for r in rows if r[0] == "eta"]
    gamma_rows = [r for r in rows if r[0] == "gamma"]
    plot = ascii_plot(
        {
            "MTCD/MTSD vs eta": (
                np.array([r[1] for r in eta_rows]),
                np.array([r[6] for r in eta_rows]),
            ),
            "MFCD/CMFSD vs eta": (
                np.array([r[1] for r in eta_rows]),
                np.array([r[7] for r in eta_rows]),
            ),
        },
        title="Headline ratios across the eta sweep (>1 = paper's conclusion holds)",
        xlabel="eta",
        ylabel="ratio",
        height=14,
    )
    notes = (
        "Both conclusions -- sequential beats concurrent across torrents, and "
        "collaboration beats MFCD inside a torrent -- hold strictly for every "
        "eta < 1 and every stable gamma tested, with margins growing as eta "
        "falls (tit-for-tat inefficiency makes donated seed capacity more "
        "valuable) and shrinking as gamma grows (patient seeds already serve "
        "everyone).  At the Qiu--Srikant endpoint eta = 1 all four schemes "
        "coincide exactly: if downloaders upload as efficiently as seeds, "
        "neither sequencing nor virtual seeding can add anything -- the "
        "paper's whole case rests on its eta = 0.5 measurement argument."
    )
    eta_x = tuple(r[1] for r in eta_rows)
    return ExperimentResult(
        experiment_id="sensitivity",
        title="Parameter sensitivity of the paper's conclusions (extension)",
        headers=headers,
        rows=tuple(rows),
        rendered=f"{table}\n\n{plot}\n\n{notes}",
        notes=notes,
        figures=(
            FigureSpec(
                name="ratios_vs_eta",
                series={
                    "MTCD/MTSD": (eta_x, tuple(r[6] for r in eta_rows)),
                    "MFCD/CMFSD(0)": (eta_x, tuple(r[7] for r in eta_rows)),
                },
                title="Headline ratios vs eta (1 = schemes tie)",
                xlabel="eta",
                ylabel="online-time ratio",
            ),
        ),
    )
