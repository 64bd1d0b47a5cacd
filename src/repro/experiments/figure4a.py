"""Figure 4(a): CMFSD average online time per file over the (p, rho) grid.

Every grid point is one stationary point of the Eq.-(5) ODE system.
Expected shape (paper Sec. 4.2.2): for every correlation ``p`` the online
time per file increases monotonically with ``rho`` (``rho = 0`` is the
system optimum); the improvement of ``rho = 0`` over ``rho = 1`` grows with
``p``; and at ``rho = 1`` the scheme performs as MFCD.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.ascii_plot import ascii_heatmap, ascii_plot
from repro.analysis.tables import format_table
from repro.core.cmfsd import CMFSDModel, steady_state_path
from repro.core.correlation import CorrelationModel
from repro.core.mfcd import MFCDModel
from repro.core.parameters import FluidParameters, PAPER_PARAMETERS
from repro.experiments.base import ExperimentResult, FigureSpec, HeatmapSpec

__all__ = ["run"]


def run(
    params: FluidParameters = PAPER_PARAMETERS,
    *,
    p_values: np.ndarray | None = None,
    rho_values: np.ndarray | None = None,
) -> ExperimentResult:
    """Sweep (p, rho) and solve the CMFSD steady state at each point.

    Each grid row is one path along rho, solved by one vectorised scalar
    root-find (:func:`repro.core.cmfsd.steady_state_path`).
    """
    if p_values is None:
        p_values = np.linspace(0.1, 1.0, 10)
    if rho_values is None:
        rho_values = np.linspace(0.0, 1.0, 11)
    p_values = np.asarray(p_values, dtype=float)
    rho_values = np.asarray(rho_values, dtype=float)
    if np.any((p_values <= 0) | (p_values > 1)):
        raise ValueError("p values must lie in (0, 1]")
    if np.any((rho_values < 0) | (rho_values > 1)):
        raise ValueError("rho values must lie in [0, 1]")

    grid = np.empty((p_values.size, rho_values.size))
    mfcd_ref = np.empty(p_values.size)
    rows: list[tuple] = []
    for a, p in enumerate(p_values):
        corr = CorrelationModel(num_files=params.num_files, p=float(p))
        mfcd_ref[a] = (
            MFCDModel.from_correlation(params, corr)
            .system_metrics()
            .avg_online_time_per_file
        )
        models = [
            CMFSDModel.from_correlation(params, corr, rho=float(rho))
            for rho in rho_values
        ]
        steadies = steady_state_path(models)
        for b, (rho, model, steady) in enumerate(zip(rho_values, models, steadies)):
            grid[a, b] = model.system_metrics(steady).avg_online_time_per_file
            rows.append((float(p), float(rho), float(grid[a, b]), float(mfcd_ref[a])))

    headers = ("p", "rho", "cmfsd_online_per_file", "mfcd_online_per_file")
    table = format_table(
        headers,
        rows,
        title=(
            "Figure 4(a): CMFSD average online time per file over (p, rho) "
            f"(K={params.num_files})"
        ),
    )
    heat = ascii_heatmap(
        grid,
        row_labels=list(p_values),
        col_labels=list(rho_values),
        title="Figure 4(a) surface (rows: p, cols: rho; darker = slower)",
        row_name="p",
        col_name="rho",
    )
    curves = ascii_plot(
        {
            f"p={p_values[a]:.2g}": (rho_values, grid[a])
            for a in range(0, p_values.size, max(1, p_values.size // 4))
        },
        title="Figure 4(a) slices: online time per file vs rho",
        xlabel="rho",
        ylabel="avg online time per file",
    )
    worst = grid[:, -1]
    best = grid[:, 0]
    notes = (
        "rho=0 minimises the online time for every correlation; the "
        f"improvement over rho=1 grows with p (x{worst[0] / best[0]:.2f} at "
        f"p={p_values[0]:.2g} to x{worst[-1] / best[-1]:.2f} at "
        f"p={p_values[-1]:.2g}); at rho=1 CMFSD matches MFCD "
        f"(max |diff| = {float(np.max(np.abs(worst - mfcd_ref))):.3g})."
    )
    return ExperimentResult(
        experiment_id="figure4a",
        title="Figure 4(a): CMFSD online time per file over (p, rho)",
        headers=headers,
        rows=tuple(rows),
        rendered=f"{table}\n\n{heat}\n\n{curves}\n\n{notes}",
        notes=notes,
        figures=(
            FigureSpec(
                name="online_vs_rho",
                series={
                    f"p={p_values[a]:.2g}": (tuple(rho_values), tuple(grid[a]))
                    for a in range(0, p_values.size, max(1, p_values.size // 4))
                },
                title="Figure 4(a) (reproduced): CMFSD online time per file",
                xlabel="rho (tit-for-tat share of upload)",
                ylabel="avg online time per file",
            ),
            HeatmapSpec(
                name="surface",
                grid=tuple(tuple(float(v) for v in row) for row in grid),
                row_labels=tuple(float(v) for v in p_values),
                col_labels=tuple(float(v) for v in rho_values),
                title="Figure 4(a) surface: online time per file",
                row_name="p",
                col_name="rho",
            ),
        ),
    )
