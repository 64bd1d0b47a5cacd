"""Figures 4(b) and 4(c): per-class times under CMFSD vs MFCD.

For each correlation setting (``p = 0.9`` for 4(b), ``p = 0.1`` for 4(c))
and each class ``i = 1..K``: online and download time per file under CMFSD
with ``rho = 0.1`` and ``rho = 0.9``, with MFCD as the no-collaboration
reference.  Expected shapes (paper Sec. 4.2.2):

* CMFSD introduces *unfairness in download time per file*: single-file
  peers finish faster per file than multi-file peers, more strongly at low
  correlation and large rho.
* At high correlation with small rho, every class improves greatly over
  MFCD and the unfairness is mild.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.tables import format_table
from repro.core.cmfsd import CMFSDModel, steady_state_path
from repro.core.correlation import CorrelationModel
from repro.core.mfcd import MFCDModel
from repro.core.parameters import FluidParameters, PAPER_PARAMETERS
from repro.experiments.base import ExperimentResult, FigureSpec

__all__ = ["run"]


def run(
    params: FluidParameters = PAPER_PARAMETERS,
    *,
    correlations: tuple[float, ...] = (0.9, 0.1),
    rho_values: tuple[float, ...] = (0.1, 0.9),
    warm_start: bool = True,
) -> ExperimentResult:
    """Per-class CMFSD/MFCD comparison at the paper's settings.

    The CMFSD stationary points along the rho grid come from one
    vectorised scalar root-find (:func:`repro.core.cmfsd.steady_state_path`);
    pass ``warm_start=False`` to solve every point cold with the numerical
    driver instead.
    """
    classes = list(range(1, params.num_files + 1))
    headers = (
        "p",
        "class_i",
        "cmfsd_rho0.1_online",
        "cmfsd_rho0.1_download",
        "cmfsd_rho0.9_online",
        "cmfsd_rho0.9_download",
        "mfcd_online",
        "mfcd_download",
    )
    if tuple(rho_values) != (0.1, 0.9):
        # Column names are tied to the paper's two rho settings.
        headers = (
            ("p", "class_i")
            + tuple(
                f"cmfsd_rho{r}_{m}" for r in rho_values for m in ("online", "download")
            )
            + ("mfcd_online", "mfcd_download")
        )
    rows: list[tuple] = []
    sections: list[str] = []
    figures: list[FigureSpec] = []
    for p in correlations:
        corr = CorrelationModel(num_files=params.num_files, p=p)
        mfcd = MFCDModel.from_correlation(params, corr)
        cmfsd_metrics = {}
        models = [
            CMFSDModel.from_correlation(params, corr, rho=rho) for rho in rho_values
        ]
        steadies = steady_state_path(models, warm_start=warm_start)
        for rho, model, steady in zip(rho_values, models, steadies):
            cmfsd_metrics[rho] = [model.class_metrics(i, steady) for i in classes]
        series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        xs = np.asarray(classes, dtype=float)
        for i_idx, i in enumerate(classes):
            row: list = [p, i]
            for rho in rho_values:
                cm = cmfsd_metrics[rho][i_idx]
                row.extend([cm.online_time_per_file, cm.download_time_per_file])
            mf = mfcd.class_metrics(i)
            row.extend([mf.online_time_per_file, mf.download_time_per_file])
            rows.append(tuple(row))
        for rho in rho_values:
            series[f"CMFSD rho={rho} online"] = (
                xs,
                np.asarray([cm.online_time_per_file for cm in cmfsd_metrics[rho]]),
            )
        series["MFCD online"] = (
            xs,
            np.asarray([mfcd.class_metrics(i).online_time_per_file for i in classes]),
        )
        table = format_table(
            headers[1:],
            [r[1:] for r in rows if r[0] == p],
            title=f"Figure 4({'b' if p == correlations[0] else 'c'}) at p={p}",
        )
        plot = ascii_plot(
            series,
            title=f"Figure 4 per-class online time per file, p={p}",
            xlabel="peer class i",
            ylabel="online time per file",
        )
        sections.append(f"{table}\n\n{plot}")
        panel = "b" if p == correlations[0] else "c"
        figures.append(
            FigureSpec(
                name=f"panel_{panel}",
                series={k: (tuple(v[0]), tuple(v[1])) for k, v in series.items()},
                title=f"Figure 4({panel}) (reproduced), p={p}",
                xlabel="peer class i",
                ylabel="online time per file",
            )
        )

    notes = (
        "CMFSD improves on MFCD for all classes at high correlation (most at "
        "small rho), at the price of download-time unfairness favouring "
        "single-file peers -- strongest at low correlation with large rho."
    )
    return ExperimentResult(
        experiment_id="figure4bc",
        title="Figures 4(b)/(c): per-class times, CMFSD vs MFCD",
        headers=headers,
        rows=tuple(rows),
        rendered="\n\n".join(sections) + f"\n\n{notes}",
        notes=notes,
        figures=tuple(figures),
    )
