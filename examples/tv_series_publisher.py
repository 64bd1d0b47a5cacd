#!/usr/bin/env python
"""Publisher's dilemma: how should a 10-episode TV series be released?

The paper's motivating scenario (Sec. 1): interest-correlated content --
episodes of a TV play -- can be published as ten separate torrents or as
one multi-file torrent, and peers can fetch concurrently or sequentially.
This example walks the options a publisher has and quantifies each with
the fluid models:

1. Separate torrents, users download concurrently (MTCD -- the default of
   multi-torrent client use).
2. Separate torrents, users download one by one (MTSD).
3. One multi-file torrent, chunks picked at random (MFCD -- what clients
   do today).
4. One multi-file torrent with collaborative sequential downloading
   (CMFSD), sweeping the bandwidth-allocation ratio rho.

Run:  python examples/tv_series_publisher.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CMFSDModel,
    CorrelationModel,
    PAPER_PARAMETERS,
    Scheme,
    build_model,
)
from repro.analysis import ascii_plot, format_table

EPISODES = 10
#: fans grab (nearly) the whole season: high interest correlation
SEASON_CORRELATION = 0.9


def main() -> None:
    params = PAPER_PARAMETERS.with_(num_files=EPISODES)
    workload = CorrelationModel(num_files=EPISODES, p=SEASON_CORRELATION)

    print(__doc__.split("Run:")[0])

    # --- the four publication/download strategies ---------------------------------
    rows = []
    for scheme in (Scheme.MTCD, Scheme.MTSD, Scheme.MFCD):
        metrics = build_model(scheme, params, workload).system_metrics()
        rows.append(
            [scheme.value, metrics.avg_download_time_per_file, metrics.avg_online_time_per_file]
        )
    cmfsd = build_model(Scheme.CMFSD, params, workload, rho=0.0).system_metrics()
    rows.append(["CMFSD (rho=0)", cmfsd.avg_download_time_per_file, cmfsd.avg_online_time_per_file])
    print(
        format_table(
            ["strategy", "download/file", "online/file"],
            rows,
            title=f"Season release, correlation p={SEASON_CORRELATION}",
        )
    )

    # --- how sensitive is CMFSD to the collaboration ratio? ------------------------
    rhos = np.linspace(0.0, 1.0, 11)
    online = []
    for rho in rhos:
        model = CMFSDModel.from_correlation(params, workload, rho=float(rho))
        online.append(model.system_metrics().avg_online_time_per_file)
    print()
    print(
        ascii_plot(
            {"CMFSD": (rhos, np.asarray(online))},
            title="Collaboration ratio sweep (lower is better)",
            xlabel="rho (upload kept for tit-for-tat)",
            ylabel="avg online time per file",
            height=14,
        )
    )

    # --- per-episode-count fairness -------------------------------------------------
    model = CMFSDModel.from_correlation(params, workload, rho=0.0)
    steady = model.steady_state()
    fairness_rows = []
    for i in (1, 3, 5, 10):
        cm = model.class_metrics(i, steady)
        fairness_rows.append([i, cm.download_time_per_file, cm.online_time_per_file])
    print()
    print(
        format_table(
            ["episodes requested", "download/file", "online/file"],
            fairness_rows,
            title="CMFSD (rho=0) per-class view: binge watchers vs samplers",
        )
    )

    mfcd_online = rows[2][2]
    print(
        f"\nVerdict: publish the season as ONE torrent and ship CMFSD with "
        f"rho=0 -- users spend {cmfsd.avg_online_time_per_file:.1f} per episode "
        f"instead of {mfcd_online:.1f} ({mfcd_online / cmfsd.avg_online_time_per_file:.2f}x better), "
        "and binge watchers benefit the most."
    )

    # The same conclusion straight from the recommendation API:
    from repro.core import recommend

    advice = recommend(params, workload)
    print(f"\nrecommend() agrees: {advice.best.scheme} "
          f"({advice.speedup_vs_status_quo:.2f}x vs today's clients); "
          f"without protocol changes it would say "
          f"{recommend(params, workload, allow_protocol_changes=False).best.scheme}.")


if __name__ == "__main__":
    main()
