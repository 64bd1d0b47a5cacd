"""Consolidated reproduction report: run everything, write one document.

``python -m repro report`` executes every registered experiment and emits
``results/REPORT.md`` -- a single markdown file with each artifact's
rendered tables/plots and notes, plus the CSV series alongside.  This is
the "hand it to a reviewer" artifact; EXPERIMENTS.md is the curated
paper-vs-measured commentary.

Generation goes through :mod:`repro.runner`, so ``--jobs`` parallelizes
the experiments and the result cache (default ``<out>/.cache``) makes
re-generation after an unrelated edit near-instant.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.parameters import PAPER_PARAMETERS, format_table1
from repro.experiments.registry import REGISTRY
from repro.runner import RunSummary, run_experiments

__all__ = ["generate_report"]

_HEADER = """# Reproduction report

Auto-generated by `python -m repro report`.

Paper: Tian, Wu & Ng, *Analyzing Multiple File Downloading in BitTorrent*
(ICPP 2006).  Parameters unless stated: {params}.

| experiment | description | runtime |
|---|---|---|
"""


def generate_report(
    out_dir: str | Path = "results",
    *,
    experiment_ids: tuple[str, ...] | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    force: bool = False,
    retries: int = 0,
    task_timeout: float | None = None,
    keep_going: bool = False,
) -> tuple[Path, RunSummary]:
    """Run the selected experiments (default: all) and write REPORT.md.

    Returns ``(report path, run summary)``.  Each experiment's CSV is
    written next to it.  ``jobs`` fans execution across a process pool;
    cached results are replayed from ``cache_dir`` (default
    ``<out_dir>/.cache``) unless ``use_cache`` is off or ``force``
    bypasses the lookup.

    ``retries``/``task_timeout``/``keep_going`` follow
    :func:`repro.runner.run_experiments`: with ``keep_going=True`` a
    report is still written when experiments fail -- failed sections carry
    the error and traceback instead of tables, and the returned summary's
    ``failures`` lets the caller exit non-zero.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ids = experiment_ids if experiment_ids is not None else tuple(REGISTRY)
    summary = run_experiments(
        ids,
        jobs=jobs,
        cache_dir=(cache_dir if cache_dir is not None else out / ".cache")
        if use_cache
        else None,
        force=force,
        retries=retries,
        task_timeout=task_timeout,
        keep_going=keep_going,
    )

    sections: list[str] = []
    index_rows: list[str] = []
    for outcome in summary.outcomes:
        eid, result = outcome.experiment_id, outcome.result
        description = REGISTRY[eid][1]
        if not outcome.ok:
            error = outcome.error
            index_rows.append(
                f"| {eid} | {description} | **{outcome.status.upper()}** |"
            )
            sections.append(
                f"\n\n## {eid} — {outcome.status} after "
                f"{outcome.attempts} attempt(s)\n\n"
                f"```text\n{error.traceback or error.summary()}\n```"
            )
            continue
        result.write_csv(out)
        figure_paths = result.write_figures(out)
        runtime = "cached" if outcome.cached else f"{outcome.elapsed:.1f}s"
        index_rows.append(f"| {eid} | {description} | {runtime} |")
        figure_links = "".join(
            f"\n\n![{p.stem}]({p.name})" for p in figure_paths
        )
        sections.append(
            f"\n\n## {eid} — {result.title}\n\n"
            f"```text\n{result.rendered}\n```\n\n"
            f"*Notes:* {result.notes}\n\n"
            f"*Series:* [`{eid}.csv`]({eid}.csv)" + figure_links
        )

    params_line = (
        f"mu={PAPER_PARAMETERS.mu}, eta={PAPER_PARAMETERS.eta}, "
        f"gamma={PAPER_PARAMETERS.gamma}, K={PAPER_PARAMETERS.num_files}"
    )
    body = (
        _HEADER.format(params=params_line)
        + "\n".join(index_rows)
        + "\n\n```text\n"
        + format_table1(PAPER_PARAMETERS)
        + "\n```"
        + "".join(sections)
        + "\n"
    )
    report_path = out / "REPORT.md"
    report_path.write_text(body)
    return report_path, summary
