"""Differentiated-service bandwidth tiers (extension, Zhang et al. 2012).

Commercial and community trackers sell *service tiers*: premium users get
more upload (and often longer-seeding) capacity than economy users sharing
the same swarm.  This experiment expresses such a mix as a declarative
scenario (:mod:`repro.scenario` -- the same document shape as
``examples/tiers.yaml``) and runs it through the scenario driver
(:func:`repro.scenario.run_spec`), which solves the Sec.-2 heterogeneous
fluid model's stationary point, to answer two questions:

* how large is the service gap -- per-tier steady-state download times for
  a premium / standard / economy mix, and
* who benefits when premium capacity grows -- the premium upload rate is
  swept upward and *every* tier's download time is tracked.  Upload
  capacity is a club good in BitTorrent: the sweep shows the economy
  tier's time falling as premium peers inject more capacity into the
  common pool, while the premium tier's own time is bounded below by its
  download link.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.experiments.base import ExperimentResult, FigureSpec
from repro.scenario import ParamsSpec, ScenarioSpec, TierSpec, WorkloadSpec
from repro.core.schemes import Scheme

__all__ = ["run", "build_spec"]


def build_spec(*, premium_upload: float = 0.04) -> ScenarioSpec:
    """The three-tier scenario, as a DSL document built in code.

    Mirrors ``examples/tiers.yaml``; ``premium_upload`` is the sweep knob.
    """
    return ScenarioSpec(
        name="tiers",
        description=(
            "Differentiated-service bandwidth tiers: premium / standard / "
            "economy upload classes in one swarm."
        ),
        scheme=Scheme.MTSD,
        workload=WorkloadSpec(p=0.8, visit_rate=0.5),
        params=ParamsSpec(mu=0.02, eta=0.5, gamma=0.05, num_files=5),
        tiers=(
            TierSpec(name="premium", upload=premium_upload, download=0.2, share=0.2),
            TierSpec(name="standard", upload=0.02, download=0.1, share=0.5),
            TierSpec(name="economy", upload=0.01, download=0.05, share=0.3),
        ),
    )


def run(
    *,
    premium_uploads: tuple[float, ...] = (0.02, 0.03, 0.04, 0.06, 0.08),
    base_premium_upload: float = 0.04,
) -> ExperimentResult:
    """Tiered mix at the base point, plus the premium-upload sweep."""
    # the scenario driver imports the experiments package: import it late
    from repro.scenario import run_spec

    if not premium_uploads:
        raise ValueError("need at least one premium upload value")
    base = build_spec(premium_upload=base_premium_upload)
    # one row per tier: name, upload, download, share, downloaders, seeds,
    # download_time
    base_result = run_spec(base)
    base_times = np.array([row[-1] for row in base_result.rows])
    tier_names = [t.name for t in base.tiers]
    base_table = format_table(
        base_result.headers,
        base_result.rows,
        title=(
            f"Steady state of the tiered mix "
            f"(premium upload {base_premium_upload}, eta={base.params.eta})"
        ),
    )

    headers = ("premium_upload", *(f"time_{name}" for name in tier_names))
    sweep: list[tuple] = []
    for upload in premium_uploads:
        times = [row[-1] for row in run_spec(build_spec(premium_upload=upload)).rows]
        sweep.append((float(upload), *times))
    rows = tuple(sweep)
    sweep_table = format_table(
        headers,
        rows,
        title="Per-tier download time vs premium upload bandwidth",
    )

    xs = tuple(r[0] for r in rows)
    figure = FigureSpec(
        name="tier_times",
        series={
            name: (xs, tuple(r[1 + i] for r in rows))
            for i, name in enumerate(tier_names)
        },
        title="Download time per tier vs premium upload bandwidth",
        xlabel="premium tier upload bandwidth",
        ylabel="download time",
    )

    first, last = rows[0], rows[-1]
    econ = 1 + tier_names.index("economy")
    prem = 1 + tier_names.index("premium")
    notes = (
        f"The service gap at the base point is "
        f"{base_times[-1] / base_times[0]:.1f}x between economy and premium. "
        f"Raising premium upload {first[0]:g} -> {last[0]:g} cuts the premium "
        f"tier's own time by {1 - last[prem] / first[prem]:.0%} and -- upload "
        "being a club good -- the economy tier's by "
        f"{1 - last[econ] / first[econ]:.0%} without buying anything: extra "
        "premium capacity lands in the shared service pool. Scenario built "
        "with the repro.scenario DSL (examples/tiers.yaml is the same "
        "document in YAML)."
    )
    return ExperimentResult(
        experiment_id="tiers",
        title="Differentiated-service bandwidth tiers (extension)",
        headers=headers,
        rows=rows,
        rendered=f"{base_table}\n\n{sweep_table}\n\n{notes}",
        notes=notes,
        figures=(figure,),
    )
