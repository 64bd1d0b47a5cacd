"""Adapt mechanism study (the paper's Sec. 4.3 and declared future work).

The paper proposes Adapt but leaves its systematic evaluation -- "probing
the proper settings for phi_1, phi_2, v_1 and v_2" -- to future work.  This
driver performs that study at two levels:

* **Fluid level**: every class carries its own rho and iterates the Adapt
  rule against the Eq.-(5) steady state (:func:`adapt_fixed_point`),
  sweeping the dead-band width and cheater presence.  A *narrow* dead band
  makes net contributors (large classes, whose stages are mostly
  virtual-seed-capable) ratchet rho upward -- the degeneration toward MFCD
  the paper predicts; a *wide* band keeps the collaborative optimum stable.
* **Simulation level**: per-peer controllers on measured give/take inside
  the discrete-event simulator, sweeping the cheater fraction.

Dead-band thresholds are expressed as fractions of the upload bandwidth
``mu`` (the natural scale of the give/take imbalance).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.core.adapt import AdaptPolicy, adapt_fixed_point
from repro.core.correlation import CorrelationModel
from repro.core.parameters import FluidParameters, PAPER_PARAMETERS
from repro.core.schemes import Scheme
from repro.experiments.base import ExperimentResult
from repro.sim.scenarios import ScenarioConfig, build_simulation

__all__ = ["run"]


def _fluid_rows(
    params: FluidParameters,
    correlations: tuple[float, ...],
    band_fractions: tuple[float, ...],
    max_rounds: int,
) -> list[tuple]:
    rows: list[tuple] = []
    for p in correlations:
        corr = CorrelationModel(num_files=params.num_files, p=p)
        rates = corr.class_rates()
        for frac in band_fractions:
            half_band = frac * params.mu
            policy = AdaptPolicy(
                phi_increase=half_band,
                phi_decrease=-half_band,
                step_increase=0.1,
                step_decrease=0.1,
                patience=1,
                initial_rho=0.0,
            )
            for cheaters in ((), tuple(range(2, params.num_files + 1, 2))):
                trace = adapt_fixed_point(
                    params,
                    rates,
                    policy,
                    cheater_classes=cheaters,
                    max_rounds=max_rounds,
                )
                obedient = [
                    i - 1
                    for i in range(2, params.num_files + 1)
                    if i not in cheaters and rates[i - 1] > 0
                ]
                mean_rho = float(np.mean(trace.final_rho[obedient])) if obedient else np.nan
                rows.append(
                    (
                        "fluid",
                        p,
                        frac,
                        len(cheaters) / params.num_files,
                        mean_rho,
                        trace.final_metrics.avg_online_time_per_file,
                        trace.n_rounds,
                    )
                )
    return rows


def _sim_rows(
    params: FluidParameters,
    p: float,
    cheater_fractions: tuple[float, ...],
    *,
    visit_rate: float,
    t_end: float,
    warmup: float,
    seed: int,
) -> list[tuple]:
    rows: list[tuple] = []
    corr = CorrelationModel(num_files=params.num_files, p=p, visit_rate=visit_rate)
    policy = AdaptPolicy(
        phi_increase=0.25 * params.mu,
        phi_decrease=-0.25 * params.mu,
        step_increase=0.1,
        step_decrease=0.1,
        patience=2,
        initial_rho=0.0,
    )
    for frac in cheater_fractions:
        config = ScenarioConfig(
            scheme=Scheme.CMFSD,
            params=params,
            correlation=corr,
            t_end=t_end,
            warmup=warmup,
            seed=seed,
            adapt=policy,
            adapt_period=25.0,
            cheater_fraction=frac,
        )
        system, arrivals = build_simulation(config)
        system.start_sampler(config.sample_interval, config.t_end)
        arrivals.start()
        system.run_until(config.t_end)
        summary = system.metrics.summarize(warmup=config.warmup, horizon=config.t_end)
        finals = [
            rec.rho_trace[-1][1]
            for rec in system.metrics.records.values()
            if rec.rho_trace
            and not rec.is_cheater
            and rec.user_class > 1
            and rec.arrival_time >= warmup
        ]
        mean_rho = float(np.mean(finals)) if finals else np.nan
        rows.append(
            (
                "sim",
                p,
                0.25,
                frac,
                mean_rho,
                summary.avg_online_time_per_file,
                summary.n_users_completed,
            )
        )
    return rows


def run(
    params: FluidParameters = PAPER_PARAMETERS,
    *,
    correlations: tuple[float, ...] = (0.9, 0.3),
    band_fractions: tuple[float, ...] = (0.05, 0.25, 1.0),
    max_rounds: int = 40,
    include_sim: bool = True,
    sim_cheater_fractions: tuple[float, ...] = (0.0, 0.5),
    sim_visit_rate: float = 0.4,
    sim_t_end: float = 2000.0,
    sim_warmup: float = 600.0,
    seed: int = 7,
) -> ExperimentResult:
    """Sweep Adapt parameters at the fluid level (and optionally in the sim)."""
    headers = (
        "level",
        "p",
        "band_over_mu",
        "cheater_fraction",
        "mean_final_rho",
        "avg_online_per_file",
        "rounds_or_users",
    )
    rows = _fluid_rows(params, correlations, band_fractions, max_rounds)
    if include_sim:
        rows.extend(
            _sim_rows(
                params,
                correlations[0],
                sim_cheater_fractions,
                visit_rate=sim_visit_rate,
                t_end=sim_t_end,
                warmup=sim_warmup,
                seed=seed,
            )
        )
    table = format_table(
        headers,
        rows,
        title="Adapt mechanism study (fluid fixed-point + per-peer simulation)",
    )
    notes = (
        "Narrow dead bands let net contributors ratchet rho upward (toward the "
        "MFCD regime); wide bands keep the rho=0 collaborative optimum.  "
        "Cheaters raise obedient peers' imbalance and degrade the average "
        "online time, as Sec. 4.3 anticipates."
    )
    return ExperimentResult(
        experiment_id="adapt",
        title="Adapt mechanism parameter study (paper future work)",
        headers=headers,
        rows=tuple(rows),
        rendered=f"{table}\n\n{notes}",
        notes=notes,
    )
