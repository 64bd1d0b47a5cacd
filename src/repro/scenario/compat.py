"""The legacy flat config surfaces, rebuilt on the shared schema helpers.

Before the scenario DSL there were three independent config surfaces:

* the flat simulator JSON of ``python -m repro simulate``,
* the chunk engine's :class:`~repro.chunks.config.ChunkSwarmConfig`
  keyword plumbing,
* ad-hoc driver kwargs.

This module keeps the first two alive on top of the *one* validation and
serialisation layer (:mod:`repro.scenario.schema`), so every rejection is
path-qualified and the allowed-key sets are derived from the dataclasses
themselves -- they can no longer drift from the configs they describe.
``ScenarioConfig`` carries no engine toggles, so the flat document has
none either: the DES oracles are test-facing hooks in
:mod:`repro.sim.reference`, and a document naming one of the toggle keys
removed in 1.12.0 is rejected as an unknown key.
"""

from __future__ import annotations

import dataclasses
import typing
from pathlib import Path
from typing import Any, Mapping

from repro.chunks.config import ChunkSwarmConfig
from repro.core.adapt import AdaptPolicy
from repro.core.correlation import CorrelationModel
from repro.core.parameters import FluidParameters
from repro.core.schemes import Scheme
from repro.scenario.loader import read_document
from repro.scenario.schema import SpecError, check_keys, coerce_value, from_mapping
from repro.sim.metrics import SimulationSummary
from repro.sim.scenarios import ScenarioConfig

__all__ = [
    "chunk_config_from_dict",
    "load_sim_config",
    "sim_config_from_dict",
    "summary_to_dict",
]

#: every ScenarioConfig field is reachable from the document -- the allowed
#: set is derived, so adding a config field automatically extends the schema
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)}
_SCENARIO_KEYS = (_CONFIG_FIELDS - {"correlation"}) | {"workload"}
_SCALAR_KEYS = _CONFIG_FIELDS - {"scheme", "params", "correlation", "adapt"}
_WORKLOAD_KEYS = {"p", "visit_rate"}


def sim_config_from_dict(doc: Mapping[str, Any]) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` from the flat simulator document.

    The schema mirrors ``ScenarioConfig`` field-for-field with nested
    ``params`` / ``workload`` / ``adapt`` objects; unknown keys and wrong
    types are rejected with path-qualified errors ("scenario.params: ...").
    """
    check_keys(doc, _SCENARIO_KEYS, "scenario")
    if "scheme" not in doc:
        raise SpecError("scenario", "needs a 'scheme' (MTCD/MTSD/MFCD/CMFSD)")
    scheme = coerce_value(doc["scheme"], Scheme, "scenario.scheme")

    params = from_mapping(
        FluidParameters, dict(doc.get("params", {})), "scenario.params"
    )

    workload = dict(doc.get("workload", {}))
    check_keys(workload, _WORKLOAD_KEYS, "scenario.workload")
    if "p" not in workload:
        raise SpecError("scenario.workload", "needs a correlation 'p'")
    try:
        correlation = CorrelationModel(num_files=params.num_files, **workload)
    except ValueError as exc:
        raise SpecError("scenario.workload", str(exc)) from None

    hints = typing.get_type_hints(ScenarioConfig)
    kwargs: dict[str, Any] = {
        key: coerce_value(doc[key], hints[key], f"scenario.{key}")
        for key in _SCALAR_KEYS
        if key in doc
    }
    if doc.get("adapt") is not None:
        kwargs["adapt"] = from_mapping(
            AdaptPolicy, dict(doc["adapt"]), "scenario.adapt"
        )
    try:
        return ScenarioConfig(
            scheme=scheme, params=params, correlation=correlation, **kwargs
        )
    except ValueError as exc:
        raise SpecError("scenario", str(exc)) from None


def load_sim_config(path: str | Path) -> ScenarioConfig:
    """Read a flat simulator scenario file (JSON, or YAML when available)."""
    return sim_config_from_dict(read_document(path))


def chunk_config_from_dict(doc: Mapping[str, Any]) -> ChunkSwarmConfig:
    """Build a :class:`ChunkSwarmConfig` from a plain dict, strictly.

    Replaces the ad-hoc ``ChunkSwarmConfig(**doc)`` plumbing: unknown keys
    and wrong types get path-qualified errors instead of TypeErrors.
    """
    return from_mapping(ChunkSwarmConfig, doc, "chunks")


def summary_to_dict(summary: SimulationSummary) -> dict[str, Any]:
    """Serialise a run summary for JSON output (NaNs become None)."""

    def clean(x: float) -> float | None:
        return None if x != x else float(x)

    return {
        "n_users_completed": summary.n_users_completed,
        "avg_online_time_per_file": clean(summary.avg_online_time_per_file),
        "avg_download_time_per_file": clean(summary.avg_download_time_per_file),
        "online_time_per_file_by_class": [
            clean(v) for v in summary.online_time_per_file_by_class
        ],
        "download_time_per_file_by_class": [
            clean(v) for v in summary.download_time_per_file_by_class
        ],
        "entry_download_time_by_class": [
            clean(v) for v in summary.entry_download_time_by_class
        ],
        "class_counts": [int(v) for v in summary.class_counts],
    }
