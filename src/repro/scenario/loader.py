"""Reading and writing scenario specs as YAML or JSON documents.

The on-disk format is chosen by suffix: ``.yaml``/``.yml`` parse with
PyYAML (``safe_load``) and ``.json`` with the stdlib.  YAML support
degrades gracefully -- when PyYAML is absent, JSON specs keep working and
YAML paths raise a clear error instead of an ImportError at import time.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.scenario.schema import SpecError
from repro.scenario.spec import ScenarioSpec, spec_from_dict, spec_to_dict

try:  # gate the optional dependency; everything else works without it
    import yaml as _yaml
except ImportError:  # pragma: no cover - the test image ships PyYAML
    _yaml = None

__all__ = ["load_spec", "save_spec", "dump_spec"]

_YAML_SUFFIXES = (".yaml", ".yml")


def load_spec(path: str | Path) -> ScenarioSpec:
    """Read and validate a scenario spec file (YAML or JSON by suffix)."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() in _YAML_SUFFIXES:
        if _yaml is None:  # pragma: no cover - the test image ships PyYAML
            raise SpecError(
                str(path), "PyYAML is not installed; use a .json spec instead"
            )
        return spec_from_dict(_yaml.safe_load(text))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(str(path), f"invalid JSON: {exc}") from None
    return spec_from_dict(doc)


def dump_spec(spec: ScenarioSpec, *, fmt: str = "yaml") -> str:
    """Render a spec as a document string (``fmt`` = ``"yaml"``/``"json"``)."""
    doc = spec_to_dict(spec)
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt != "yaml":
        raise ValueError(f"fmt must be 'yaml' or 'json', got {fmt!r}")
    if _yaml is None:  # pragma: no cover - the test image ships PyYAML
        raise SpecError("", "PyYAML is not installed; use fmt='json'")
    return _yaml.safe_dump(doc, sort_keys=True, default_flow_style=False)


def save_spec(spec: ScenarioSpec, path: str | Path) -> Path:
    """Write a spec to disk in the format implied by the suffix."""
    path = Path(path)
    fmt = "yaml" if path.suffix.lower() in _YAML_SUFFIXES else "json"
    path.write_text(dump_spec(spec, fmt=fmt))
    return path
