"""Every shipped example spec must load, validate and compile.

Parametrised over ``examples/*.yaml`` and ``examples/*.json`` so adding a
broken example fails tier-1 immediately; the compile probe uses ``supported_backends`` (which
exercises every compiler) rather than running the scenario, keeping this
file fast.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.scenario import load_spec, spec_from_dict, spec_to_dict, supported_backends

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLE_DOCS = sorted(EXAMPLES_DIR.glob("*.yaml")) + sorted(
    EXAMPLES_DIR.glob("*.json")
)

pytestmark = pytest.mark.skipif(not EXAMPLE_DOCS, reason="no example docs shipped")


def test_examples_exist():
    names = {p.name for p in EXAMPLE_DOCS}
    assert {"tiers.yaml", "deadlines.yaml"} <= names


@pytest.mark.parametrize("path", EXAMPLE_DOCS, ids=lambda p: p.name)
def test_example_loads_and_compiles(path):
    pytest.importorskip("yaml")
    loaded = load_spec(path)
    assert supported_backends(loaded), f"{path.name} compiles to no backend"
    # Examples are reference documents: they must survive the round trip.
    assert spec_from_dict(spec_to_dict(loaded)) == loaded


@pytest.mark.parametrize("path", EXAMPLE_DOCS, ids=lambda p: p.name)
def test_dsl_examples_are_named_and_described(path):
    pytest.importorskip("yaml")
    loaded = load_spec(path)
    assert loaded.name, f"{path.name} should set a name"
    assert loaded.description, f"{path.name} should set a description"
