"""Tests for flat scenario loading and the `simulate` CLI command.

The flat simulator document format lives in :mod:`repro.scenario.compat`
(built on the DSL's schema machinery, so errors are path-qualified).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.schemes import Scheme
from repro.scenario import SpecError, sim_config_from_dict, summary_to_dict
from repro.sim.scenarios import run_scenario
from repro.sim.swarm import SeedPolicy


def minimal_doc(**overrides):
    doc = {
        "scheme": "MTSD",
        "params": {"num_files": 3},
        "workload": {"p": 0.6, "visit_rate": 0.4},
        "t_end": 800,
        "warmup": 200,
        "seed": 5,
    }
    doc.update(overrides)
    return doc


class TestSimConfigFromDict:
    def test_minimal(self):
        config = sim_config_from_dict(minimal_doc())
        assert config.scheme is Scheme.MTSD
        assert config.params.num_files == 3
        assert config.correlation.p == 0.6
        assert config.t_end == 800

    def test_scheme_case_insensitive(self):
        config = sim_config_from_dict(minimal_doc(scheme="cmfsd"))
        assert config.scheme is Scheme.CMFSD

    def test_adapt_block(self):
        doc = minimal_doc(
            scheme="CMFSD",
            adapt={"phi_increase": 0.01, "phi_decrease": -0.01, "patience": 2},
        )
        config = sim_config_from_dict(doc)
        assert config.adapt is not None
        assert config.adapt.patience == 2

    def test_seed_policy_string(self):
        doc = minimal_doc(scheme="CMFSD", seed_policy="subtorrent")
        config = sim_config_from_dict(doc)
        assert config.seed_policy is SeedPolicy.SUBTORRENT

    @pytest.mark.parametrize(
        "mutation, match",
        [
            ({"scheme": "WARP"}, r"scenario\.scheme: unknown Scheme"),
            ({"bogus_key": 1}, r"scenario: unknown keys \['bogus_key'\]"),
            ({"params": {"mu": 0.02, "warp": 9}}, r"scenario\.params: unknown keys"),
            ({"workload": {"p": 0.5, "warp": 9}}, r"scenario\.workload: unknown keys"),
            ({"seed_policy": "warp"}, r"scenario\.seed_policy: unknown SeedPolicy"),
            ({"adapt": {"warp": 1}, "scheme": "CMFSD"}, r"scenario\.adapt: unknown keys"),
            ({"t_end": "soon"}, r"scenario\.t_end: expected a number"),
            # the engine toggles removed in 1.12.0 (oracles are test hooks)
            (
                {"incremental_rates": False},
                r"scenario: unknown keys \['incremental_rates'\]",
            ),
            (
                {"incremental_dispatch": False},
                r"scenario: unknown keys \['incremental_dispatch'\]",
            ),
            (
                {"deferred_integration": False},
                r"scenario: unknown keys \['deferred_integration'\]",
            ),
        ],
    )
    def test_rejects_typos_with_paths(self, mutation, match):
        with pytest.raises(SpecError, match=match):
            sim_config_from_dict(minimal_doc(**mutation))

    def test_allowed_keys_track_the_dataclass(self):
        """The allowed-key set is derived from ScenarioConfig, not hardcoded."""
        with pytest.raises(SpecError, match="neighbor_limit") as err:
            sim_config_from_dict(minimal_doc(bogus_key=1))
        assert "allowed:" in str(err.value)

    def test_missing_scheme(self):
        doc = minimal_doc()
        del doc["scheme"]
        with pytest.raises(SpecError, match="needs a 'scheme'"):
            sim_config_from_dict(doc)

    def test_missing_p(self):
        with pytest.raises(SpecError, match="correlation 'p'"):
            sim_config_from_dict(minimal_doc(workload={"visit_rate": 1.0}))


class TestSummaryRoundTrip:
    def test_summary_serialises_with_nans_as_none(self):
        config = sim_config_from_dict(minimal_doc())
        summary = run_scenario(config)
        doc = summary_to_dict(summary)
        json.dumps(doc)  # must be JSON-safe
        assert doc["n_users_completed"] == summary.n_users_completed
        assert doc["avg_online_time_per_file"] == pytest.approx(
            summary.avg_online_time_per_file
        )


class TestSimulateCLI:
    def test_table_output(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_doc()))
        assert main(["simulate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "MTSD scenario" in out
        assert "avg online time / file" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_doc()))
        assert main(["simulate", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_users_completed"] > 0

    def test_yaml_scenario(self, tmp_path, capsys):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "s.yaml"
        path.write_text(yaml.safe_dump(minimal_doc()))
        assert main(["simulate", str(path)]) == 0
        assert "MTSD scenario" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["simulate", "/no/such/file.json"]) == 2
        assert "bad scenario" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", str(path)]) == 2

    def test_schema_error(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_doc(scheme="WARP")))
        assert main(["simulate", str(path)]) == 2
        assert "unknown Scheme" in capsys.readouterr().err
