"""End-to-end spec driving: run_spec, register_experiment(spec=...), CLI.

Uses deliberately tiny specs (small swarms, short horizons) so the whole
file stays in tier-1 time budget.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.schemes import Scheme
from repro.experiments import (
    REGISTRY,
    format_experiment_table,
    get_experiment,
    list_experiments,
    register_experiment,
)
from repro.scenario import (
    ChunkSpec,
    ScenarioSpec,
    StreamingSpec,
    TierSpec,
    WorkloadSpec,
    compile_sim,
    run_spec,
    spec_experiment_id,
    spec_from_dict,
    spec_to_dict,
)
from repro.sim.metrics import summary_to_dict
from repro.sim.scenarios import run_scenario


def tiny_chunk_spec(**chunk_overrides) -> ScenarioSpec:
    chunks = dict(n_chunks=10, n_peers=4, n_seeds=1)
    chunks.update(chunk_overrides)
    return ScenarioSpec(
        scheme=Scheme.MTSD,
        workload=WorkloadSpec(p=1.0),
        name="tiny",
        chunks=ChunkSpec(**chunks),
    )


class TestRunSpec:
    def test_chunk_spec_runs(self):
        result = run_spec(tiny_chunk_spec())
        assert result.experiment_id == "tiny"
        assert ("rounds" in dict(result.rows)) or result.rows

    def test_streaming_spec_has_miss_rate_figure(self):
        spec = ScenarioSpec(
            scheme=Scheme.MTSD,
            workload=WorkloadSpec(p=1.0),
            chunks=ChunkSpec(n_chunks=10, n_peers=4),
            streaming=StreamingSpec(playback_rate=0.01),
        )
        result = run_spec(spec, experiment_id="stream")
        assert result.figures and result.figures[0].name == "miss_rate"
        assert result.headers == ("startup_delay", "miss_rate")
        for _, miss in result.rows:
            assert 0.0 <= miss <= 1.0

    def test_tier_spec_reports_per_tier_times(self):
        spec = ScenarioSpec(
            scheme=Scheme.MTSD,
            workload=WorkloadSpec(p=0.8, visit_rate=0.5),
            tiers=(
                TierSpec(name="fast", upload=0.04, download=0.2, share=0.5),
                TierSpec(name="slow", upload=0.01, download=0.05, share=0.5),
            ),
        )
        result = run_spec(spec, experiment_id="tiered")
        times = {row[0]: row[-1] for row in result.rows}
        assert times["fast"] < times["slow"]

    def test_experiment_id_fallbacks(self):
        assert spec_experiment_id(tiny_chunk_spec()) == "tiny"
        anon = ScenarioSpec(scheme=Scheme.MTSD, workload=WorkloadSpec(p=0.5))
        assert spec_experiment_id(anon, fallback="from-path") == "from-path"


@pytest.fixture
def registry_snapshot():
    snapshot = dict(REGISTRY)
    yield
    REGISTRY.clear()
    REGISTRY.update(snapshot)


class TestRegisterSpec:
    def test_register_spec_file(self, tmp_path, registry_snapshot):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(spec_to_dict(tiny_chunk_spec())))
        register_experiment("tiny_spec", spec=path)
        driver = get_experiment("tiny_spec")
        result = driver()
        assert result.experiment_id == "tiny_spec"
        # the spec's description (empty here) falls back to the file name
        assert dict(list_experiments())["tiny_spec"] == "scenario spec tiny.json"

    def test_spec_validated_at_registration(self, tmp_path, registry_snapshot):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scheme": "WARP"}))
        with pytest.raises(ValueError, match="unknown Scheme"):
            register_experiment("bad_spec", spec=path)
        assert "bad_spec" not in REGISTRY

    def test_driver_and_spec_are_exclusive(self, tmp_path, registry_snapshot):
        with pytest.raises(ValueError, match="exactly one"):
            register_experiment("nothing")
        with pytest.raises(ValueError, match="exactly one"):
            register_experiment("both", lambda: None, spec=tmp_path / "x.json")

    def test_registered_spec_shows_in_table(self, tmp_path, registry_snapshot):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(spec_to_dict(tiny_chunk_spec())))
        register_experiment("tiny_spec", spec=path, description="tiny demo")
        assert "tiny_spec" in format_experiment_table()
        assert "tiny demo" in format_experiment_table()


class TestFormatExperimentTable:
    def test_matches_registry(self):
        table = format_experiment_table()
        for eid, desc in list_experiments():
            assert eid in table
            if desc:
                assert desc in table

    def test_list_command_uses_it(self, capsys):
        assert main(["list"]) == 0
        assert capsys.readouterr().out.strip() == format_experiment_table()

    def test_run_help_embeds_it(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        out = capsys.readouterr().out
        assert "available experiments:" in out
        assert "deadlines" in out and "tiers" in out


class TestScenarioCLI:
    def test_run_scenario_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(spec_to_dict(tiny_chunk_spec())))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out
        assert (tmp_path / "tiny.csv").exists()

    def test_run_scenario_streaming_writes_figure(self, tmp_path, capsys):
        spec = ScenarioSpec(
            scheme=Scheme.MTSD,
            workload=WorkloadSpec(p=1.0),
            name="stream",
            chunks=ChunkSpec(n_chunks=10, n_peers=4),
            streaming=StreamingSpec(playback_rate=0.01),
        )
        path = tmp_path / "stream.json"
        path.write_text(json.dumps(spec_to_dict(spec)))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "stream_miss_rate.svg").exists()

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scheme": "WARP", "workload": {"p": 0.5}}))
        assert main(["run", "--scenario", str(path)]) == 2
        assert "bad scenario" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["run", "--scenario", "/no/such/spec.yaml"]) == 2
        assert "bad scenario" in capsys.readouterr().err

    def test_experiment_and_scenario_conflict(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(spec_to_dict(tiny_chunk_spec())))
        assert main(["run", "eta", "--scenario", str(path)]) == 2
        assert "not both" in capsys.readouterr().err

    def test_run_without_experiment_exits_2(self, capsys):
        assert main(["run"]) == 2
        assert "--scenario" in capsys.readouterr().err


def sim_doc(**overrides):
    """A small DSL document for short flow-level simulator runs."""
    doc = {
        "scheme": "MTSD",
        "params": {"num_files": 3},
        "workload": {"p": 0.6, "visit_rate": 0.4},
        "sim": {"t_end": 800, "warmup": 200, "seed": 5},
    }
    doc.update(overrides)
    return doc


class TestSummaryToDict:
    def test_summary_serialises_with_nans_as_none(self):
        # at p = 1 every user requests all three files: classes 1 and 2 stay
        # empty and their per-class times are NaN
        doc = sim_doc(workload={"p": 1.0, "visit_rate": 0.4})
        summary = run_scenario(compile_sim(spec_from_dict(doc)))
        out = summary_to_dict(summary)
        json.dumps(out, allow_nan=False)  # must be strict-JSON safe
        assert out["online_time_per_file_by_class"][:2] == [None, None]
        assert out["class_counts"] == [0, 0, summary.n_users_completed]
        assert out["avg_online_time_per_file"] == pytest.approx(
            summary.avg_online_time_per_file
        )


class TestSimulateCLI:
    def write(self, tmp_path, doc):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_table_output(self, tmp_path, capsys):
        assert main(["simulate", self.write(tmp_path, sim_doc())]) == 0
        out = capsys.readouterr().out
        assert "MTSD scenario" in out
        assert "avg online time / file" in out

    def test_json_output(self, tmp_path, capsys):
        assert main(["simulate", self.write(tmp_path, sim_doc()), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_users_completed"] > 0

    def test_yaml_scenario(self, tmp_path, capsys):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "s.yaml"
        path.write_text(yaml.safe_dump(sim_doc()))
        assert main(["simulate", str(path)]) == 0
        assert "MTSD scenario" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["simulate", "/no/such/file.json"]) == 2
        assert "bad scenario" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_schema_error(self, tmp_path, capsys):
        assert main(["simulate", self.write(tmp_path, sim_doc(scheme="WARP"))]) == 2
        assert "scheme: unknown Scheme" in capsys.readouterr().err

    def test_tiered_spec_exits_2(self, tmp_path, capsys):
        tiers = [{"name": "all", "upload": 0.02, "download": 0.2, "share": 1.0}]
        path = self.write(tmp_path, sim_doc(tiers=tiers))
        assert main(["simulate", path]) == 2
        assert "bad scenario: tiers:" in capsys.readouterr().err

    def test_flat_document_exits_2(self, tmp_path, capsys):
        """The flat simulator document of releases before 1.23 (``t_end``
        and ``seed`` at the root) is rejected, naming the first unknown key."""
        flat = {
            "scheme": "MTSD",
            "workload": {"p": 0.6},
            "t_end": 800,
            "seed": 5,
        }
        assert main(["simulate", self.write(tmp_path, flat)]) == 2
        assert "unknown keys ['seed', 't_end']" in capsys.readouterr().err
