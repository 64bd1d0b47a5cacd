"""Tier-1 guard: --profile/--trace must not change the numeric outputs.

Observability is only trustworthy if turning it on is free of side effects;
these tests pin the byte-identity contract the CLI documents.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import validate_chrome_trace

# Fast experiments covering closed-form and ODE-solved paths.
IDS = ["table1", "figure4bc"]


@pytest.fixture()
def run_cli(tmp_path, capsys):
    """Run ``repro run`` for IDS with extra flags; return the CSV bytes."""

    def _run(*extra: str) -> dict[str, bytes]:
        out = tmp_path / ("-".join(extra) or "plain")
        for eid in IDS:
            assert main(["run", eid, "--out", str(out), "--no-cache", *extra]) == 0
        capsys.readouterr()  # keep reports out of the test log
        return {eid: (out / f"{eid}.csv").read_bytes() for eid in IDS}

    return _run


class TestProfileGuard:
    def test_profile_leaves_csvs_byte_identical(self, run_cli):
        assert run_cli() == run_cli("--profile")

    def test_trace_leaves_csvs_byte_identical(self, run_cli, tmp_path):
        trace = tmp_path / "trace.json"
        assert run_cli() == run_cli("--trace", str(trace))
        validate_chrome_trace(json.loads(trace.read_text()))

    def test_profile_prints_metrics_table_on_stderr(self, tmp_path, capsys):
        assert (
            main(
                [
                    "run",
                    "figure4bc",
                    "--out",
                    str(tmp_path),
                    "--no-cache",
                    "--profile",
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "profile" in err
        assert "core.cmfsd.root.solves" in err
        assert "runner.experiments" in err

    def test_trace_flag_writes_perfetto_loadable_json(self, tmp_path, capsys):
        trace = tmp_path / "deep" / "trace.json"
        assert (
            main(
                [
                    "run",
                    "figure4bc",
                    "--out",
                    str(tmp_path),
                    "--no-cache",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "[trace]" in err
        payload = json.loads(trace.read_text())
        validate_chrome_trace(payload)
        assert payload["traceEvents"]
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"runner.run_experiments", "runner.experiment"} <= names
