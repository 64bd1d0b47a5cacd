"""Packaging sanity: metadata, entry points and public surface."""

from __future__ import annotations

from pathlib import Path

import repro

REPO = Path(__file__).resolve().parent.parent


class TestPackaging:
    def test_version_consistent_with_pyproject(self):
        pyproject = (REPO / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject

    def test_console_script_declared(self):
        pyproject = (REPO / "pyproject.toml").read_text()
        assert 'repro-bt = "repro.cli:main"' in pyproject

    def test_py_typed_marker_ships(self):
        assert (REPO / "src" / "repro" / "py.typed").exists()
        pyproject = (REPO / "pyproject.toml").read_text()
        assert "py.typed" in pyproject

    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE",
                     "CHANGELOG.md", "docs/API.md"):
            assert (REPO / name).exists(), name

    def test_examples_present_and_runnable_syntax(self):
        examples = sorted((REPO / "examples").glob("*.py"))
        assert len(examples) >= 3
        for path in examples:
            compile(path.read_text(), str(path), "exec")

    def test_top_level_api_surface(self):
        # The quickstart names from the README must exist.
        for name in (
            "PAPER_PARAMETERS",
            "CorrelationModel",
            "Scheme",
            "compare_schemes",
            "CMFSDModel",
            "AdaptPolicy",
        ):
            assert hasattr(repro, name), name

    def test_main_module_invocable(self):
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert out.returncode == 0
        assert "figure2" in out.stdout

    def test_reference_drivers_stay_out_of_production_imports(self):
        import os
        import subprocess
        import sys

        code = (
            "import sys, repro, repro.cli, repro.experiments, repro.runner, "
            "repro.scenario, repro.service, repro.ode; "
            "assert not hasattr(repro.ode, 'find_steady_state'); "
            "print('repro.ode.reference' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"
