"""Unit tests for the bench-results writer (benchmarks/conftest.py)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_conftest",
    Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py",
)
bench_conftest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_conftest)


def _record(wall: float) -> dict:
    return {"wall_clock_s": wall, "max_rss_kb": 1, "rss_growth_kb": 0, "counters": {}}


class TestWriteResults:
    def test_merges_by_test_id_and_this_session_wins(self, tmp_path):
        path = tmp_path / "BENCH_results.json"
        bench_conftest.write_results(path, {"a": _record(1.0), "b": _record(2.0)}, 0)
        bench_conftest.write_results(path, {"b": _record(3.0), "c": _record(4.0)}, 1)
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-bt/bench-results/v1"
        assert payload["exit_status"] == 1
        walls = {k: v["wall_clock_s"] for k, v in payload["results"].items()}
        assert walls == {"a": 1.0, "b": 3.0, "c": 4.0}
        assert list(payload["results"]) == ["a", "b", "c"]

    def test_missing_or_unreadable_file_starts_fresh(self, tmp_path):
        path = tmp_path / "BENCH_results.json"
        bench_conftest.write_results(path, {"a": _record(1.0)}, 0)
        assert list(json.loads(path.read_text())["results"]) == ["a"]
        path.write_text("{not json")
        bench_conftest.write_results(path, {"b": _record(2.0)}, 0)
        assert list(json.loads(path.read_text())["results"]) == ["b"]


class TestStaleIds:
    """A recorded id is dropped only when its file was collected this
    session and the id itself was neither run nor deselected."""

    SOLVERS = "benchmarks/test_bench_solvers.py::test_steady"
    CHUNKS = "benchmarks/test_bench_chunks.py::test_round"

    def _baseline(self, tmp_path) -> Path:
        path = tmp_path / "BENCH_results.json"
        bench_conftest.write_results(
            path,
            {
                f"{self.SOLVERS}[anderson]": _record(1.0),
                f"{self.SOLVERS}[newton]": _record(2.0),
                f"{self.CHUNKS}[dense]": _record(3.0),
            },
            0,
        )
        return path

    @staticmethod
    def _ids(path: Path) -> list[str]:
        return list(json.loads(path.read_text())["results"])

    def test_full_session_drops_ids_that_no_longer_exist(self, tmp_path):
        path = self._baseline(tmp_path)
        ran = {
            f"{self.SOLVERS}[ptc]": _record(4.0),
            f"{self.CHUNKS}[dense]": _record(5.0),
        }
        bench_conftest.write_results(path, ran, 0, set(ran))
        assert self._ids(path) == [f"{self.CHUNKS}[dense]", f"{self.SOLVERS}[ptc]"]

    def test_keyword_filtered_session_keeps_deselected_ids(self, tmp_path):
        path = self._baseline(tmp_path)
        ran = {f"{self.SOLVERS}[ptc]": _record(4.0)}
        deselected = {f"{self.SOLVERS}[newton]", f"{self.CHUNKS}[dense]"}
        bench_conftest.write_results(path, ran, 0, set(ran) | deselected)
        assert self._ids(path) == [
            f"{self.SOLVERS}[newton]",
            f"{self.CHUNKS}[dense]",
            f"{self.SOLVERS}[ptc]",
        ]

    def test_single_file_session_keeps_other_files(self, tmp_path):
        path = self._baseline(tmp_path)
        ran = {f"{self.CHUNKS}[sparse]": _record(6.0)}
        bench_conftest.write_results(path, ran, 0, set(ran))
        assert self._ids(path) == [
            f"{self.SOLVERS}[anderson]",
            f"{self.SOLVERS}[newton]",
            f"{self.CHUNKS}[sparse]",
        ]
