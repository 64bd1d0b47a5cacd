"""The benchmark's own tests, at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

Every workload runs end to end (untraced and traced) and prints every
metric with its unit; every output check passes on real output and fires
on a corrupted one.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import checks, loadgen, workloads  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    THROUGHPUT_NAMES,
    WORKLOADS,
    percentile,
)


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert set(THROUGHPUT_NAMES) == set(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_prints_every_metric(workload, trace):
    done = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--size", "tiny"
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = PER_LAYER if trace == "1" else END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in table]
    for name, unit, _ in table:
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], float)
        assert any(line.split()[:1] == [name] and unit in line.split() for line in lines), name
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        rate, latency = THROUGHPUT_NAMES[workload]
        assert any(f"[diag] {rate} " in line for line in lines)
        assert any(f"[diag] {latency} " in line for line in lines)
        assert any("[diag] error_rate " in line for line in lines)
    else:
        assert result["metrics"]["wall_s"]["value"] > 0
        assert (ROOT / ".perfbench" / "traces" / f"{workload}-seed3.json").is_file()


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fluid_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout == ""


# ----- fluid_sweep checks -------------------------------------------------------------


@pytest.fixture(scope="module")
def fluid_pairs():
    from repro.core.cmfsd import CMFSDModel, steady_state_path
    from repro.core.correlation import CorrelationModel
    from repro.core.parameters import PAPER_PARAMETERS

    params = PAPER_PARAMETERS.with_(num_files=3)
    corr = CorrelationModel(num_files=3, p=0.5)
    models = [CMFSDModel.from_correlation(params, corr, rho=r) for r in (0.0, 0.5, 1.0)]
    return list(zip(models, steady_state_path(models)))


def _perturbed(pairs):
    model, steady = pairs[1]
    bumped = dataclasses.replace(steady, state=steady.state * 1.01)
    return [pairs[0], (model, bumped), pairs[2]]


def test_steady_state_residual_check(fluid_pairs):
    assert checks.check_steady_states(fluid_pairs, 1e-10) == (3, [])
    made, failures = checks.check_steady_states(_perturbed(fluid_pairs), 1e-10)
    assert made == 3 and len(failures) == 1 and "residual" in failures[0]


def test_cold_agreement_check(fluid_pairs):
    assert checks.check_cold_agreement(fluid_pairs) == (3, [])
    made, failures = checks.check_cold_agreement(_perturbed(fluid_pairs))
    assert len(failures) == 1 and "cold" in failures[0]


# ----- des_swarm checks ---------------------------------------------------------------


@pytest.fixture(scope="module")
def cmfsd_leg():
    from repro.core import Scheme
    from repro.core.cmfsd import CMFSDModel
    from repro.core.correlation import CorrelationModel
    from repro.core.parameters import PAPER_PARAMETERS as params
    from repro.sim import ScenarioConfig, build_simulation

    corr = CorrelationModel(num_files=params.num_files, p=0.9, visit_rate=1.0)
    config = ScenarioConfig(
        scheme=Scheme.CMFSD, params=params, correlation=corr, t_end=1500.0, warmup=500.0,
        rho=0.5, seed=5,
    )  # fmt: skip
    system, arrivals = build_simulation(config)
    system.start_sampler(config.sample_interval, config.t_end)
    arrivals.start()
    system.run_until(config.t_end)
    system.sync_accounting()
    summary = system.metrics.summarize(warmup=config.warmup, horizon=config.t_end)
    fluid = CMFSDModel.from_correlation(params, corr, rho=0.5).system_metrics()
    expected = {"avg_online_time_per_file": fluid.avg_online_time_per_file}
    return system, summary, expected


def test_des_checks_pass_on_real_output(cmfsd_leg):
    system, summary, expected = cmfsd_leg
    made, failures = checks.check_des_leg("cmfsd", system, summary, expected, (500.0, 1500.0), 50)
    assert made >= 3 and failures == []


def test_des_fluid_check_fires(cmfsd_leg):
    system, summary, expected = cmfsd_leg
    slow = dataclasses.replace(
        summary, avg_online_time_per_file=summary.avg_online_time_per_file * 1.2
    )
    _, failures = checks.check_des_leg("cmfsd", system, slow, expected, (500.0, 1500.0), 50)
    assert any("avg_online_time_per_file" in f for f in failures)


def test_des_littles_law_check_fires(cmfsd_leg):
    system, summary, expected = cmfsd_leg
    crowded = dataclasses.replace(
        summary, mean_downloaders={k: v * 1.5 for k, v in summary.mean_downloaders.items()}
    )
    _, failures = checks.check_des_leg("cmfsd", system, crowded, expected, (500.0, 1500.0), 50)
    assert failures and all("Little's law" in f for f in failures)


def test_des_conservation_check_fires(cmfsd_leg):
    system, summary, expected = cmfsd_leg
    user, behavior = next(iter(system.behaviors.items()))
    del system.behaviors[user]
    try:
        _, failures = checks.check_des_leg("cmfsd", system, summary, expected, (500.0, 1500.0), 50)
    finally:
        system.behaviors[user] = behavior
    assert any("arrivals" in f for f in failures)


# ----- chunk_flashcrowd checks --------------------------------------------------------


def _finished_swarm():
    from repro.chunks import ChunkSwarm, ChunkSwarmConfig

    swarm = ChunkSwarm(ChunkSwarmConfig(n_chunks=8), seed=2)
    swarm.add_peers(1, is_seed=True)
    swarm.add_peers(12)
    swarm.run()
    return swarm


def test_chunk_checks_pass_on_real_output():
    assert checks.check_chunk_run(_finished_swarm(), 12) == (3, [])


def test_chunk_capacity_and_eta_checks_fire():
    swarm = _finished_swarm()
    swarm.downloader_useful = swarm.downloader_capacity * 1.5
    _, failures = checks.check_chunk_run(swarm, 12)
    assert any("exceed capacity" in f for f in failures)
    assert any("eta" in f for f in failures)


def test_chunk_unfinished_leecher_check_fires():
    swarm = _finished_swarm()
    swarm.add_peer()
    _, failures = checks.check_chunk_run(swarm, 13)
    assert failures == ["12 of 13 leechers finished"]


# ----- live_service checks ------------------------------------------------------------


@pytest.fixture()
def sealed_journal(tmp_path):
    from repro.scenario import load_spec
    from repro.service import JournalWriter, LiveEvent, ServiceCore

    journal = tmp_path / "journal.ndjson"
    core = ServiceCore(load_spec(workloads.LIVE_SPEC), journal=JournalWriter(journal))
    core.start()
    spawned = []
    for k in range(1, 40):
        core.advance(500.0 + 10.0 * k)  # past the spec's warm-up, so the summary sees it
        if k % 3:
            spawned.append(core.apply(LiveEvent.arrival())["user_id"])
        else:
            assert not core.apply(LiveEvent.rho_change(spawned[-1], 0.25)).get("stale")
    core.finish()
    return journal, core


def _live_result(journal, core) -> dict:
    return {
        "accepted": core.events_applied,
        "applied": core.events_applied,
        "journal_events": workloads.journal_events(journal),
        "live_digest": core.digest,
        "plan_digest": core.digest,
        "effects": {"arrival": {"sent": 26, "acted": 26}, "rho_change": {"sent": 13, "acted": 13}},
        "virtual_time": core.now,
        "lateness_p99_s": 0.001,
        **workloads.replay(journal),
    }


def test_live_checks_pass_on_a_real_journal(sealed_journal):
    result = _live_result(*sealed_journal)
    assert result["replay_events"] == 39
    assert checks.check_live_run(result, t_end=4000.0, lateness_limit_s=0.05) == (6, [])


def test_live_replay_check_fires_on_a_tampered_journal(sealed_journal):
    journal, core = sealed_journal
    lines = journal.read_text().splitlines()
    tampered = [
        line.replace('"rho": 0.25', '"rho": 0.75') if '"rho_change"' in line else line
        for line in lines
    ]
    assert tampered != lines
    journal.write_text("\n".join(tampered) + "\n")
    _, failures = checks.check_live_run(
        _live_result(journal, core), t_end=4000.0, lateness_limit_s=0.05
    )
    assert len(failures) == 1 and "replay digest" in failures[0]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("applied", 38, "differ"),
        ("plan_digest", "0" * 64, "planned digest"),
        ("effects", {"departure": {"sent": 5, "acted": 4}}, "did not act"),
        ("virtual_time", 4000.0, "t_end"),
        ("lateness_p99_s", 0.2, "late"),
    ],
)
def test_live_checks_fire(sealed_journal, field, value, message):
    result = _live_result(*sealed_journal)
    result[field] = value
    _, failures = checks.check_live_run(result, t_end=4000.0, lateness_limit_s=0.05)
    assert len(failures) == 1 and message in failures[0]


def test_live_plan_is_deterministic_and_every_event_acts():
    plan = loadgen.plan_requests(workloads.LIVE_SPEC, 7, rate=200.0, phases=[300, 200])
    assert plan == loadgen.plan_requests(workloads.LIVE_SPEC, 7, rate=200.0, phases=[300, 200])
    assert plan["phases"] != loadgen.plan_requests(
        workloads.LIVE_SPEC, 8, rate=200.0, phases=[300, 200]
    )["phases"]
    kinds = [kind for _, kind in plan["phases"][0]]
    assert kinds.count("summary") == 1 and kinds.count("stats") == 15
    effects = plan["effects"]
    assert sum(e["sent"] for e in effects.values()) == kinds.count("event") + 190
    assert all(e["sent"] == e["acted"] for e in effects.values())
    assert effects["departure"]["sent"] > 0 and effects["rho_change"]["sent"] > 0


def test_self_times_attribute_each_instant_once():
    from perfbench.tracing import Recorder

    rec = Recorder()
    rec.spans = [
        ["outer", "a", 0.0, 10.0, -1],
        ["inner", "b", 2.0, 5.0, 0],
        ["late", "c", 4.0, 12.0, -1],  # overlaps like a suspended coroutine
    ]
    times = rec.self_times(0.0, 14.0)
    assert times == pytest.approx({"a": 2.0, "b": 2.0, "c": 8.0, "other": 2.0})
    assert sum(times.values()) == pytest.approx(14.0)


def test_suspended_coroutine_is_not_charged_for_the_gaps():
    import asyncio

    from perfbench.tracing import Recorder

    class Host:
        async def parked(self, gate):
            time.sleep(0.01)
            await gate  # suspended: the loop runs the gap and busy() meanwhile
            time.sleep(0.01)

        def busy(self):
            time.sleep(0.02)

    rec = Recorder()
    rec.wrap(Host, "parked", "parked", "async")
    rec.wrap(Host, "busy", "busy", "sync")

    async def main():
        host, gate = Host(), asyncio.get_running_loop().create_future()
        task = asyncio.ensure_future(host.parked(gate))
        await asyncio.sleep(0)  # parked runs its first stretch, then waits
        time.sleep(0.03)  # a gap no span covers
        host.busy()
        gate.set_result(None)
        await task

    t0 = time.perf_counter()
    try:
        asyncio.run(main())
    finally:
        rec.restore()
    times = rec.self_times(t0, time.perf_counter())
    assert [s[0] for s in rec.spans] == ["parked", "busy", "parked"]
    assert 0.02 <= times["async"] < 0.03
    assert 0.02 <= times["sync"] < 0.03
    assert times["other"] >= 0.03


def test_percentile_is_nearest_rank():
    assert percentile(range(1, 101), 99) == 99.0
    assert percentile([5.0], 99) == 5.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
