"""The test-facing oracle hooks of :mod:`repro.sim.reference`.

The DES has one production path; ``oracle_mode()`` and
``eager_integration()`` swap the oracle paths in for the duration of a
block.  These tests pin that the hooks take effect, that they restore
production on exit, and that production never imports the oracle module.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.sim import SeedPolicy, SimulationSystem, make_behavior
from repro.sim.bandwidth import RateWindow
from repro.sim.behaviors import BehaviorKind
from repro.sim.engine import Simulator
from repro.sim.reference import (
    eager_integration,
    neighbor_topology_rebuild,
    oracle_mode,
    run_until_per_event,
    win_due_scan,
)
from repro.sim.swarm import Swarm, SwarmGroup

MU, ETA, GAMMA = 0.02, 0.5, 0.05


def _production_attrs():
    return (
        Simulator.run_until,
        Swarm.recompute_rates_incremental,
        SwarmGroup.recompute_rates_all_incremental,
        Swarm._neighbor_topology,
        SimulationSystem._start_window,
        RateWindow.due,
    )


def _one_downloader(**kw) -> tuple[SimulationSystem, Swarm]:
    system = SimulationSystem(mu=MU, eta=ETA, gamma=GAMMA, num_classes=1, **kw)
    system.add_group((0,), SeedPolicy.SUBTORRENT)
    for _ in range(3):
        system.spawn_user(make_behavior(BehaviorKind.SEQUENTIAL), (0,))
    system.flush()
    return system, system.groups[0].swarms[0]


class TestHooks:
    def test_oracle_mode_swaps_and_restores(self):
        before = _production_attrs()
        with oracle_mode():
            assert Simulator.run_until is run_until_per_event
            assert Swarm.recompute_rates_incremental(None, ETA) is False
            assert SwarmGroup.recompute_rates_all_incremental(None) is False
            assert Swarm._neighbor_topology is neighbor_topology_rebuild
            assert RateWindow.due is win_due_scan
        assert _production_attrs() == before

    def test_hooks_restore_on_error(self):
        before = _production_attrs()
        with pytest.raises(RuntimeError, match="boom"):
            with oracle_mode(), eager_integration():
                raise RuntimeError("boom")
        assert _production_attrs() == before

    def test_eager_integration_opens_no_window(self):
        _, swarm = _one_downloader()
        assert swarm.win.active
        with eager_integration():
            _, swarm = _one_downloader()
            assert not swarm.win.active

    def test_oracle_mode_rebuilds_topology_every_epoch(self):
        from repro.obs import capture

        with capture(trace=False) as obs:
            system, _ = _one_downloader(neighbor_limit=2)
            system.run_until(5.0)
        assert "sim.kernel.neighbor.full" not in obs.registry.counters
        with oracle_mode(), capture(trace=False) as obs:
            system, _ = _one_downloader(neighbor_limit=2)
            system.run_until(5.0)
        counters = obs.registry.counters
        assert counters["sim.kernel.neighbor.full"] > 0
        assert "sim.kernel.neighbor.incremental" not in counters


def test_production_never_imports_the_oracle_module():
    """Importing the package, CLI and service and running a scenario must
    leave :mod:`repro.sim.reference` unloaded."""
    script = textwrap.dedent(
        """
        import sys
        import repro, repro.cli, repro.service
        from repro.core.correlation import CorrelationModel
        from repro.core.parameters import FluidParameters
        from repro.core.schemes import Scheme
        from repro.sim.scenarios import ScenarioConfig, run_scenario

        params = FluidParameters(mu=0.02, eta=0.5, gamma=0.05, num_files=2)
        run_scenario(ScenarioConfig(
            scheme=Scheme.MTCD,
            params=params,
            correlation=CorrelationModel(num_files=2, p=0.5),
            t_end=60.0,
            warmup=10.0,
        ))
        assert "repro.sim.reference" not in sys.modules, "oracle imported"
        print("ok")
        """
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
