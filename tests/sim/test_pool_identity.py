"""A one-file ``GLOBAL_POOL`` group is a one-file ``SUBTORRENT`` swarm.

Eq. (5)'s ``S^{i,j}`` term splits a torrent's seed pool across the
downloaders of all its subtorrents; with a single subtorrent that pool is
exactly the swarm-local seed capacity.  The DES relies on this identity:
a ``SUBTORRENT`` swarm and a ``GLOBAL_POOL`` group are one rate domain
over one or several member swarms, driven by the same kernels and window
drivers.  Both twins below run the same random action sequence (the
generator of :func:`tests.sim.test_incremental._drive_pair`) and must end
bit-identical: store rows, user records, events processed and every
counter once the kernel's ``pool``/``mesh`` prefix is mapped.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.obs import capture
from repro.sim import SeedPolicy, SimulationSystem
from repro.sim.swarm import SCALAR_KERNEL_CUTOFF
from tests.sim.test_incremental import _assert_twin_bitexact, _drive_pair


@contextlib.contextmanager
def _as_subtorrent(counters: dict):
    """Build every group as ``SUBTORRENT`` and capture the block's counters."""
    add_group = SimulationSystem.add_group

    def subtorrent_group(self, file_ids, policy):
        del policy
        return add_group(self, file_ids, SeedPolicy.SUBTORRENT)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimulationSystem, "add_group", subtorrent_group)
        with capture(trace=False) as obs:
            yield
    counters.update(obs.registry.counters)


def _pool_as_mesh(counters: dict) -> dict:
    """The counters with every ``sim.kernel.pool.*`` renamed ``mesh``."""
    return {
        name.replace("sim.kernel.pool.", "sim.kernel.mesh.", 1): value
        for name, value in counters.items()
    }


def _peak_downloaders(system) -> int:
    """Largest number of simultaneously active downloads over the run."""
    edges = []
    for span in system.metrics.entry_spans:
        edges.append((span.started_at, 1))
        edges.append((span.completed_at, -1))
    for group in system.groups.values():
        edges.extend((entry.started_at, 1) for entry in group.all_entries())
    active = peak = 0
    for _t, step in sorted(edges):  # a completion sorts before a start
        active += step
        peak = max(peak, active)
    return peak


@pytest.mark.parametrize(
    "steps, max_advance, large",
    [(120, 40.0, False), (700, 1.0, True)],
    ids=["scalar", "vector"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_file_pool_is_one_subtorrent_swarm(steps, max_advance, large, seed):
    twin_counters: dict = {}
    with capture(trace=False) as obs:
        pooled, subtorrent = _drive_pair(
            SeedPolicy.GLOBAL_POOL,
            n_files=1,
            steps=steps,
            seed=seed,
            max_advance=max_advance,
            oracle=lambda: _as_subtorrent(twin_counters),
        )
    pool_counters = dict(obs.registry.counters)

    assert pooled.groups[0].policy is SeedPolicy.GLOBAL_POOL
    assert subtorrent.groups[0].policy is SeedPolicy.SUBTORRENT
    # the population must land on the intended side of the kernel cutoff
    assert (_peak_downloaders(pooled) > SCALAR_KERNEL_CUTOFF) is large

    _assert_twin_bitexact(pooled, subtorrent)
    assert pooled.sim.events_processed == subtorrent.sim.events_processed
    recs_a, recs_b = pooled.metrics.records, subtorrent.metrics.records
    for uid, rec_a in recs_a.items():
        rec_b = recs_b[uid]
        assert rec_a.uploaded_virtual == rec_b.uploaded_virtual, uid
        assert rec_a.received_virtual == rec_b.received_virtual, uid
        assert rec_a.file_completions == rec_b.file_completions, uid

    assert pool_counters["sim.kernel.pool.full"] > 0
    assert not any(name.startswith("sim.kernel.mesh.") for name in pool_counters)
    assert _pool_as_mesh(pool_counters) == twin_counters
