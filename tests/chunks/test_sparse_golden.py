"""Golden runs of the bounded-degree sparse engine.

Full-degree runs are pinned to the scalar oracle
(``test_vector_equivalence.py``), but bounded neighbourhoods have no
oracle to replay against: an edit to their choke, pick or transfer path
could change every run and still pass the accounting checks of
``test_byte_conservation.py``.  These cases pin whole runs instead -- a
flash crowd with one scripted churn step (three leechers leave after six
rounds, five join) at degrees 2 and 4, seeds 1-3 -- by a digest of the
per-round history, the final main-RNG state, the kernel's pick and link
counters, eta and the wasted bytes.

The values were produced by the engine as it stood before its
tit-for-tat ranking was batched across rows (see CHANGES.md); a change
that moves any of them changes what bounded-degree runs compute.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.chunks import ChunkSwarmConfig, SparseChunkSwarm
from repro.obs import capture

#: (degree, seed) -> (rounds, history digest, (PCG64 state, has_uint32,
#: uinteger), picks, links, eta.hex(), wasted_bytes.hex())
GOLDEN = {
    (2, 1): (
        141, "4a562e9544716d6c",
        (111306466332741864943017437475346190194, 1, 85292781),
        8582, 7931, "0x1.a4aa93647efbap-2", "0x1.89374bc6a7efap-6",
    ),
    (2, 2): (
        141, "0a585c38257d2eb2",
        (225992561362998167981945659923924140444, 1, 356997553),
        7926, 7326, "0x1.9767320fb8a88p-2", "0x1.89374bc6a7efap-6",
    ),
    (2, 3): (
        155, "13c52b7ae55cf770",
        (97878005267026287389552191386473661535, 0, 278342297),
        8467, 7834, "0x1.9e2a6a76cf9e1p-2", "0x1.eb851eb851eb9p-6",
    ),
    (4, 1): (
        151, "3cb7c6efd6f697f7",
        (125951285999361255373113907707055395796, 1, 2765542982),
        11653, 11675, "0x1.444a2343c5e2fp-2", "0x1.89374bc6a7efap-7",
    ),
    (4, 2): (
        135, "5822c1f2bc28a8a4",
        (1571389489906930460646243149450509803, 1, 1776305275),
        11370, 11220, "0x1.6d96ba90c84b5p-2", "0x1.89374bc6a7efap-7",
    ),
    (4, 3): (
        142, "f57b6c6a8744ea53",
        (238035244591178873976274876073349367557, 0, 2407140917),
        11728, 11648, "0x1.5af3d0b610c00p-2", "0x1.0624dd2f1a9fcp-6",
    ),
}


def pinned_run(degree: int, seed: int) -> tuple:
    cfg = ChunkSwarmConfig(n_chunks=30, neighbor_degree=degree)
    with capture(trace=False) as obs:
        swarm = SparseChunkSwarm(cfg, seed=seed)
        swarm.add_peers(1, is_seed=True)
        swarm.add_peers(60)
        for _ in range(6):
            swarm.run_round()
        for pid in (5, 17, 40):
            swarm.remove_peer(pid)
        swarm.add_peers(5)
        swarm.run(max_rounds=5000)
    counters = obs.registry.counters
    state = swarm.rng.bit_generator.state
    return (
        swarm.rounds_run,
        hashlib.sha256(repr(swarm.history).encode()).hexdigest()[:16],
        (state["state"]["state"], state["has_uint32"], state["uinteger"]),
        int(counters["chunks.kernel.picks"]),
        int(counters["chunks.kernel.links"]),
        (swarm.downloader_useful / swarm.downloader_capacity).hex(),
        swarm.wasted_bytes.hex(),
    )


@pytest.mark.parametrize("degree, seed", sorted(GOLDEN))
def test_bounded_degree_run_matches_golden(degree: int, seed: int):
    assert pinned_run(degree, seed) == GOLDEN[degree, seed]
