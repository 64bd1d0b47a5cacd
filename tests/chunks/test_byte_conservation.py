"""Byte conservation in the array chunk engines, checked after every round.

Every work unit an uploader sends lands in exactly one place: banked as
downloader- or seed-useful when its chunk completes, written off as waste,
or still sitting in a receiver's partial chunk.  With no departures
(``seed_stays=True``) no uploader's tally leaves the store, so

    sum(uploaded_useful) == downloader_useful + seed_useful
                            + wasted_bytes + sum(partial done)

holds after every round up to float summation order, and downloaders
never bank more useful work than the capacity they had.  The dense engine
and full-degree sparse engine are also pinned to the scalar oracle; for
bounded-degree sparse runs this is the only per-round accounting check.
"""

from __future__ import annotations

import pytest

from repro.chunks import ChunkSwarm, ChunkSwarmConfig, SparseChunkSwarm

#: (engine, neighbor_degree, super_seeding); the dense cases keep their
#: original bare ``False``/``True`` ids
CASES = [
    pytest.param(engine, degree, super_seeding, id=f"{prefix}{super_seeding}")
    for engine, degree, prefix in (
        (ChunkSwarm, None, ""),
        (SparseChunkSwarm, None, "sparse-full-"),
        (SparseChunkSwarm, 4, "sparse-degree4-"),
    )
    for super_seeding in (False, True)
]


def partial_total(swarm) -> float:
    st = swarm.store
    return sum(
        entry[0]
        for row in range(st.n)
        for entry in st.partials_dict(row).values()
    )


@pytest.mark.parametrize("engine, degree, super_seeding", CASES)
def test_uploaded_bytes_are_conserved_every_round(
    engine, degree, super_seeding: bool
):
    swarm = engine(
        ChunkSwarmConfig(
            n_chunks=130, super_seeding=super_seeding, neighbor_degree=degree
        ),
        seed=4,
    )
    swarm.add_peers(1, is_seed=True)
    swarm.add_peers(40)
    st = swarm.store
    rounds = 0
    while not swarm.all_done:
        assert rounds < 2000, "flash crowd did not finish"
        swarm.run_round()
        rounds += 1
        uploaded = float(st.uploaded_useful[: st.n].sum())
        accounted = (
            swarm.downloader_useful
            + swarm.seed_useful
            + swarm.wasted_bytes
            + partial_total(swarm)
        )
        assert accounted == pytest.approx(uploaded, rel=1e-9, abs=0.0), rounds
        assert swarm.downloader_useful <= swarm.downloader_capacity, rounds
    assert rounds > 1
    assert partial_total(swarm) == 0.0
