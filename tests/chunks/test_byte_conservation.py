"""Byte conservation in the dense chunk engine, checked after every round.

Every work unit an uploader sends lands in exactly one place: banked as
downloader- or seed-useful when its chunk completes, written off as waste,
or still sitting in a receiver's partial chunk.  With no departures
(``seed_stays=True``) no uploader's tally leaves the store, so

    sum(uploaded_useful) == downloader_useful + seed_useful
                            + wasted_bytes + sum(partial_done)

holds after every round up to float summation order, and downloaders
never bank more useful work than the capacity they had.
"""

from __future__ import annotations

import pytest

from repro.chunks import ChunkSwarm, ChunkSwarmConfig


@pytest.mark.parametrize("super_seeding", [False, True])
def test_uploaded_bytes_are_conserved_every_round(super_seeding: bool):
    swarm = ChunkSwarm(
        ChunkSwarmConfig(n_chunks=130, super_seeding=super_seeding), seed=4
    )
    swarm.add_peers(1, is_seed=True)
    swarm.add_peers(40)
    st = swarm.store
    rounds = 0
    while not swarm.all_done:
        assert rounds < 2000, "flash crowd did not finish"
        swarm.run_round()
        rounds += 1
        n = st.n
        uploaded = float(st.uploaded_useful[:n].sum())
        accounted = (
            swarm.downloader_useful
            + swarm.seed_useful
            + swarm.wasted_bytes
            + float(st.partial_done[:n].sum())
        )
        assert accounted == pytest.approx(uploaded, rel=1e-9, abs=0.0), rounds
        assert swarm.downloader_useful <= swarm.downloader_capacity, rounds
    assert rounds > 1
    assert float(st.partial_done[: st.n].sum()) == 0.0
