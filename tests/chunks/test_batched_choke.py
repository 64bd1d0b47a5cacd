"""The batched choke pass: slot variants against the oracle, its rank and
select index, and its counters.

``test_vector_equivalence.py`` pins the default slots (4 regular, 1
optimistic) on swarms of up to 14 peers, i.e. interest rows of at most two
packed bytes.  These cases add the other slot shapes the batched ranking
handles differently -- no optimistic slot, several optimistic slots drawn
as one ``rng.choice`` sample, a single regular slot -- and a 70-peer swarm
whose interest rows span nine bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chunks import ChunkSwarm, ChunkSwarmConfig
from repro.chunks.swarm import _RankSelect
from repro.obs import capture
from tests.chunks.test_vector_equivalence import (
    ENGINES,
    assert_swarms_equal,
    run_both,
)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize(
    "regular, optimistic", [(4, 0), (2, 2), (1, 3), (3, 1)]
)
def test_slot_variants_match_oracle(regular: int, optimistic: int, engine: str):
    cfg = ChunkSwarmConfig(
        n_chunks=16, n_upload_slots=regular, optimistic_slots=optimistic
    )
    vec, ref = run_both(
        cfg, seed=5, n_seeds=2, n_leech=14, max_rounds=2000, engine=engine
    )
    assert_swarms_equal(vec, ref)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_wide_interest_rows_match_oracle(engine: str):
    cfg = ChunkSwarmConfig(n_chunks=24)
    vec, ref = run_both(
        cfg, seed=2, n_seeds=1, n_leech=69, max_rounds=2000, engine=engine
    )
    assert_swarms_equal(vec, ref)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 130])
def test_rank_select_match_a_row_scan(width: int):
    rng = np.random.default_rng(width)
    mask = rng.random((40, width)) < 0.4
    mask[0] = False
    mask[1] = True
    index = _RankSelect(mask)
    assert index.count.tolist() == mask.sum(axis=1).tolist()
    rows, cols = np.nonzero(np.ones_like(mask))
    expected_rank = [int(mask[r, :c].sum()) for r, c in zip(rows, cols)]
    assert index.rank(rows, cols).tolist() == expected_rank
    rows, cols = np.nonzero(mask)
    ks = index.rank(rows, cols).astype(np.int64)
    assert index.select(rows, ks).tolist() == cols.tolist()


def test_choke_counters_add_up():
    cfg = ChunkSwarmConfig(n_chunks=12)
    swarm = ChunkSwarm(cfg, seed=3)
    swarm.add_peers(1, is_seed=True)
    swarm.add_peers(20)
    ranked = draws = seed_rows = 0
    with capture(trace=False) as obs:
        while not swarm.all_done:
            st = swarm.store
            n = st.n
            counts = swarm._interest(n).sum(axis=1)
            is_dl = st.n_owned[:n] < cfg.n_chunks
            ranked += int((is_dl & (counts > 0)).sum())
            draws += int((is_dl & (counts > cfg.n_upload_slots)).sum())
            seed_rows += int((~is_dl & (counts > 0)).sum())
            swarm.run_round()
    counters = obs.registry.counters
    assert counters["chunks.kernel.choke.ranked_rows"] == ranked > 0
    assert counters["chunks.kernel.choke.optimistic_draws"] == draws > 0
    assert counters["chunks.kernel.choke.seed_policy_rows"] == seed_rows > 0
