"""Tests for the eta-measurement experiment driver."""

from __future__ import annotations

import pytest

from repro.experiments import eta_measurement


class TestEtaDriver:
    @pytest.fixture(scope="class")
    def result(self):
        return eta_measurement.run(
            chunk_counts=(10, 100),
            peer_counts=(10, 40),
            reference_peers=20,
            reference_chunks=50,
            n_repeats=1,
            large_swarm_peers=None,
        )

    def test_rows_cover_all_sweeps(self, result):
        sweeps = {row[0] for row in result.rows}
        assert sweeps == {"chunks", "peers", "open", "slots"}
        assert len(result.rows) == 9  # 2 chunks + 2 peers + 1 open + 4 slots

    def test_slot_sweep_closes_the_loop_too(self, result):
        for row in result.rows:
            if row[0] == "slots":
                assert abs(row[5] - row[4]) / row[4] < 0.15

    def test_open_swarm_agrees_with_fluid(self, result):
        open_row = next(r for r in result.rows if r[0] == "open")
        assert abs(open_row[5] - open_row[4]) / open_row[4] < 0.10

    def test_open_eta_above_flash_crowd_eta(self, result):
        open_row = next(r for r in result.rows if r[0] == "open")
        flash = [r[2] for r in result.rows if r[0] != "open"]
        assert open_row[2] > max(flash)

    def test_eta_grows_with_chunk_count(self, result):
        chunk_rows = sorted(
            (r for r in result.rows if r[0] == "chunks"), key=lambda r: r[1]
        )
        assert chunk_rows[-1][2] > chunk_rows[0][2]

    def test_eta_falls_with_crowd_size(self, result):
        peer_rows = sorted(
            (r for r in result.rows if r[0] == "peers"), key=lambda r: r[1]
        )
        assert peer_rows[-1][2] < peer_rows[0][2]

    def test_eta_in_unit_interval(self, result):
        for row in result.rows:
            assert 0.0 < row[2] < 1.0
            assert 0.0 < row[3] <= 1.0

    def test_repeats_validated(self):
        with pytest.raises(ValueError, match="n_repeats"):
            eta_measurement.run(n_repeats=0)

    def test_large_swarm_validated(self):
        with pytest.raises(ValueError, match="large_swarm_peers"):
            eta_measurement.run(large_swarm_peers=(0,))


class TestSeedDerivation:
    def test_equal_sum_grid_points_get_distinct_seeds(self):
        """The bug the SeedSequence scheme fixes: peers=40/chunks=20 and
        peers=20/chunks=40 used to share ``1000*r + n_peers + n_chunks``."""
        s_chunks = eta_measurement._derive_seed("chunks", 60, 0)
        s_peers = eta_measurement._derive_seed("peers", 60, 0)
        assert s_chunks != s_peers

    def test_seeds_unique_across_axes_values_and_reps(self):
        seeds = {
            eta_measurement._derive_seed(axis, value, rep)
            for axis in eta_measurement._SEED_AXES
            for value in (1, 2, 4, 8, 10, 25, 50, 100, 200, 400, 1000)
            for rep in range(3)
        }
        assert len(seeds) == len(eta_measurement._SEED_AXES) * 11 * 3

    def test_derivation_is_deterministic(self):
        assert eta_measurement._derive_seed("slots", 4, 1) == (
            eta_measurement._derive_seed("slots", 4, 1)
        )


def test_large_swarm_row_present_at_small_scale():
    """The large-swarm point rides the same pipeline (checked here at a
    test-sized value; the real >= 1000-peer run lives in the benchmark
    suite and results/eta.csv)."""
    result = eta_measurement.run(
        chunk_counts=(10,),
        peer_counts=(10,),
        reference_peers=10,
        reference_chunks=20,
        n_repeats=1,
        large_swarm_peers=(25,),
        large_swarm_chunks=40,
    )
    large = [r for r in result.rows if r[0] == "large_swarm"]
    assert len(large) == 1
    assert large[0][1] == 25
    assert 0.0 < large[0][2] < 1.0
    assert "realistic scale" in result.notes
