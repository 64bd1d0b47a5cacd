"""Property tests for the dense engine's round-local row bitsets.

``_pack_rows`` turns a boolean matrix into one Python ``int`` per row
(bit i = column i) and ``_bit_indices`` turns an ``int`` back into its set
positions, ascending.  Together they must reproduce ``np.nonzero`` on
every row exactly: the pick loop's candidate lists, and hence the RNG
draws, come from them.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays

from repro.chunks.swarm import _bit_indices, _pack_rows


@st.composite
def bool_matrices(draw):
    n_cols = draw(st.integers(1, 300))
    n_rows = draw(st.integers(0, 6))
    random_rows = draw(arrays(np.bool_, (n_rows, n_cols)))
    # an all-false and an all-true row in every matrix, at a drawn position
    fixed = np.array([[False] * n_cols, [True] * n_cols])
    at = draw(st.integers(0, n_rows))
    return np.concatenate((random_rows[:at], fixed, random_rows[at:]))


@settings(max_examples=200, deadline=None)
@given(bool_matrices())
def test_pack_then_iterate_matches_nonzero(mask: np.ndarray):
    rows = _pack_rows(mask)
    assert len(rows) == mask.shape[0]
    for bits, row in zip(rows, mask):
        assert bits >= 0
        assert bits.bit_length() <= mask.shape[1]
        assert _bit_indices(bits) == np.nonzero(row)[0].tolist()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**300))
def test_bit_indices_round_trip(bits: int):
    idx = _bit_indices(bits)
    assert idx == sorted(set(idx))
    assert sum(1 << i for i in idx) == bits


def test_pack_rows_of_no_rows():
    assert _pack_rows(np.zeros((0, 17), dtype=bool)) == []
