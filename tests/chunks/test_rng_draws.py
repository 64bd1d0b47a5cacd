"""The array engines' chunk draw is stream-identical to the oracle's.

The scalar oracle picks among the rarest chunks with
``rng.choice(rarest)``; both array engines draw the index with
``rng.integers(len(rarest))`` instead, which skips ``choice``'s argument
handling.  That is only bit-exact if NumPy implements ``choice`` (uniform,
with replacement, no ``p``) as exactly that ``integers`` call.  Pinning it
here means a NumPy release that changes it fails by name rather than as an
unexplained diff in ``test_vector_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.mark.parametrize("n", [1, 2, 7, 200])
def test_integers_draws_like_choice(n: int):
    seq = np.arange(n, dtype=np.intp) * 3 + 1  # distinct, not the indices
    via_integers = np.random.default_rng(2024)
    via_choice = np.random.default_rng(2024)
    for _ in range(100):
        assert seq[via_integers.integers(n)] == via_choice.choice(seq)
    assert via_integers.bit_generator.state == via_choice.bit_generator.state
