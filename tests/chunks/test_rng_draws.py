"""The array engines' RNG draws are stream-identical to the oracle's.

The scalar oracle picks among the rarest chunks with
``rng.choice(rarest)``; both array engines draw the index with
``rng.integers(len(rarest))`` instead, which skips ``choice``'s argument
handling.  That is only bit-exact if NumPy implements ``choice`` (uniform,
with replacement, no ``p``) as exactly that ``integers`` call.

Choking has two more such substitutions.  The oracle's optimistic unchoke
is ``rng.choice(rest, size=1, replace=False)``; the engines draw
``rest[rng.integers(len(rest))]`` (a size-1 sample without replacement is
one bounded draw on ``[0, len(rest) - 1]``).  With more than one
optimistic slot they draw ``rng.choice(len(rest), size=k,
replace=False)`` and index ``rest`` with it, which samples exactly as the
oracle's call on the array does.

Pinning these here means a NumPy release that changes one fails by name
rather than as an unexplained diff in ``test_vector_equivalence.py``.
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


@pytest.mark.parametrize("n", [1, 2, 7, 200, 600, 20000])
def test_integers_draws_like_size_one_sample(n: int):
    rest = np.arange(n, dtype=np.intp) * 3 + 1
    via_integers = np.random.default_rng(2024)
    via_choice = np.random.default_rng(2024)
    for _ in range(100):
        picked = via_choice.choice(rest, size=1, replace=False)
        assert picked.tolist() == [rest[via_integers.integers(len(rest))]]
    assert via_integers.bit_generator.state == via_choice.bit_generator.state


@pytest.mark.parametrize("n", [2, 7, 200, 20000])
@pytest.mark.parametrize("k", [2, 3])
def test_sample_of_positions_draws_like_sample_of_values(n: int, k: int):
    rest = np.arange(n, dtype=np.intp) * 3 + 1
    size = min(k, n)
    via_positions = np.random.default_rng(2024)
    via_values = np.random.default_rng(2024)
    for _ in range(100):
        positions = via_positions.choice(n, size=size, replace=False)
        values = via_values.choice(rest, size=size, replace=False)
        assert rest[positions].tolist() == values.tolist()
    assert via_positions.bit_generator.state == via_values.bit_generator.state
