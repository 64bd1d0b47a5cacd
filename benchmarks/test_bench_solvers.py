"""Benchmark: the production steady-state solver against its oracle on Eq. (5).

DESIGN.md calls out the choice of pseudo-transient continuation + Newton as
the production numerical driver; this bench times it beside
``integrate_to_steady_state`` (follow the flow until it stops) on the
hardest model in the paper (CMFSD at K=10) and asserts both agree with
the CMFSD scalar root (``CMFSDModel.steady_state``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CMFSDModel, CorrelationModel, PAPER_PARAMETERS
from repro.ode import (
    SteadyStateOptions,
    find_steady_state,
    integrate_to_steady_state,
)


def _model():
    corr = CorrelationModel(num_files=10, p=0.9)
    return CMFSDModel.from_correlation(PAPER_PARAMETERS, corr, rho=0.3)


REFERENCE = None


def _reference_state():
    global REFERENCE
    if REFERENCE is None:
        REFERENCE = _model().steady_state().state
    return REFERENCE


@pytest.mark.parametrize(
    "solver",
    [find_steady_state, integrate_to_steady_state],
    ids=["ptc+newton", "integrate"],
)
def test_bench_cmfsd_steady_solvers(benchmark, solver):
    model = _model()
    opts = SteadyStateOptions(tol=1e-9)
    reference = _reference_state()
    # both start from the empty torrent, like the production path does
    y0 = np.zeros(model.state_dim)

    def solve():
        return solver(model.rhs, y0, opts)

    result = benchmark.pedantic(solve, rounds=3, iterations=1)
    assert result.converged
    np.testing.assert_allclose(result.state, reference, rtol=1e-4, atol=1e-6)
