"""Ablation benchmark: steady-state solver strategies on Eq. (5).

DESIGN.md calls out the choice of pseudo-transient continuation + Newton as
the production path; this bench times the alternatives on the hardest model
in the paper (CMFSD at K=10) and asserts they agree on the answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CMFSDModel, CorrelationModel, PAPER_PARAMETERS
from repro.ode import (
    SteadyStateOptions,
    anderson_steady_state,
    find_steady_state,
    integrate_to_steady_state,
    scipy_steady_state,
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
    "solver, needs_warm_start",
    [
        (find_steady_state, False),
        (integrate_to_steady_state, False),
        (anderson_steady_state, False),
        (scipy_steady_state, True),
    ],
    ids=["ptc+newton", "integrate", "anderson", "scipy-hybr"],
)
def test_bench_cmfsd_steady_solvers(benchmark, solver, needs_warm_start):
    model = _model()
    opts = SteadyStateOptions(tol=1e-9)
    reference = _reference_state()
    # scipy's hybr needs a warm start on this 65-dimensional system; the
    # others start from the empty torrent like the production path does.
    y0 = reference * 0.9 if needs_warm_start else np.zeros(model.state_dim)

    def solve():
        return solver(model.rhs, y0, opts)

    result = benchmark.pedantic(solve, rounds=3, iterations=1)
    assert result.converged
    np.testing.assert_allclose(result.state, reference, rtol=1e-4, atol=1e-6)
