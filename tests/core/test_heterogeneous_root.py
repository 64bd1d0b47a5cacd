"""Sec.-2 heterogeneous stationary points from the scalar root of ``g(D)``.

:meth:`HeterogeneousModel.steady_state` builds the stationary point of the
general multi-class model from one monotone scalar equation.  These tests
hold it to the integration oracle -- :func:`integrate_to_steady_state`
followed by a Newton polish, as in ``tests/ode/test_ptc.py`` -- on random
mixes of one to six classes, download-constrained (capped) classes and
seed-saturated mixes (``sum lambda <= S``) included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import HeterogeneousModel, PeerClass
from repro.ode import SteadyStateOptions, residual_norm
from repro.ode.reference import integrate_to_steady_state, newton_steady_state

OPTS = SteadyStateOptions()
#: the polish runs past the default tol so the oracle's own state error
#: stays well below the distance asserted
POLISH = SteadyStateOptions(tol=1e-15)


def scaled_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


def oracle(model: HeterogeneousModel) -> np.ndarray:
    coarse = integrate_to_steady_state(model.rhs, np.zeros(model.state_dim), OPTS)
    assert coarse.converged
    polished = newton_steady_state(model.rhs, coarse.state, POLISH)
    return polished.state if polished.residual <= coarse.residual else coarse.state


def mix(*classes: tuple[float, float, float, float], eta: float = 0.5) -> HeterogeneousModel:
    """``(upload, download, arrival_rate, seed_departure_rate)`` per class."""
    return HeterogeneousModel(classes=tuple(PeerClass(*c) for c in classes), eta=eta)


@st.composite
def peer_class(draw) -> tuple[float, float, float, float]:
    mu = draw(st.floats(0.005, 0.1))
    return (
        mu,
        # download links from below the upload (always capped) to 20x it
        mu * draw(st.floats(0.5, 20.0)),
        draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0))),
        # gamma below mu makes seeds outlast demand: sum lambda <= S
        mu * draw(st.floats(0.3, 5.0)),
    )


@st.composite
def models(draw) -> HeterogeneousModel:
    classes = draw(st.lists(peer_class(), min_size=1, max_size=6))
    if all(c[2] == 0.0 for c in classes):
        classes[0] = (*classes[0][:2], 0.5, classes[0][3])
    return mix(*classes, eta=draw(st.floats(0.05, 1.0)))


class TestAgainstIntegrationOracle:
    @settings(max_examples=60, deadline=None)
    @given(model=models())
    # a capped single class with sum lambda <= S, and a capped two-class mix
    @example(model=mix((0.05, 0.06, 0.5, 0.02)))
    @example(model=mix((0.02, 0.021, 0.8, 0.05), (0.08, 0.8, 0.3, 0.05)))
    def test_root_matches_oracle(self, model):
        steady = model.steady_state()
        state = np.concatenate([steady.downloaders, steady.seeds])
        assert steady.converged
        assert steady.residual == residual_norm(model.rhs, state)
        assert steady.residual <= 1e-12
        assert scaled_distance(state, oracle(model)) <= 1e-8


def test_empty_workload_is_the_zero_state():
    steady = mix((0.02, 0.2, 0.0, 0.05), (0.04, 0.2, 0.0, 0.05)).steady_state()
    assert steady.converged and steady.residual == 0.0
    np.testing.assert_array_equal(steady.downloaders, 0.0)
    np.testing.assert_array_equal(steady.seeds, 0.0)
    assert np.isnan(steady.download_times).all()
