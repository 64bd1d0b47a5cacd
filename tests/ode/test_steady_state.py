"""Tests for the residual norm and the reference steady-state drivers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ode import SteadyStateOptions, residual_norm
from repro.ode.reference import (
    find_steady_state,
    integrate_to_steady_state,
    newton_steady_state,
)


def linear_rhs(t, y):
    """dy/dt = b - A y with fixed point A^{-1} b = [2, 1]."""
    a = np.array([[1.0, 0.2], [0.1, 0.5]])
    b = a @ np.array([2.0, 1.0])
    return b - a @ y


def logistic_rhs(t, y):
    """Logistic growth toward carrying capacity 3."""
    return y * (1.0 - y / 3.0)


EXPECTED_LINEAR = np.array([2.0, 1.0])


class TestResidualNorm:
    def test_zero_at_fixed_point(self):
        assert residual_norm(linear_rhs, EXPECTED_LINEAR) < 1e-14

    def test_scales_by_state_magnitude(self):
        big = residual_norm(lambda t, y: np.array([1000.0]), np.array([1e6]))
        assert big == pytest.approx(1000.0 / 1e6)

    def test_empty_state(self):
        assert residual_norm(lambda t, y: np.array([]), np.array([])) == 0.0


@pytest.mark.parametrize(
    "solver",
    [integrate_to_steady_state, newton_steady_state],
    ids=["integrate", "newton"],
)
class TestAllSolversOnLinearSystem:
    def test_finds_fixed_point(self, solver):
        result = solver(linear_rhs, np.zeros(2))
        assert result.converged
        np.testing.assert_allclose(result.state, EXPECTED_LINEAR, rtol=1e-6)

    def test_residual_reported_accurately(self, solver):
        result = solver(linear_rhs, np.zeros(2))
        assert result.residual == pytest.approx(
            residual_norm(linear_rhs, result.state), abs=1e-12
        )


class TestIntegrateToSteadyState:
    def test_logistic_converges_to_carrying_capacity(self):
        result = integrate_to_steady_state(logistic_rhs, np.array([0.01]))
        assert result.converged
        assert result.state[0] == pytest.approx(3.0, rel=1e-6)

    def test_gives_up_within_block_budget(self):
        opts = SteadyStateOptions(tol=1e-14, t_block=0.01, max_blocks=2)
        result = integrate_to_steady_state(linear_rhs, np.zeros(2), opts)
        assert not result.converged
        assert result.n_iterations == 2

    def test_trajectory_attached(self):
        result = integrate_to_steady_state(linear_rhs, np.zeros(2))
        assert result.trajectory is not None
        assert result.trajectory.y.shape[1] == 2


class TestNewton:
    def test_quadratic_convergence_near_root(self):
        result = newton_steady_state(linear_rhs, EXPECTED_LINEAR + 0.1)
        assert result.converged
        assert result.n_iterations <= 3

    def test_nonnegative_projection(self):
        # Fixed point of dy/dt = -1 - y is y = -1; projection pins at 0.
        opts = SteadyStateOptions(nonnegative=True, max_newton_iter=10)
        result = newton_steady_state(lambda t, y: -1.0 - y, np.array([0.5]), opts)
        assert result.state[0] >= 0.0
        assert not result.converged

    def test_unconstrained_finds_negative_root(self):
        opts = SteadyStateOptions(nonnegative=False)
        result = newton_steady_state(lambda t, y: -1.0 - y, np.array([0.5]), opts)
        assert result.converged
        assert result.state[0] == pytest.approx(-1.0)


class TestFindSteadyState:
    def test_combined_driver_polishes_to_tight_tolerance(self):
        opts = SteadyStateOptions(tol=1e-12)
        result = find_steady_state(linear_rhs, np.zeros(2), opts)
        assert result.converged
        assert result.residual < 1e-12
        assert result.method == "ptc+newton"

    def test_works_on_nonlinear_system(self):
        result = find_steady_state(logistic_rhs, np.array([0.5]))
        assert result.converged
        assert result.state[0] == pytest.approx(3.0, rel=1e-9)
