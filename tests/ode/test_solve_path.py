"""The reference path sweep (:func:`solve_path`) and the batched Jacobian."""

from __future__ import annotations

import numpy as np

from repro.obs import capture
from repro.ode.reference import PathResult, _numerical_jacobian, solve_path


def make_linear_rhs(p: float):
    """Family ``dy/dt = b(p) - A y`` with fixed point ``[2 + p, 1 - p/2]``.

    Written to the scipy ``vectorized`` convention -- a 2-D state of shape
    ``(dim, k)`` returns ``(dim, k)`` -- so the batched Jacobian engages.
    """
    a = np.array([[1.0, 0.2], [0.1, 0.5]])
    target = np.array([2.0 + p, 1.0 - p / 2.0])
    b = a @ target

    def rhs(t, y):
        if y.ndim == 2:
            return b[:, None] - a @ y
        return b - a @ y

    return rhs


def expected_state(p: float) -> np.ndarray:
    return np.array([2.0 + p, 1.0 - p / 2.0])


PARAMS = tuple(np.linspace(0.0, 1.0, 5))


class TestSolvePath:
    def test_path_finds_every_fixed_point(self):
        path = solve_path(make_linear_rhs, PARAMS, np.zeros(2))
        assert isinstance(path, PathResult)
        assert path.converged
        assert path.parameters == PARAMS
        assert all(r.method == "ptc+newton" for r in path.results)
        for p, state in zip(PARAMS, path.states):
            np.testing.assert_allclose(state, expected_state(p), rtol=1e-6, atol=1e-8)

    def test_path_counters_recorded(self):
        with capture(trace=False) as obs:
            solve_path(make_linear_rhs, PARAMS, np.zeros(2))
        counters = obs.registry.counters
        assert counters["ode.solve_path.points"] == len(PARAMS)
        assert counters["ode.steady_state.solves"] == len(PARAMS)

    def test_empty_path(self):
        path = solve_path(make_linear_rhs, (), np.zeros(2))
        assert path.results == ()
        assert path.converged  # vacuously


class TestBatchedJacobian:
    A = np.array([[1.0, 0.2], [0.1, 0.5]])

    def loop_jacobian(self, rhs, y, eps=1e-7):
        """The classic one-column-per-call reference."""
        f0 = np.asarray(rhs(0.0, y), dtype=float)
        steps = eps * np.maximum(np.abs(y), 1.0)
        jac = np.empty((y.size, y.size))
        for j in range(y.size):
            yp = y.copy()
            yp[j] += steps[j]
            jac[:, j] = (np.asarray(rhs(0.0, yp), dtype=float) - f0) / steps[j]
        return jac

    def test_batched_matches_loop(self):
        rhs = make_linear_rhs(0.3)
        y = np.array([1.5, 0.7])
        with capture(trace=False) as obs:
            jac = _numerical_jacobian(rhs, y, 1e-7)
        np.testing.assert_allclose(jac, self.loop_jacobian(rhs, y), rtol=1e-6)
        np.testing.assert_allclose(jac, -self.A, rtol=1e-5)
        counters = obs.registry.counters
        assert counters["ode.newton.jacobian_builds"] == 1
        assert counters["ode.newton.jacobian_batched"] == 1
        assert "ode.newton.jacobian_loops" not in counters

    def test_scalar_only_rhs_falls_back_to_loop(self):
        def rhs(t, y):
            if y.ndim != 1:
                raise ValueError("1-D states only")
            return self.A @ (np.array([2.0, 1.0]) - y)

        y = np.array([0.5, 0.5])
        with capture(trace=False) as obs:
            jac = _numerical_jacobian(rhs, y, 1e-7)
        np.testing.assert_allclose(jac, -self.A, rtol=1e-5)
        counters = obs.registry.counters
        assert counters["ode.newton.jacobian_loops"] == 1
        assert "ode.newton.jacobian_batched" not in counters

    def test_right_shape_wrong_values_is_rejected(self):
        # Broadcasts into the right (dim, k) shape but couples the columns:
        # sum over *all* elements instead of per column.  The first-probe
        # verification against a scalar evaluation must catch this.
        def rhs(t, y):
            return y * np.sum(y) - y

        y = np.array([0.8, 0.3])
        jac = _numerical_jacobian(rhs, y, 1e-7)
        np.testing.assert_allclose(jac, self.loop_jacobian(rhs, y), rtol=1e-6)

    def test_capability_memoised_across_builds(self):
        rhs = make_linear_rhs(0.1)
        y = np.array([1.0, 1.0])
        with capture(trace=False) as obs:
            _numerical_jacobian(rhs, y, 1e-7)
            _numerical_jacobian(rhs, y, 1e-7)
        counters = obs.registry.counters
        assert counters["ode.newton.jacobian_builds"] == 2
        assert counters["ode.newton.jacobian_batched"] == 2
