"""ODE and steady-state numerics substrate.

The fluid models in :mod:`repro.core` are systems of ordinary differential
equations.  This subpackage provides the numerical machinery used to evolve
them and to locate their stationary points:

* :mod:`repro.ode.integrators` -- explicit fixed-step RK4 and an adaptive
  Dormand--Prince RK45 implemented from scratch, plus a thin wrapper around
  :func:`scipy.integrate.solve_ivp`.  Having two independent implementations
  lets the test-suite cross-check every model.
* :mod:`repro.ode.steady_state` -- :class:`SteadyStateOptions` and the
  scaled :func:`residual_norm` every stationary point is judged by.  The
  models solve their own stationary points (a closed form or one monotone
  scalar root each).
* :mod:`repro.ode.reference` -- the oracle: pseudo-transient continuation
  + Newton, damped Newton with a numerical Jacobian, and the
  integrate-to-convergence driver.  Tests and benchmarks import it by
  name; this package does not.
* :mod:`repro.ode.events` -- time-grid helpers and dense-output sampling.

All solvers operate on plain callables ``f(t, y) -> dy/dt`` over
one-dimensional :class:`numpy.ndarray` state vectors.
"""

from repro.ode.types import IntegrationResult, SteadyStateResult
from repro.ode.integrators import (
    integrate_rk4,
    integrate_rk45,
    integrate_scipy,
    integrate,
)
from repro.ode.steady_state import SteadyStateOptions, residual_norm
from repro.ode.events import time_grid, sample_dense

__all__ = [
    "IntegrationResult",
    "SteadyStateResult",
    "integrate_rk4",
    "integrate_rk45",
    "integrate_scipy",
    "integrate",
    "SteadyStateOptions",
    "residual_norm",
    "time_grid",
    "sample_dense",
]
