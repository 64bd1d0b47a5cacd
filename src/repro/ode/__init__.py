"""ODE and steady-state numerics substrate.

The fluid models in :mod:`repro.core` are systems of ordinary differential
equations.  This subpackage provides the numerical machinery used to evolve
them and to locate their stationary points:

* :mod:`repro.ode.integrators` -- explicit fixed-step RK4 and an adaptive
  Dormand--Prince RK45 implemented from scratch, plus a thin wrapper around
  :func:`scipy.integrate.solve_ivp`.  Having two independent implementations
  lets the test-suite cross-check every model.
* :mod:`repro.ode.steady_state` -- the pseudo-transient continuation +
  Newton production driver, an integrate-to-convergence driver, damped
  Newton iteration with a numerical Jacobian, Anderson acceleration, and a
  wrapper over :func:`scipy.optimize.root`.
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
from repro.ode.steady_state import (
    SteadyStateOptions,
    PathResult,
    integrate_to_steady_state,
    newton_steady_state,
    anderson_steady_state,
    scipy_steady_state,
    find_steady_state,
    solve_path,
    residual_norm,
)
from repro.ode.events import time_grid, sample_dense

__all__ = [
    "IntegrationResult",
    "SteadyStateResult",
    "integrate_rk4",
    "integrate_rk45",
    "integrate_scipy",
    "integrate",
    "SteadyStateOptions",
    "PathResult",
    "integrate_to_steady_state",
    "newton_steady_state",
    "anderson_steady_state",
    "scipy_steady_state",
    "find_steady_state",
    "solve_path",
    "residual_norm",
    "time_grid",
    "sample_dense",
]
