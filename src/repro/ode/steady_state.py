"""Steady-state options and the residual every stationary point is judged by.

The fluid models of the paper are evaluated at their stable operating point
``f(y*) = 0``.  Each model computes it directly -- a closed form for
MTCD/MTSD, one monotone scalar root for CMFSD (Eq. 5,
:mod:`repro.core.cmfsd`) and the Sec.-2 heterogeneous model
(:mod:`repro.core.heterogeneous`) -- and reports the true
:func:`residual_norm` of the state it built.  The general-purpose numerical
drivers those answers are checked against live in :mod:`repro.ode.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ode.integrators import RHS

__all__ = ["SteadyStateOptions", "residual_norm"]


@dataclass(frozen=True)
class SteadyStateOptions:
    """Tuning knobs for the stationary-point solvers.

    Only ``tol`` applies to the models' own roots; the other knobs tune
    the drivers of :mod:`repro.ode.reference`.

    Attributes
    ----------
    tol:
        Convergence threshold on the scaled residual
        ``||f(y)||_inf / max(1, ||y||_inf)``.
    t_block:
        Length of each integration block for
        :func:`~repro.ode.reference.integrate_to_steady_state`; the residual
        is checked after every block.  No other driver integrates, so no
        other reads it.
    max_blocks:
        Maximum number of integration blocks before
        :func:`~repro.ode.reference.integrate_to_steady_state` gives up
        (read by it alone).
    max_newton_iter:
        Iteration cap for the Newton polisher.
    fd_eps:
        Relative perturbation for the finite-difference Jacobian.
    nonnegative:
        Project iterates onto the nonnegative orthant (peer populations can
        never be negative; Newton steps occasionally overshoot).
    """

    tol: float = 1e-10
    t_block: float = 500.0
    max_blocks: int = 200
    max_newton_iter: int = 50
    fd_eps: float = 1e-7
    nonnegative: bool = True


def residual_norm(rhs: RHS, y: np.ndarray, t: float = 0.0) -> float:
    """Scaled residual ``||f(t, y)||_inf / max(1, ||y||_inf)``."""
    y = np.asarray(y, dtype=float)
    return _scaled_residual(np.asarray(rhs(t, y), dtype=float), y)


def _scaled_residual(f: np.ndarray, y: np.ndarray) -> float:
    """:func:`residual_norm` from an already evaluated ``f = rhs(t, y)``."""
    scale = max(1.0, float(np.max(np.abs(y))) if y.size else 1.0)
    return float(np.max(np.abs(f))) / scale if f.size else 0.0
