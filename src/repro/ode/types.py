"""Result containers shared by the ODE solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["IntegrationResult", "SteadyStateResult"]


@dataclass(frozen=True)
class IntegrationResult:
    """Trajectory produced by an initial-value-problem solver.

    Attributes
    ----------
    t:
        Sample times, shape ``(n,)``, strictly increasing.
    y:
        States at those times, shape ``(n, dim)``.
    n_steps:
        Number of accepted solver steps (for fixed-step solvers this equals
        ``n - 1``).
    n_rhs_evals:
        Number of right-hand-side evaluations performed.
    method:
        Name of the solver that produced the trajectory.
    success:
        ``False`` if the solver aborted (e.g. step-size underflow).
    message:
        Human-readable completion status.
    stop_reason:
        Machine-readable termination cause -- one of ``"completed"`` (the
        solver reached the end of ``t_span``), ``"max_steps"`` (step budget
        exhausted), ``"step_underflow"`` (adaptive step collapsed),
        ``"event"`` (a terminal event fired) or ``"failure"`` (backend
        error).  Callers previously had to infer this from ``success`` +
        ``message`` string matching.
    n_rejected:
        Number of trial steps rejected by the error control (adaptive
        solvers only; ``0`` for fixed-step and backend solvers).
    """

    t: np.ndarray
    y: np.ndarray
    n_steps: int
    n_rhs_evals: int
    method: str
    success: bool = True
    message: str = "completed"
    stop_reason: str = "completed"
    n_rejected: int = 0

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if t.ndim != 1:
            raise ValueError(f"t must be one-dimensional, got shape {t.shape}")
        if y.ndim != 2 or y.shape[0] != t.shape[0]:
            raise ValueError(
                f"y must have shape (len(t), dim); got {y.shape} for {t.shape[0]} times"
            )
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)

    @property
    def final_time(self) -> float:
        """Last sample time."""
        return float(self.t[-1])

    @property
    def final_state(self) -> np.ndarray:
        """State at the last sample time (view into ``y``)."""
        return self.y[-1]

    @property
    def dim(self) -> int:
        """Dimension of the state vector."""
        return int(self.y.shape[1])


@dataclass(frozen=True)
class SteadyStateResult:
    """Stationary point located for ``f(t, y) = 0``.

    Attributes
    ----------
    state:
        The stationary state vector.
    residual:
        Infinity norm of ``f(t, state)`` at the reported state.
    converged:
        Whether the requested tolerance was met.
    n_iterations:
        Iterations (Newton/Anderson), integration blocks, or continuation
        steps plus Newton iterations (:func:`find_steady_state`) used.
    method:
        Name of the algorithm that produced the state.
    trajectory:
        Optional :class:`IntegrationResult` for integrate-to-convergence
        drivers; ``None`` for purely algebraic solvers.
    """

    state: np.ndarray
    residual: float
    converged: bool
    n_iterations: int
    method: str
    trajectory: IntegrationResult | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "state", np.asarray(self.state, dtype=float))
