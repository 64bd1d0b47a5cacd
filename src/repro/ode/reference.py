"""Reference steady-state drivers: the oracle the stationary-point roots are
checked against.

Every fluid model's production stationary point is closed form or one
monotone scalar root (:mod:`repro.core.mtcd`, :mod:`repro.core.cmfsd`,
:mod:`repro.core.heterogeneous`).  The general-purpose numerical drivers
below find ``f(y*) = 0`` for any autonomous ODE system and serve the tests,
the benchmarks and the cold reference path of
:func:`repro.core.cmfsd.steady_state_path`, which imports this module only
when asked for it; no production module imports it at import time.

* :func:`integrate_to_steady_state` -- follow the flow until the derivative
  norm is negligible.  Robust (the models are globally attracting for valid
  parameters) but slower.
* :func:`newton_steady_state` -- damped Newton with a finite-difference
  Jacobian.  Fast local convergence; used to polish the coarse phase.
* :func:`find_steady_state` -- pseudo-transient continuation toward the
  attractor, then a Newton polish, falling back gracefully.
* :func:`solve_path` -- :func:`find_steady_state` from one start at every
  point of a parameter path.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.obs import current_registry, current_tracer
from repro.ode.integrators import RHS, integrate_scipy
from repro.ode.steady_state import SteadyStateOptions, _scaled_residual, residual_norm
from repro.ode.types import IntegrationResult, SteadyStateResult

__all__ = [
    "PathResult",
    "integrate_to_steady_state",
    "newton_steady_state",
    "find_steady_state",
    "solve_path",
]


#: Pseudo-transient continuation schedule of :func:`find_steady_state`'s
#: coarse phase: the first pseudo-time step, its factor on an accepted step
#: and on a rejected one, and the budget of steps (accepted and rejected).
PTC_DT0 = 1.0
PTC_GROWTH = 4.0
PTC_SHRINK = 0.25
PTC_MAX_STEPS = 100


def integrate_to_steady_state(
    rhs: RHS,
    y0: np.ndarray,
    options: SteadyStateOptions | None = None,
) -> SteadyStateResult:
    """Follow the flow of ``dy/dt = f(t, y)`` until it stops moving.

    Integrates in blocks of ``options.t_block`` time units, checking the
    scaled residual after each block.  Converges for any globally attracting
    system, which the paper's fluid models are whenever their stability
    conditions hold.
    """
    opts = options or SteadyStateOptions()
    y = np.array(y0, dtype=float)
    t = 0.0
    last_traj: IntegrationResult | None = None
    for block in range(1, opts.max_blocks + 1):
        last_traj = integrate_scipy(rhs, y, (t, t + opts.t_block), rtol=1e-10, atol=1e-12)
        if not last_traj.success:
            return SteadyStateResult(
                state=last_traj.final_state,
                residual=residual_norm(rhs, last_traj.final_state, last_traj.final_time),
                converged=False,
                n_iterations=block,
                method="integrate",
                trajectory=last_traj,
            )
        y = last_traj.final_state.copy()
        if opts.nonnegative:
            np.clip(y, 0.0, None, out=y)
        t = last_traj.final_time
        res = residual_norm(rhs, y, t)
        if res < opts.tol:
            return SteadyStateResult(
                state=y,
                residual=res,
                converged=True,
                n_iterations=block,
                method="integrate",
                trajectory=last_traj,
            )
    return SteadyStateResult(
        state=y,
        residual=residual_norm(rhs, y, t),
        converged=False,
        n_iterations=opts.max_blocks,
        method="integrate",
        trajectory=last_traj,
    )


class _CountingRHS:
    """RHS wrapper that tallies scalar-equivalent evaluations.

    A 2-D call with ``k`` columns counts as ``k`` evaluations, so the
    counter measures *work requested of the model*, not Python call
    overhead -- Jacobian batching does not show in it (batching saves
    interpreter time, not model evaluations).
    """

    __slots__ = ("rhs", "evals", "batch_key")

    def __init__(self, rhs: RHS):
        self.rhs = rhs
        self.evals = 0
        self.batch_key = _rhs_batch_key(rhs)

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        out = self.rhs(t, y)
        self.evals += y.shape[1] if getattr(y, "ndim", 1) == 2 else 1
        return out

    def publish(self, counter: str) -> None:
        """Fold the tally into ``counter`` and the canonical total."""
        reg = current_registry()
        if reg.enabled and self.evals:
            reg.inc(counter, self.evals)
            reg.inc("ode.rhs_evals", self.evals)


#: per-RHS-function memo of whether it accepts 2-D state batches
#: (scipy ``vectorized`` convention: ``(dim, k) -> (dim, k)``).
_BATCH_CAPABLE: "weakref.WeakKeyDictionary[object, bool]" = weakref.WeakKeyDictionary()


def _rhs_batch_key(rhs: RHS) -> object:
    """Key batch capability by the underlying function, not the instance.

    Bound methods are recreated on every attribute access and counting
    wrappers are per-solve, so caching on the callable object itself would
    never hit; ``__func__`` (or a wrapper's forwarded key) is stable.
    """
    forwarded = getattr(rhs, "batch_key", None)
    if forwarded is not None:
        return forwarded
    return getattr(rhs, "__func__", rhs)


def _batch_capability(rhs: RHS) -> bool | None:
    try:
        return _BATCH_CAPABLE.get(_rhs_batch_key(rhs))
    except TypeError:  # unhashable / non-weakrefable callable
        return False


def _remember_batch_capability(rhs: RHS, capable: bool) -> None:
    try:
        _BATCH_CAPABLE[_rhs_batch_key(rhs)] = capable
    except TypeError:
        pass


def _batched_jacobian_columns(
    rhs: RHS, y: np.ndarray, steps: np.ndarray
) -> np.ndarray | None:
    """All ``n`` perturbed evaluations in one 2-D RHS call, if supported.

    The first probe of a given RHS function verifies column 0 against a
    scalar evaluation before trusting the batch: an RHS written for 1-D
    states may broadcast into the right *shape* while computing the wrong
    values (e.g. a ``sum`` over all elements instead of per column).
    Verified capability is memoised per underlying function.  The probe
    calls the function beneath any :class:`_CountingRHS` wrappers, so
    whether the process-wide memo was warm never shows in the solvers'
    ``rhs_evals`` counters.
    """
    capable = _batch_capability(rhs)
    if capable is False:
        return None
    yp = y[:, None] + np.diag(steps)
    try:
        fp = np.asarray(rhs(0.0, yp), dtype=float)
    except Exception:
        fp = None
    if fp is None or fp.shape != yp.shape:
        _remember_batch_capability(rhs, False)
        return None
    if capable is None:
        probe = rhs
        while isinstance(probe, _CountingRHS):
            probe = probe.rhs
        reference = np.asarray(probe(0.0, yp[:, 0].copy()), dtype=float)
        if not np.allclose(fp[:, 0], reference, rtol=1e-9, atol=1e-12):
            _remember_batch_capability(rhs, False)
            return None
        _remember_batch_capability(rhs, True)
    return fp


def _numerical_jacobian(
    rhs: RHS, y: np.ndarray, eps_rel: float, f0: np.ndarray | None = None
) -> np.ndarray:
    """Forward-difference Jacobian of ``f(0, .)`` at ``y``.

    The ``n`` column perturbations are evaluated in a single batched 2-D
    RHS call when the RHS supports it (see :func:`_batched_jacobian_columns`);
    otherwise the classic one-column-per-call loop runs.  Callers that
    already hold ``f0 = f(0, y)`` pass it to skip re-evaluating it.
    """
    n = y.size
    if f0 is None:
        f0 = np.asarray(rhs(0.0, y), dtype=float)
    steps = eps_rel * np.maximum(np.abs(y), 1.0)
    reg = current_registry()
    if reg.enabled:
        reg.inc("ode.newton.jacobian_builds")
    fp = _batched_jacobian_columns(rhs, y, steps)
    if fp is not None:
        if reg.enabled:
            reg.inc("ode.newton.jacobian_batched")
        return (fp - f0[:, None]) / steps[None, :]
    if reg.enabled:
        reg.inc("ode.newton.jacobian_loops")
    jac = np.empty((n, n))
    for j in range(n):
        yp = y.copy()
        yp[j] += steps[j]
        jac[:, j] = (np.asarray(rhs(0.0, yp), dtype=float) - f0) / steps[j]
    return jac


def newton_steady_state(
    rhs: RHS,
    y0: np.ndarray,
    options: SteadyStateOptions | None = None,
) -> SteadyStateResult:
    """Damped Newton iteration on ``f(0, y) = 0``.

    A backtracking line search halves the step until the residual norm
    decreases (Armijo-free sufficient-decrease on ``||f||``); iterates are
    optionally projected onto the nonnegative orthant.  Each iterate is
    evaluated once: the accepted line-search trial's ``f`` serves as the
    next iterate's residual and as its Jacobian's base point.
    """
    counted = _CountingRHS(rhs)
    try:
        return _newton_steady_state(counted, y0, options)
    finally:
        counted.publish("ode.newton.rhs_evals")


def _newton_steady_state(
    rhs: RHS,
    y0: np.ndarray,
    options: SteadyStateOptions | None = None,
) -> SteadyStateResult:
    opts = options or SteadyStateOptions()
    y = np.array(y0, dtype=float)
    f = np.asarray(rhs(0.0, y), dtype=float)
    for it in range(1, opts.max_newton_iter + 1):
        res = _scaled_residual(f, y)
        if res < opts.tol:
            return SteadyStateResult(
                state=y, residual=res, converged=True, n_iterations=it - 1, method="newton"
            )
        jac = _numerical_jacobian(rhs, y, opts.fd_eps, f)
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -f, rcond=None)[0]
        fnorm = float(np.linalg.norm(f))
        alpha = 1.0
        for _ in range(30):
            y_trial = y + alpha * step
            if opts.nonnegative:
                y_trial = np.clip(y_trial, 0.0, None)
            f_trial = np.asarray(rhs(0.0, y_trial), dtype=float)
            if float(np.linalg.norm(f_trial)) < fnorm:
                break
            alpha *= 0.5
        else:
            # No decrease along the Newton direction: report non-convergence.
            return SteadyStateResult(
                state=y, residual=res, converged=False, n_iterations=it, method="newton"
            )
        y, f = y_trial, f_trial
    res = _scaled_residual(f, y)
    return SteadyStateResult(
        state=y,
        residual=res,
        converged=res < opts.tol,
        n_iterations=opts.max_newton_iter,
        method="newton",
    )


def _pseudo_transient(
    rhs: RHS, y0: np.ndarray, tol: float, opts: SteadyStateOptions
) -> SteadyStateResult:
    """Pseudo-transient continuation toward a stationary point.

    Each step is one linearly implicit Euler step of the flow,
    ``(I/dt - J) delta = f(y)``, with ``J`` the finite-difference Jacobian
    at ``y``: small ``dt`` follows the flow into the attractor's basin,
    large ``dt`` turns the step into a Newton step (Kelley & Keyes 1998).
    An accepted step grows ``dt`` by :data:`PTC_GROWTH`; a step whose
    ``||f||`` is non-finite or more than doubles is rejected and shrinks
    ``dt`` by :data:`PTC_SHRINK`.  ``n_iterations`` counts accepted and
    rejected steps, at most :data:`PTC_MAX_STEPS`.
    """
    y = np.array(y0, dtype=float)
    if opts.nonnegative:
        np.clip(y, 0.0, None, out=y)
    f = np.asarray(rhs(0.0, y), dtype=float)
    fnorm = float(np.linalg.norm(f))
    res = _scaled_residual(f, y)
    identity = np.eye(y.size)
    dt = PTC_DT0
    jac: np.ndarray | None = None
    steps = 0
    while res >= tol and steps < PTC_MAX_STEPS:
        steps += 1
        if jac is None:
            jac = _numerical_jacobian(rhs, y, opts.fd_eps, f)
        lhs = identity / dt - jac
        try:
            delta = np.linalg.solve(lhs, f)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(lhs, f, rcond=None)[0]
        y_trial = y + delta
        if opts.nonnegative:
            np.clip(y_trial, 0.0, None, out=y_trial)
        f_trial = np.asarray(rhs(0.0, y_trial), dtype=float)
        fnorm_trial = float(np.linalg.norm(f_trial))
        if not np.isfinite(fnorm_trial) or fnorm_trial > 2.0 * fnorm:
            dt *= PTC_SHRINK
            continue
        y, f, fnorm, jac = y_trial, f_trial, fnorm_trial, None
        res = _scaled_residual(f, y)
        dt *= PTC_GROWTH
    return SteadyStateResult(
        state=y, residual=res, converged=res < tol, n_iterations=steps, method="ptc"
    )


def find_steady_state(
    rhs: RHS,
    y0: np.ndarray,
    options: SteadyStateOptions | None = None,
) -> SteadyStateResult:
    """Pseudo-transient continuation, then a Newton polish.

    Pseudo-transient continuation (:data:`PTC_DT0` and friends) follows the
    flow with implicit steps that lengthen geometrically, so it stays in
    the attractor's basin as integration would, at a few Jacobian solves'
    cost; it stops at a coarse ``max(tol, 1e-8)``.  Newton supplies the
    final digits cheaply.  If Newton fails to improve, the coarse answer is
    returned (tagged with its own convergence status).  ``n_iterations``
    (and the ``ode.steady_state.iterations`` counter) is the number of
    continuation steps, accepted and rejected, plus Newton iterations.
    Continuation RHS work is counted as ``ode.ptc.rhs_evals``.
    """
    with current_tracer().span("ode.find_steady_state", dim=int(np.size(y0))):
        result = _find_steady_state(rhs, y0, options)
    reg = current_registry()
    if reg.enabled:
        reg.inc("ode.steady_state.solves")
        reg.inc("ode.steady_state.iterations", result.n_iterations)
        if not result.converged:
            reg.inc("ode.steady_state.not_converged")
    return result


def _find_steady_state(
    rhs: RHS,
    y0: np.ndarray,
    options: SteadyStateOptions | None = None,
) -> SteadyStateResult:
    opts = options or SteadyStateOptions()
    counted = _CountingRHS(rhs)
    try:
        coarse = _pseudo_transient(counted, y0, max(opts.tol, 1e-8), opts)
    finally:
        counted.publish("ode.ptc.rhs_evals")
    polished = newton_steady_state(rhs, coarse.state, opts)
    # Newton starts from the coarse state and only takes steps that lower
    # ||f||, so it converges whenever the coarse answer already met tol;
    # otherwise report the better of the two.
    best = polished if polished.residual <= coarse.residual else coarse
    return SteadyStateResult(
        state=best.state,
        residual=best.residual,
        converged=best.residual < opts.tol,
        n_iterations=coarse.n_iterations + polished.n_iterations,
        method="ptc+newton",
    )


@dataclass(frozen=True)
class PathResult:
    """Outcome of a :func:`solve_path` sweep: one result per parameter point."""

    parameters: tuple
    results: tuple[SteadyStateResult, ...]

    @property
    def states(self) -> list[np.ndarray]:
        return [r.state for r in self.results]

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.results)


def solve_path(
    make_rhs: Callable[[object], RHS],
    parameters: Sequence | Iterable,
    y0: np.ndarray,
    options: SteadyStateOptions | None = None,
) -> PathResult:
    """Stationary points along a parameter path, each solved cold.

    Solves ``f_p(y) = 0`` for each ``p`` in ``parameters`` (in order), where
    ``make_rhs(p)`` builds the RHS for one parameter point, by
    :func:`find_steady_state` from ``y0``.  Increments
    ``ode.solve_path.points``.
    """
    y0 = np.asarray(y0, dtype=float)
    params = tuple(parameters)
    with current_tracer().span("ode.solve_path", points=len(params)):
        results = tuple(find_steady_state(make_rhs(p), y0, options) for p in params)
    reg = current_registry()
    if reg.enabled:
        reg.inc("ode.solve_path.points", len(params))
    return PathResult(parameters=params, results=results)
