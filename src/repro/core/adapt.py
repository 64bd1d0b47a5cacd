"""The Adapt mechanism (Sec. 4.3) -- self-tuning of the CMFSD ratio ``rho``.

An obedient peer joins with ``rho = 0`` (system-optimal) and periodically
monitors the imbalance

    Delta = (upload rate through its virtual seed)
          - (download rate received from other peers' virtual seeds).

If ``Delta`` stays above a threshold the peer is giving more than it gets
and *raises* ``rho`` (keeping more bandwidth for its own tit-for-tat); if
``Delta`` stays below a second threshold the peer *lowers* ``rho`` toward
the collaborative optimum.

Note on thresholds: the paper writes the increase threshold ``phi_1``, the
decrease threshold ``phi_2`` and parenthetically ``phi_1 <= phi_2`` -- which
would make the two rules overlap for ``Delta`` between them.  The only
self-consistent reading is a dead band with the *decrease* threshold at or
below the *increase* threshold, which is what this implementation enforces
(``phi_decrease <= phi_increase``).

Two evaluation paths are provided:

* :func:`adapt_fixed_point` -- a fluid-level study.  Each class carries its
  own ``rho_i``; the CMFSD model is solved, every class observes its
  ``Delta_i`` and updates, and the loop repeats.  Cheating classes keep
  ``rho = 1`` regardless.
* :class:`AdaptController` -- the per-peer stateful controller, reused
  verbatim by the agent-based simulator (:mod:`repro.sim.adapt_runtime`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cmfsd import CMFSDModel
from repro.core.metrics import SystemMetrics
from repro.core.parameters import FluidParameters

__all__ = ["AdaptPolicy", "AdaptController", "AdaptTrace", "adapt_fixed_point"]


@dataclass(frozen=True)
class AdaptPolicy:
    """Parameters of the Adapt rule.

    Attributes
    ----------
    phi_increase:
        The paper's ``phi_1``: raise ``rho`` when ``Delta`` is consistently
        above this.
    phi_decrease:
        The paper's ``phi_2``: lower ``rho`` when ``Delta`` is consistently
        below this.  Must not exceed ``phi_increase`` (see module docstring).
    step_increase / step_decrease:
        The paper's ``v1`` / ``v2``.
    patience:
        How many consecutive observations constitute "consistently".
    initial_rho:
        Starting ratio for obedient peers (the paper recommends 0).
    """

    phi_increase: float = 0.0
    phi_decrease: float = 0.0
    step_increase: float = 0.1
    step_decrease: float = 0.1
    patience: int = 1
    initial_rho: float = 0.0

    def __post_init__(self) -> None:
        if self.phi_decrease > self.phi_increase:
            raise ValueError(
                f"need phi_decrease <= phi_increase, got "
                f"{self.phi_decrease} > {self.phi_increase}"
            )
        if self.step_increase < 0 or self.step_decrease < 0:
            raise ValueError("steps must be nonnegative")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if not 0.0 <= self.initial_rho <= 1.0:
            raise ValueError(f"initial_rho must be in [0, 1], got {self.initial_rho}")


class AdaptController:
    """Stateful per-peer Adapt controller.

    Feed one ``Delta`` observation per period via :meth:`observe`; the
    controller returns the (possibly updated) ``rho``.  "Consistently" is
    implemented as ``patience`` consecutive observations on the same side of
    the dead band; any observation inside the band resets both streaks.
    """

    def __init__(self, policy: AdaptPolicy):
        self.policy = policy
        self.rho = policy.initial_rho
        self._above_streak = 0
        self._below_streak = 0

    def observe(self, delta: float) -> float:
        """Record one imbalance observation; return the current ``rho``."""
        pol = self.policy
        if delta > pol.phi_increase:
            self._above_streak += 1
            self._below_streak = 0
            if self._above_streak >= pol.patience:
                self.rho = min(1.0, self.rho + pol.step_increase)
                self._above_streak = 0
        elif delta < pol.phi_decrease:
            self._below_streak += 1
            self._above_streak = 0
            if self._below_streak >= pol.patience:
                self.rho = max(0.0, self.rho - pol.step_decrease)
                self._below_streak = 0
        else:
            self._above_streak = 0
            self._below_streak = 0
        return self.rho

    def reset(self) -> None:
        """Restore the initial state (new download job)."""
        self.rho = self.policy.initial_rho
        self._above_streak = 0
        self._below_streak = 0


@dataclass(frozen=True)
class AdaptTrace:
    """Outcome of the fluid-level Adapt iteration.

    Attributes
    ----------
    rho_history:
        Array of shape ``(n_rounds + 1, K)``: per-class ``rho`` before each
        round and after the last.
    deltas:
        Array of shape ``(n_rounds, K)``: the ``Delta_i`` observed each round.
    converged:
        Whether ``rho`` stopped changing before the round budget ran out.
    final_metrics:
        System metrics of the CMFSD model at the final ``rho`` vector.
    """

    rho_history: np.ndarray
    deltas: np.ndarray
    converged: bool
    final_metrics: SystemMetrics

    @property
    def final_rho(self) -> np.ndarray:
        return self.rho_history[-1]

    @property
    def n_rounds(self) -> int:
        return int(self.deltas.shape[0])


def adapt_fixed_point(
    params: FluidParameters,
    class_rates: np.ndarray,
    policy: AdaptPolicy,
    *,
    cheater_classes: tuple[int, ...] = (),
    max_rounds: int = 100,
) -> AdaptTrace:
    """Iterate the Adapt rule on the fluid model until ``rho`` settles.

    Every class runs its own :class:`AdaptController` (cheater classes are
    pinned at ``rho = 1``); each round solves the CMFSD steady state at the
    current per-class ``rho`` vector, feeds each class its ``Delta_i`` and
    applies the update.  Classes that are empty (``lambda_i = 0`` or class 1,
    which never virtual-seeds) keep their ``rho`` untouched.  Each round's
    stationary point comes from the CMFSD scalar root
    (:meth:`CMFSDModel.steady_state`).
    """
    K = params.num_files
    rates = np.asarray(class_rates, dtype=float)
    if rates.shape != (K,):
        raise ValueError(f"class_rates must have shape ({K},), got {rates.shape}")
    for c in cheater_classes:
        if not 1 <= c <= K:
            raise ValueError(f"cheater class {c} outside 1..{K}")

    controllers = [AdaptController(policy) for _ in range(K)]
    rho = np.full(K, policy.initial_rho)
    for c in cheater_classes:
        rho[c - 1] = 1.0

    history = [rho.copy()]
    deltas_seen: list[np.ndarray] = []
    converged = False
    model = CMFSDModel(params=params, class_rates=rates, rho=rho)
    for _ in range(max_rounds):
        steady = model.steady_state()
        deltas = model.virtual_seed_balance(steady)
        deltas_seen.append(deltas.copy())
        new_rho = rho.copy()
        for i in range(1, K + 1):
            if i in cheater_classes or i == 1:
                continue  # cheaters pinned at 1; class 1 has no virtual seed
            if rates[i - 1] <= 0 or not np.isfinite(deltas[i - 1]):
                continue
            new_rho[i - 1] = controllers[i - 1].observe(float(deltas[i - 1]))
        history.append(new_rho.copy())
        if np.allclose(new_rho, rho, atol=1e-12):
            converged = True
            rho = new_rho
            break
        rho = new_rho
        model = CMFSDModel(params=params, class_rates=rates, rho=rho)

    final_model = CMFSDModel(params=params, class_rates=rates, rho=rho)
    final_steady = final_model.steady_state()
    return AdaptTrace(
        rho_history=np.asarray(history),
        deltas=np.asarray(deltas_seen) if deltas_seen else np.empty((0, K)),
        converged=converged,
        final_metrics=final_model.system_metrics(final_steady),
    )
