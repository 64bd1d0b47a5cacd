"""Uniform front door over the four downloading schemes.

Experiments, benchmarks and users all want the same thing: "given a fluid
configuration and a workload, what are the metrics of scheme X?".  This
module provides that via :class:`Scheme` and :func:`build_model` (plus
:func:`compare_schemes` for several schemes at once), hiding which schemes
have closed forms (MTCD, MTSD, MFCD) and which need ODE solves (CMFSD).

Every concrete model satisfies the :class:`FluidModel` protocol
(``state_dim`` / ``rhs`` / ``steady_state`` / ``class_metrics`` /
``system_metrics``), so the front door is a single factory table
(:func:`build_model`) followed by protocol calls -- there is no per-scheme
branching in the evaluation path, and new schemes plug in by registering a
builder.

>>> from repro.core import PAPER_PARAMETERS, CorrelationModel
>>> workload = CorrelationModel(num_files=10, p=0.9)
>>> mtsd = build_model(Scheme.MTSD, PAPER_PARAMETERS, workload).system_metrics()
>>> round(mtsd.avg_online_time_per_file, 1)   # flat at T + 1/gamma
80.0
>>> mtcd = build_model(Scheme.MTCD, PAPER_PARAMETERS, workload)
>>> round(mtcd.system_metrics().avg_online_time_per_file, 1)   # p=0.9 penalty
97.8
>>> isinstance(mtcd, FluidModel)
True
"""

from __future__ import annotations

import enum
from typing import Callable, Mapping, Protocol, runtime_checkable

import numpy as np

from repro.core.cmfsd import CMFSDModel
from repro.core.correlation import CorrelationModel
from repro.core.metrics import ClassMetrics, SystemMetrics
from repro.core.mfcd import MFCDModel
from repro.core.mtcd import MTCDModel
from repro.core.mtsd import MTSDModel
from repro.core.parameters import FluidParameters

__all__ = [
    "FluidModel",
    "Scheme",
    "build_model",
    "compare_schemes",
]


@runtime_checkable
class FluidModel(Protocol):
    """What every fluid performance model must offer.

    The contract has two halves.  The *ODE view* (``state_dim`` + ``rhs``)
    exposes the model's dynamics to the generic solvers, transient studies
    and instrumentation in :mod:`repro.ode`; ``steady_state`` returns the
    model's natural operating-point container (each scheme has its own --
    the protocol only requires that one exists).  The *metrics view*
    (``class_metrics`` + ``system_metrics``) produces the paper's
    vocabulary: :class:`~repro.core.metrics.ClassMetrics` per class and the
    rate-weighted :class:`~repro.core.metrics.SystemMetrics` aggregate.

    ``isinstance(model, FluidModel)`` checks structural conformance at
    runtime (method presence, not signatures).
    """

    @property
    def state_dim(self) -> int:
        """Dimension of the flat ODE state vector."""
        ...

    def rhs(self, t: float, state: np.ndarray) -> np.ndarray:
        """Right-hand side of the model's fluid ODE."""
        ...

    def steady_state(self) -> object:
        """The model's stationary operating point (scheme-specific type)."""
        ...

    def class_metrics(self, i: int) -> ClassMetrics:
        """Steady-state metrics of class ``i`` (users requesting ``i`` files)."""
        ...

    def system_metrics(self) -> SystemMetrics:
        """Rate-weighted aggregate over all classes."""
        ...


class Scheme(enum.Enum):
    """The four downloading schemes analysed in the paper."""

    MTCD = "MTCD"  # multi-torrent concurrent (Sec. 3.2)
    MTSD = "MTSD"  # multi-torrent sequential (Sec. 3.3)
    MFCD = "MFCD"  # multi-file torrent concurrent (Sec. 3.4)
    CMFSD = "CMFSD"  # collaborative multi-file sequential (Sec. 3.5)

    @property
    def is_sequential(self) -> bool:
        return self in (Scheme.MTSD, Scheme.CMFSD)

    @property
    def is_multi_file_torrent(self) -> bool:
        """Whether the files live in one torrent (vs. K separate torrents)."""
        return self in (Scheme.MFCD, Scheme.CMFSD)


#: scheme -> model builder; ``rho`` reaches only the schemes that use it
_BUILDERS: dict[
    Scheme,
    Callable[[FluidParameters, CorrelationModel, "float | np.ndarray"], FluidModel],
] = {
    Scheme.MTCD: lambda params, corr, rho: MTCDModel.from_correlation(params, corr),
    Scheme.MTSD: lambda params, corr, rho: MTSDModel.from_correlation(params, corr),
    Scheme.MFCD: lambda params, corr, rho: MFCDModel.from_correlation(params, corr),
    Scheme.CMFSD: lambda params, corr, rho: CMFSDModel.from_correlation(
        params, corr, rho=rho
    ),
}


def build_model(
    scheme: Scheme,
    params: FluidParameters,
    correlation: CorrelationModel,
    *,
    rho: float | np.ndarray = 0.0,
) -> FluidModel:
    """Construct the scheme's model as a :class:`FluidModel`.

    This is the single dispatch point of the front door: everything after
    it (``system_metrics``, ``class_metrics``, ``rhs`` for transients) is a
    protocol call.  ``rho`` is the collaboration ratio and only affects
    CMFSD; other schemes ignore it.
    """
    try:
        builder = _BUILDERS[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}") from None
    return builder(params, correlation, rho)


def compare_schemes(
    params: FluidParameters,
    correlation: CorrelationModel,
    schemes: tuple[Scheme, ...] = tuple(Scheme),
    *,
    rho: float | np.ndarray = 0.0,
) -> Mapping[Scheme, SystemMetrics]:
    """Evaluate several schemes on the same workload.

    Returns a dict preserving the requested order, ready for tabulation.
    """
    return {
        s: build_model(s, params, correlation, rho=rho).system_metrics()
        for s in schemes
    }
