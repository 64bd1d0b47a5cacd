"""repro -- multiple-file BitTorrent downloading: fluid models + simulator.

A production-quality reproduction of Tian, Wu & Ng, *Analyzing Multiple File
Downloading in BitTorrent* (ICPP 2006).  The package provides:

* :mod:`repro.core` -- the paper's fluid models (MTCD, MTSD, MFCD, CMFSD),
  the file-correlation workload model, and the Adapt mechanism.
* :mod:`repro.ode` -- ODE integration and steady-state numerics.
* :mod:`repro.sim` -- a flow-level discrete-event BitTorrent simulator used
  to cross-validate the fluid models and to study Adapt/cheating.
* :mod:`repro.analysis` -- statistics, Little's-law checks, tables and
  terminal plots.
* :mod:`repro.experiments` -- drivers that regenerate every figure and
  table of the paper (run ``python -m repro list``).
* :mod:`repro.service` -- a live asyncio swarm service over the simulator:
  streaming event ingestion with a deterministic record/replay journal
  (``repro-bt serve`` / ``repro-bt replay``).

Quickstart::

    from repro import PAPER_PARAMETERS, CorrelationModel, Scheme, compare_schemes

    workload = CorrelationModel(num_files=10, p=0.9)
    for scheme, metrics in compare_schemes(PAPER_PARAMETERS, workload).items():
        print(scheme.value, metrics.avg_online_time_per_file)
"""

from repro.core import (
    AdaptController,
    AdaptPolicy,
    AdaptTrace,
    CMFSDModel,
    CMFSDSteadyState,
    ClassMetrics,
    CorrelationModel,
    FluidModel,
    FluidParameters,
    HeterogeneousModel,
    MFCDModel,
    MTCDModel,
    MTSDModel,
    PAPER_PARAMETERS,
    PeerClass,
    Scheme,
    SingleTorrentModel,
    SystemMetrics,
    adapt_fixed_point,
    build_model,
    compare_schemes,
    evaluate_scheme,
)

__version__ = "1.22.0"

__all__ = [
    "AdaptController",
    "AdaptPolicy",
    "AdaptTrace",
    "CMFSDModel",
    "CMFSDSteadyState",
    "ClassMetrics",
    "CorrelationModel",
    "FluidModel",
    "FluidParameters",
    "HeterogeneousModel",
    "MFCDModel",
    "MTCDModel",
    "MTSDModel",
    "PAPER_PARAMETERS",
    "PeerClass",
    "Scheme",
    "SingleTorrentModel",
    "SystemMetrics",
    "adapt_fixed_point",
    "build_model",
    "compare_schemes",
    "evaluate_scheme",
    "__version__",
]
