"""Fluid models for multiple-file BitTorrent downloading (the paper's core).

The subpackage implements, from the bottom up:

* :mod:`repro.core.parameters` -- the Table-1 parameter set.
* :mod:`repro.core.correlation` -- the Sec.-4.1 binomial workload model.
* :mod:`repro.core.single_torrent` -- the Qiu--Srikant baseline (Eq. 3).
* :mod:`repro.core.heterogeneous` -- the general multi-class model (Sec. 2).
* :mod:`repro.core.mtcd` / :mod:`repro.core.mtsd` / :mod:`repro.core.mfcd`
  -- the three conventional schemes (Eq. 1/2/4, Sec. 3.4).
* :mod:`repro.core.cmfsd` -- the paper's collaborative scheme (Eq. 5).
* :mod:`repro.core.adapt` -- the Sec.-4.3 self-adaptive deployment rule.
* :mod:`repro.core.schemes` -- one uniform evaluation interface.
"""

from repro.core.parameters import (
    FluidParameters,
    PAPER_PARAMETERS,
    TABLE1_GLOSSARY,
    format_table1,
)
from repro.core.correlation import CorrelationModel
from repro.core.metrics import ClassMetrics, SystemMetrics, aggregate_metrics
from repro.core.single_torrent import SingleTorrentModel, SingleTorrentSteadyState
from repro.core.heterogeneous import (
    HeterogeneousModel,
    HeterogeneousSteadyState,
    PeerClass,
)
from repro.core.advisor import Recommendation, SchemeAssessment, recommend
from repro.core.batched import BatchedDownloadModel
from repro.core.mtcd import MTCDModel, MTCDSteadyState
from repro.core.mtsd import MTSDModel
from repro.core.mfcd import MFCDModel
from repro.core.cmfsd import CMFSDModel, CMFSDSteadyState, StateIndex, steady_state_path
from repro.core.adapt import AdaptController, AdaptPolicy, AdaptTrace, adapt_fixed_point
from repro.core.schemes import (
    FluidModel,
    Scheme,
    build_model,
    compare_schemes,
)
from repro.core.transient import (
    DrainProfile,
    cmfsd_flash_crowd_state,
    drain_profile,
    mtcd_flash_crowd_state,
    time_to_steady_state,
)

__all__ = [
    "FluidParameters",
    "PAPER_PARAMETERS",
    "TABLE1_GLOSSARY",
    "format_table1",
    "CorrelationModel",
    "ClassMetrics",
    "SystemMetrics",
    "aggregate_metrics",
    "SingleTorrentModel",
    "SingleTorrentSteadyState",
    "HeterogeneousModel",
    "HeterogeneousSteadyState",
    "PeerClass",
    "Recommendation",
    "SchemeAssessment",
    "recommend",
    "BatchedDownloadModel",
    "MTCDModel",
    "MTCDSteadyState",
    "MTSDModel",
    "MFCDModel",
    "CMFSDModel",
    "CMFSDSteadyState",
    "StateIndex",
    "steady_state_path",
    "AdaptController",
    "AdaptPolicy",
    "AdaptTrace",
    "adapt_fixed_point",
    "FluidModel",
    "Scheme",
    "build_model",
    "compare_schemes",
    "DrainProfile",
    "cmfsd_flash_crowd_state",
    "drain_profile",
    "mtcd_flash_crowd_state",
    "time_to_steady_state",
]
