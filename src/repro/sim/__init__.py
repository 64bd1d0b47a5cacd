"""Flow-level discrete-event simulator of multi-file BitTorrent downloading.

The paper evaluates its fluid models purely numerically; this subpackage
supplies the peer-level system the models abstract, so that

* the fluid steady states can be cross-validated against an independent
  implementation (see :mod:`repro.experiments.validation`), and
* the Adapt mechanism and cheating behaviours -- which the paper leaves as
  future work -- can be studied at the level where they actually live.

The simulator is *flow-level*: peers exchange fluid at the rates prescribed
by the paper's Sec.-2 allocation assumptions (tit-for-tat returns a
downloader ``eta`` times its own contribution; seed capacity is split
proportionally to download bandwidth).  There are no chunk maps -- that
detail is already abstracted into ``eta`` by the paper itself.

Layering (bottom-up): :mod:`engine` (event queue) -> :mod:`topology`
(live neighbour matrices of tracker-limited swarms) -> :mod:`swarm`
(per-file swarms, bandwidth bookkeeping) -> :mod:`system` (progress
advancement, completions) -> :mod:`behaviors` (per-scheme user state
machines) -> :mod:`scenarios` (ready-made experiment setups).
"""

from repro.sim.engine import EventQueue, Simulator
from repro.sim.rng import RandomStreams
from repro.sim.entities import DownloadEntry, EntrySpan, UserRecord
from repro.sim.peerstore import PeerStore
from repro.sim.swarm import SeedPolicy, Swarm, SwarmGroup, WorkSnapshot
from repro.sim.trace import EventKind, EventTrace, TraceEvent
from repro.sim.tracker import AnnounceEvent, ScrapeStats, Tracker
from repro.sim.bandwidth import downloader_rates
from repro.sim.arrivals import ArrivalProcess
from repro.sim.metrics import MetricsCollector, PopulationSample, SimulationSummary
from repro.sim.system import SimulationSystem
from repro.sim.behaviors import (
    BehaviorKind,
    UserBehavior,
    make_behavior,
)
from repro.sim.adapt_runtime import AdaptRuntime
from repro.sim.scenarios import ScenarioConfig, build_simulation, run_scenario

__all__ = [
    "EventQueue",
    "Simulator",
    "RandomStreams",
    "DownloadEntry",
    "EntrySpan",
    "UserRecord",
    "PeerStore",
    "SeedPolicy",
    "Swarm",
    "SwarmGroup",
    "WorkSnapshot",
    "AnnounceEvent",
    "ScrapeStats",
    "Tracker",
    "EventKind",
    "EventTrace",
    "TraceEvent",
    "downloader_rates",
    "ArrivalProcess",
    "MetricsCollector",
    "PopulationSample",
    "SimulationSummary",
    "SimulationSystem",
    "BehaviorKind",
    "UserBehavior",
    "make_behavior",
    "AdaptRuntime",
    "ScenarioConfig",
    "build_simulation",
    "run_scenario",
]
