"""Declarative scenario DSL compiling to every backend of the stack.

One :class:`ScenarioSpec` document (YAML/JSON or built in code) describes a
workload -- scheme, fluid parameters, correlation workload, arrivals,
churn, collaboration/cheating behaviour, seed placement, bandwidth tiers,
chunk-engine geometry, streaming deadlines -- and compiles to

* the fluid models (:func:`compile_fluid`, via ``build_model`` or the
  Sec.-2 heterogeneous model for tiered specs),
* the discrete-event simulator (:func:`compile_sim` ->
  :class:`~repro.sim.scenarios.ScenarioConfig`),
* the chunk-level swarm engine (:func:`compile_chunks` ->
  :class:`ChunkRun`),

with strict, path-qualified validation everywhere
(:class:`SpecError`).  :func:`run_spec` runs a spec end to end as an
experiment; ``repro run --scenario PATH`` and
``register_experiment(id, spec=PATH)`` are the CLI faces of the same
functions.  The spec is the only scenario format: ``repro simulate``
reads the same documents, compiled with :func:`compile_sim`.

>>> from repro.scenario import ScenarioSpec, WorkloadSpec, compile_sim
>>> from repro.core import Scheme
>>> spec = ScenarioSpec(scheme=Scheme.MTSD, workload=WorkloadSpec(p=0.5))
>>> compile_sim(spec).scheme
<Scheme.MTSD: 'MTSD'>
"""

from repro.scenario.schema import SpecError, check_keys, from_mapping, to_mapping
from repro.scenario.spec import (
    AdaptSpec,
    ArrivalsSpec,
    BehaviorSpec,
    ChunkSpec,
    ChurnSpec,
    ParamsSpec,
    ScenarioSpec,
    SeedsSpec,
    ServiceSpec,
    SimSpec,
    StreamingSpec,
    TierSpec,
    WorkloadSpec,
    spec_from_dict,
    spec_to_dict,
)
from repro.scenario.loader import dump_spec, load_spec, save_spec
from repro.scenario.compile import (
    ChunkRun,
    compile_chunks,
    compile_correlation,
    compile_fluid,
    compile_params,
    compile_sim,
    supported_backends,
)
from repro.scenario.driver import run_spec, spec_experiment_id

__all__ = [
    "AdaptSpec",
    "ArrivalsSpec",
    "BehaviorSpec",
    "ChunkRun",
    "ChunkSpec",
    "ChurnSpec",
    "ParamsSpec",
    "ScenarioSpec",
    "SeedsSpec",
    "ServiceSpec",
    "SimSpec",
    "SpecError",
    "StreamingSpec",
    "TierSpec",
    "WorkloadSpec",
    "check_keys",
    "compile_chunks",
    "compile_correlation",
    "compile_fluid",
    "compile_params",
    "compile_sim",
    "dump_spec",
    "from_mapping",
    "load_spec",
    "run_spec",
    "save_spec",
    "spec_experiment_id",
    "spec_from_dict",
    "spec_to_dict",
    "supported_backends",
    "to_mapping",
]
