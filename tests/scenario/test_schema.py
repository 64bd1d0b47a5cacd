"""Schema machinery: strict validation, exact round-trips, fuzzing.

The DSL's contract is (a) every invalid document is rejected with a
path-qualified message pointing at the offending node, and (b)
``spec_to_dict`` / ``spec_from_dict`` invert each other *exactly* -- the
serialised form is byte-stable under a round trip, so specs can be
diffed, cached and version-controlled.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.schemes import Scheme
from repro.scenario import (
    ChunkSpec,
    ScenarioSpec,
    SpecError,
    StreamingSpec,
    TierSpec,
    WorkloadSpec,
    compile_chunks,
    compile_fluid,
    compile_sim,
    dump_spec,
    load_spec,
    save_spec,
    spec_from_dict,
    spec_to_dict,
    supported_backends,
)


def minimal_doc(**overrides):
    doc = {"scheme": "MTSD", "workload": {"p": 0.6}}
    doc.update(overrides)
    return doc


class TestRoundTrip:
    def test_dict_round_trip_is_exact(self):
        spec = spec_from_dict(minimal_doc())
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_round_trip_is_byte_stable(self):
        """Serialised form is a fixed point: dump(load(dump(x))) == dump(x)."""
        spec = spec_from_dict(
            minimal_doc(
                params={"mu": 0.04, "num_files": 3},
                behavior={"rho": 0.3},
                chunks={"n_chunks": 20, "n_peers": 8},
                scheme="CMFSD",
            )
        )
        once = json.dumps(spec_to_dict(spec), sort_keys=True)
        twice = json.dumps(
            spec_to_dict(spec_from_dict(json.loads(once))), sort_keys=True
        )
        assert once == twice

    def test_full_document_is_emitted(self):
        """Every section appears in the serialised form (self-describing)."""
        doc = spec_to_dict(spec_from_dict(minimal_doc()))
        for section in (
            "scheme", "workload", "params", "arrivals", "churn",
            "behavior", "seeds", "tiers", "chunks", "streaming", "sim",
        ):
            assert section in doc

    def test_yaml_file_round_trip(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        spec = spec_from_dict(minimal_doc(tiers=[
            {"name": "fast", "upload": 0.04, "download": 0.2, "share": 0.5},
            {"name": "slow", "upload": 0.01, "download": 0.05, "share": 0.5},
        ]))
        path = tmp_path / "spec.yaml"
        save_spec(spec, path)
        assert load_spec(path) == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = spec_from_dict(minimal_doc(chunks={"n_chunks": 10}))
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        assert load_spec(path) == spec

    def test_dump_formats(self):
        spec = spec_from_dict(minimal_doc())
        assert json.loads(dump_spec(spec, fmt="json"))["scheme"] == "MTSD"
        with pytest.raises(ValueError, match="fmt"):
            dump_spec(spec, fmt="toml")


class TestServiceSection:
    def test_round_trips_and_does_not_affect_compilation(self):
        with_service = spec_from_dict(
            minimal_doc(
                service={
                    "time_scale": 60.0,
                    "port": 7070,
                    "journal": "run.ndjson",
                    "overflow": "block",
                }
            )
        )
        assert spec_from_dict(spec_to_dict(with_service)) == with_service
        assert with_service.service.time_scale == 60.0
        # Orchestration-only: backends compile identically with and without.
        bare = spec_from_dict(minimal_doc())
        assert compile_sim(with_service) == compile_sim(bare)
        assert supported_backends(with_service) == supported_backends(bare)


class TestRejection:
    @pytest.mark.parametrize(
        "mutation, path_prefix",
        [
            ({"bogus": 1}, r"unknown keys \['bogus'\]"),
            ({"workload": {"p": 0.5, "warp": 1}}, r"workload: unknown keys"),
            ({"params": {"mu": "fast"}}, r"params\.mu: expected a number"),
            ({"params": {"num_files": 2.5}}, r"params\.num_files: expected an int"),
            (
                {"chunks": {"neighbor_degree": "dense"}},
                r"chunks\.neighbor_degree: expected an int",
            ),
            ({"scheme": "WARP"}, r"scheme: unknown Scheme 'WARP'"),
            ({"chunks": {"seed_stays": 1}}, r"chunks\.seed_stays: expected a bool"),
            ({"chunks": {"n_chunks": None}}, r"chunks\.n_chunks: expected int, got null"),
            ({"workload": {"p": "high"}}, r"workload\.p: expected a number"),
            ({"workload": {}}, r"workload: missing required key 'p'"),
            ({"tiers": {"name": "x"}}, r"tiers: expected a list"),
            (
                {"tiers": [{"name": "a", "upload": 1, "download": 1, "share": 0.5},
                           {"name": "b", "upload": 1, "download": "dsl", "share": 0.5}]},
                r"tiers\[1\]\.download: expected a number",
            ),
            ({"streaming": {"playback_rate": 0.1}}, "streaming deadlines need"),
            ({"behavior": {"rho": 1.7}}, r"behavior: rho must be in \[0, 1\]"),
            ({"behavior": 7}, r"behavior: expected a mapping"),
            ({"service": {"overflow": "panic"}}, r"service: overflow must be"),
            ({"service": {"time_scale": 0}}, r"service: time_scale must be"),
            ({"service": {"queue_capacity": 0}}, r"service: queue_capacity"),
            ({"service": {"warp": 1}}, r"service: unknown keys"),
            # the engine toggles removed in 1.12.0 (oracles are test hooks)
            (
                {"sim": {"incremental_rates": False}},
                r"^sim: unknown keys \['incremental_rates'\]",
            ),
            (
                {"sim": {"incremental_dispatch": False}},
                r"^sim: unknown keys \['incremental_dispatch'\]",
            ),
            (
                {"sim": {"deferred_integration": False}},
                r"^sim: unknown keys \['deferred_integration'\]",
            ),
            ({"params": {"mu": 0.02, "warp": 9}}, r"params: unknown keys"),
            ({"seeds": {"policy": "warp"}}, r"seeds: policy must be"),
            ({"sim": {"t_end": "soon"}}, r"sim\.t_end: expected a number"),
            (
                {"scheme": "CMFSD", "behavior": {"adapt": {"warp": 1}}},
                r"behavior\.adapt: unknown keys \['warp'\]",
            ),
        ],
    )
    def test_path_qualified_errors(self, mutation, path_prefix):
        with pytest.raises(SpecError, match=path_prefix):
            spec_from_dict(minimal_doc(**mutation))

    def test_unknown_key_error_lists_the_allowed_keys(self):
        """The allowed set is derived from the spec dataclass, not hardcoded."""
        with pytest.raises(SpecError, match=r"allowed: \[.*'sim'.*\]"):
            spec_from_dict(minimal_doc(t_end=800))

    def test_scheme_is_case_insensitive(self):
        assert spec_from_dict(minimal_doc(scheme="cmfsd")).scheme is Scheme.CMFSD

    def test_missing_scheme(self):
        with pytest.raises(SpecError, match="missing required key 'scheme'"):
            spec_from_dict({"workload": {"p": 0.5}})

    def test_non_mapping_root(self):
        with pytest.raises(SpecError, match="expected a mapping"):
            spec_from_dict([1, 2, 3])

    def test_tier_shares_must_sum_to_one(self):
        with pytest.raises(SpecError, match="shares must sum to 1"):
            spec_from_dict(minimal_doc(tiers=[
                {"name": "a", "upload": 1, "download": 1, "share": 0.5},
                {"name": "b", "upload": 1, "download": 1, "share": 0.2},
            ]))

    def test_adapt_requires_cmfsd(self):
        with pytest.raises(SpecError, match="CMFSD"):
            spec_from_dict(minimal_doc(behavior={"adapt": {"phi_increase": 0.01}}))


def random_spec(rng: random.Random) -> ScenarioSpec:
    """One random *valid* spec: scheme, workload, params, optional extras."""
    scheme = rng.choice(list(Scheme))
    kwargs = dict(
        scheme=scheme,
        workload=WorkloadSpec(
            p=round(rng.uniform(0.05, 1.0), 3),
            visit_rate=round(rng.uniform(0.2, 1.5), 3),
        ),
    )
    if rng.random() < 0.7:
        from repro.scenario import ParamsSpec

        kwargs["params"] = ParamsSpec(
            mu=round(rng.uniform(0.01, 0.05), 4),
            eta=round(rng.uniform(0.3, 1.0), 3),
            gamma=round(rng.uniform(0.02, 0.2), 4),
            num_files=rng.randint(1, 6),
        )
    if scheme is Scheme.CMFSD and rng.random() < 0.5:
        from repro.scenario import BehaviorSpec

        kwargs["behavior"] = BehaviorSpec(
            rho=round(rng.uniform(0.0, 1.0), 3),
            cheater_fraction=round(rng.uniform(0.0, 0.5), 3),
        )
    if rng.random() < 0.4:
        kwargs["chunks"] = ChunkSpec(
            n_chunks=rng.randint(5, 50),
            n_peers=rng.randint(2, 12),
            n_seeds=rng.randint(1, 2),
        )
        if rng.random() < 0.5:
            kwargs["streaming"] = StreamingSpec(
                playback_rate=round(rng.uniform(0.001, 0.05), 4)
            )
    return ScenarioSpec(**kwargs)


class TestFuzz:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_specs_round_trip_and_compile(self, seed):
        """Random valid specs survive the round trip and compile on every
        backend they claim to support."""
        spec = random_spec(random.Random(seed))
        assert spec_from_dict(spec_to_dict(spec)) == spec
        backends = supported_backends(spec)
        assert backends, "every spec must compile somewhere"
        if "fluid" in backends:
            model = compile_fluid(spec)
            assert model is not None
        if "sim" in backends:
            config = compile_sim(spec)
            assert config.scheme is spec.scheme
            assert config.correlation.p == spec.workload.p
        if "chunks" in backends:
            run = compile_chunks(spec)
            assert run.config.n_chunks == spec.chunks.n_chunks
