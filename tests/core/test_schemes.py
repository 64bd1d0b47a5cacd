"""Tests for the uniform scheme-evaluation front door."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CorrelationModel,
    FluidModel,
    Scheme,
    build_model,
    compare_schemes,
)


class TestSchemeEnum:
    def test_sequential_flags(self):
        assert Scheme.MTSD.is_sequential
        assert Scheme.CMFSD.is_sequential
        assert not Scheme.MTCD.is_sequential
        assert not Scheme.MFCD.is_sequential

    def test_multi_file_torrent_flags(self):
        assert Scheme.MFCD.is_multi_file_torrent
        assert Scheme.CMFSD.is_multi_file_torrent
        assert not Scheme.MTCD.is_multi_file_torrent
        assert not Scheme.MTSD.is_multi_file_torrent


class TestFluidModelProtocol:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_every_scheme_builds_a_fluid_model(
        self, scheme, paper_params, high_correlation
    ):
        model = build_model(scheme, paper_params, high_correlation, rho=0.2)
        assert isinstance(model, FluidModel)

    def test_state_dims(self, paper_params, high_correlation):
        dims = {
            scheme: build_model(scheme, paper_params, high_correlation).state_dim
            for scheme in Scheme
        }
        K = paper_params.num_files
        assert dims[Scheme.MTCD] == 2 * K
        assert dims[Scheme.MTSD] == 2  # one lumped torrent
        assert dims[Scheme.MFCD] == 2 * K  # delegates to MTCD
        assert dims[Scheme.CMFSD] == K * (K + 1) // 2 + K  # triangular x + y

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rhs_maps_state_to_state(self, scheme, paper_params, high_correlation):
        model = build_model(scheme, paper_params, high_correlation)
        state = np.full(model.state_dim, 0.5)
        deriv = np.asarray(model.rhs(0.0, state))
        assert deriv.shape == (model.state_dim,)
        assert np.all(np.isfinite(deriv))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_steady_state_exists(self, scheme, paper_params, high_correlation):
        model = build_model(scheme, paper_params, high_correlation)
        assert model.steady_state() is not None

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_protocol_dispatch_matches_legacy_front_door(
        self, scheme, paper_params, high_correlation
    ):
        model = build_model(scheme, paper_params, high_correlation, rho=0.2)
        via_protocol = model.system_metrics()
        via_legacy = compare_schemes(
            paper_params, high_correlation, (scheme,), rho=0.2
        )[scheme]
        assert via_protocol.avg_online_time_per_file == pytest.approx(
            via_legacy.avg_online_time_per_file
        )
        assert via_protocol.avg_download_time_per_file == pytest.approx(
            via_legacy.avg_download_time_per_file
        )

    def test_class_metrics_accessor(self, paper_params, high_correlation):
        model = build_model(Scheme.MTCD, paper_params, high_correlation)
        cm = model.class_metrics(3)
        assert cm.class_index == 3
        assert cm.total_online_time > 0

    def test_unknown_scheme_rejected(self, paper_params, high_correlation):
        with pytest.raises(ValueError, match="unknown scheme"):
            build_model("bogus", paper_params, high_correlation)


class TestEvaluate:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_all_schemes_evaluable(self, scheme, paper_params, high_correlation):
        model = build_model(scheme, paper_params, high_correlation, rho=0.2)
        metrics = model.system_metrics()
        assert metrics.scheme == scheme.value
        assert metrics.avg_online_time_per_file > 0

    def test_paper_ordering_at_high_correlation(self, paper_params, high_correlation):
        """The paper's bottom line at p=0.9: CMFSD(0) < MTSD < MTCD = MFCD."""
        results = compare_schemes(paper_params, high_correlation, rho=0.0)
        cmfsd = results[Scheme.CMFSD].avg_online_time_per_file
        mtsd = results[Scheme.MTSD].avg_online_time_per_file
        mtcd = results[Scheme.MTCD].avg_online_time_per_file
        mfcd = results[Scheme.MFCD].avg_online_time_per_file
        assert cmfsd < mtsd < mtcd
        assert mtcd == pytest.approx(mfcd)

    def test_subset_of_schemes(self, paper_params, mid_correlation):
        results = compare_schemes(
            paper_params, mid_correlation, schemes=(Scheme.MTSD, Scheme.MTCD)
        )
        assert set(results) == {Scheme.MTSD, Scheme.MTCD}

    def test_rho_only_affects_cmfsd(self, paper_params, mid_correlation):
        def online(scheme, rho):
            model = build_model(scheme, paper_params, mid_correlation, rho=rho)
            return model.system_metrics().avg_online_time_per_file

        assert online(Scheme.MTCD, 0.0) == online(Scheme.MTCD, 1.0)
        assert online(Scheme.CMFSD, 0.0) < online(Scheme.CMFSD, 1.0)
