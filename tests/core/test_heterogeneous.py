"""Tests for the general multi-class fluid model of Sec. 2."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CorrelationModel,
    HeterogeneousModel,
    MTCDModel,
    PeerClass,
)
from repro.ode.reference import find_steady_state


def proportional_classes(lam=(1.0, 0.5), mu=0.02, c=0.2, gamma=0.05):
    """Classes with mu_i/c_i constant (the closed form's special case)."""
    return tuple(
        PeerClass(
            upload=mu / (k + 1),
            download=c / (k + 1),
            arrival_rate=l,
            seed_departure_rate=gamma,
        )
        for k, l in enumerate(lam)
    )


class TestValidation:
    def test_needs_classes(self):
        with pytest.raises(ValueError, match="at least one"):
            HeterogeneousModel(classes=())

    def test_eta_range(self):
        with pytest.raises(ValueError, match="eta"):
            HeterogeneousModel(classes=proportional_classes(), eta=0.0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(upload=0.0, download=1.0, arrival_rate=1.0, seed_departure_rate=1.0), "positive"),
            (dict(upload=1.0, download=-1.0, arrival_rate=1.0, seed_departure_rate=1.0), "positive"),
            (dict(upload=1.0, download=1.0, arrival_rate=-1.0, seed_departure_rate=1.0), "nonneg"),
            (dict(upload=1.0, download=1.0, arrival_rate=1.0, seed_departure_rate=0.0), "positive"),
        ],
    )
    def test_peer_class_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            PeerClass(**kwargs)


class TestClosedForm:
    """Proportional bandwidths: the root reproduces the closed form."""

    def test_closed_form_is_stationary(self):
        model = HeterogeneousModel(classes=proportional_classes((1.0, 0.4, 0.2)))
        ss = model.steady_state()
        state = np.concatenate([ss.downloaders, ss.seeds])
        np.testing.assert_allclose(model.rhs(0.0, state), 0.0, atol=1e-12)

    def test_reproduces_mtcd_equation2(self, paper_params):
        """MTCD is the special case mu_i = mu/i, c_i = c/i."""
        corr = CorrelationModel(num_files=paper_params.num_files, p=0.5)
        mtcd = MTCDModel.from_correlation(paper_params, corr)
        classes = tuple(
            PeerClass(
                upload=paper_params.mu / i,
                download=1.0 / i,
                arrival_rate=float(corr.per_torrent_rates()[i - 1]),
                seed_departure_rate=paper_params.gamma,
            )
            for i in range(1, paper_params.num_files + 1)
        )
        hetero = HeterogeneousModel(classes=classes, eta=paper_params.eta)
        ss_h = hetero.steady_state()
        ss_m = mtcd.steady_state()
        np.testing.assert_allclose(ss_h.downloaders, ss_m.downloaders, rtol=1e-10)
        np.testing.assert_allclose(ss_h.seeds, ss_m.seeds, rtol=1e-10)


class TestNumeric:
    def test_numeric_matches_closed_form(self, fast_steady_options):
        model = HeterogeneousModel(classes=proportional_classes((0.8, 0.3)))
        ss = model.steady_state()
        numeric = find_steady_state(model.rhs, np.zeros(model.state_dim), fast_steady_options)
        assert numeric.converged
        expected = np.concatenate([ss.downloaders, ss.seeds])
        np.testing.assert_allclose(numeric.state, expected, rtol=1e-5, atol=1e-9)

    def test_non_proportional_mix_is_stationary(self):
        model = HeterogeneousModel(
            classes=(
                PeerClass(0.02, 0.2, 1.0, 0.05),
                PeerClass(0.04, 0.2, 1.0, 0.05),
            )
        )
        ss = model.steady_state()
        assert ss.converged
        state = np.concatenate([ss.downloaders, ss.seeds])
        np.testing.assert_allclose(model.rhs(0.0, state), 0.0, atol=1e-12)
        # the faster uploader earns more tit-for-tat service
        assert ss.download_times[1] < ss.download_times[0]

    def test_seed_saturated_mix_is_download_constrained(self):
        # seeds alone out-supply demand: the download link caps the service
        model = HeterogeneousModel(classes=(PeerClass(0.06, 0.6, 1.0, 0.05),))
        assert not model.is_stable()
        ss = model.steady_state()
        assert ss.converged and ss.residual <= 1e-12
        np.testing.assert_allclose(ss.downloaders, [1.0 / 0.6], rtol=1e-14)

    def test_general_mix_converges_and_balances(self):
        """Non-proportional mix: one root, flow balance checks."""
        classes = (
            PeerClass(upload=0.01, download=0.30, arrival_rate=0.7, seed_departure_rate=0.05),
            PeerClass(upload=0.03, download=0.10, arrival_rate=0.4, seed_departure_rate=0.08),
        )
        model = HeterogeneousModel(classes=classes, eta=0.5)
        ss = model.steady_state()
        assert ss.converged
        # Seeds balance class by class: lambda_i = gamma_i * y_i.
        assert ss.seeds[0] == pytest.approx(0.7 / 0.05, rel=1e-14)
        assert ss.seeds[1] == pytest.approx(0.4 / 0.08, rel=1e-14)
        np.testing.assert_allclose(
            ss.download_times, ss.downloaders / np.array([0.7, 0.4]), rtol=1e-15
        )

    def test_download_times_nan_for_empty_class(self):
        classes = (
            PeerClass(upload=0.01, download=0.1, arrival_rate=1.0, seed_departure_rate=0.05),
            PeerClass(upload=0.01, download=0.1, arrival_rate=0.0, seed_departure_rate=0.05),
        )
        ss = HeterogeneousModel(classes=classes).steady_state()
        assert ss.converged
        assert np.isfinite(ss.download_times[0])
        assert np.isnan(ss.download_times[1])
        assert ss.downloaders[1] == ss.seeds[1] == 0.0
