"""Tests for the Qiu--Srikant single-torrent baseline (Eq. 3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FluidParameters, SingleTorrentModel
from repro.ode import integrate_scipy
from repro.ode.reference import find_steady_state


class TestClosedForm:
    def test_paper_values(self, paper_params):
        model = SingleTorrentModel(paper_params, arrival_rate=1.0)
        ss = model.steady_state()
        # T = (0.05 - 0.02) / (0.05 * 0.02 * 0.5) = 60
        assert ss.download_time == pytest.approx(60.0)
        assert ss.online_time == pytest.approx(80.0)
        assert ss.downloaders == pytest.approx(60.0)
        assert ss.seeds == pytest.approx(20.0)

    def test_littles_law_built_in(self, paper_params):
        lam = 2.7
        ss = SingleTorrentModel(paper_params, arrival_rate=lam).steady_state()
        assert ss.downloaders == pytest.approx(lam * ss.download_time)
        assert ss.seeds == pytest.approx(lam / paper_params.gamma)

    def test_unstable_raises(self):
        params = FluidParameters(mu=0.06, gamma=0.05)
        with pytest.raises(ValueError, match="gamma > mu"):
            SingleTorrentModel(params, arrival_rate=1.0).steady_state()

    def test_negative_rate_rejected(self, paper_params):
        with pytest.raises(ValueError, match="arrival_rate"):
            SingleTorrentModel(paper_params, arrival_rate=-1.0)


class TestAgainstODE:
    def test_closed_form_is_stationary_point_of_rhs(self, paper_params):
        model = SingleTorrentModel(paper_params, arrival_rate=1.3)
        ss = model.steady_state()
        rhs = model.rhs(0.0, np.array([ss.downloaders, ss.seeds]))
        np.testing.assert_allclose(rhs, 0.0, atol=1e-12)

    def test_numeric_steady_state_matches(self, paper_params, fast_steady_options):
        model = SingleTorrentModel(paper_params, arrival_rate=0.8)
        ss = model.steady_state()
        numeric = find_steady_state(model.rhs, np.zeros(model.state_dim), fast_steady_options)
        assert numeric.converged
        np.testing.assert_allclose(
            numeric.state, [ss.downloaders, ss.seeds], rtol=1e-6
        )

    def test_flow_attracts_from_flash_crowd(self, paper_params):
        """Start with a large downloader spike; the flow must settle back."""
        model = SingleTorrentModel(paper_params, arrival_rate=1.0)
        ss = model.steady_state()
        res = integrate_scipy(model.rhs, np.array([500.0, 0.0]), (0.0, 20000.0))
        np.testing.assert_allclose(
            res.final_state, [ss.downloaders, ss.seeds], rtol=1e-4
        )

    @settings(max_examples=20, deadline=None)
    @given(
        mu=st.floats(0.005, 0.04),
        gamma_mult=st.floats(1.05, 5.0),
        eta=st.floats(0.1, 1.0),
        lam=st.floats(0.01, 10.0),
    )
    def test_closed_form_stationary_for_arbitrary_stable_parameters(
        self, mu, gamma_mult, eta, lam
    ):
        params = FluidParameters(mu=mu, eta=eta, gamma=mu * gamma_mult, num_files=1)
        model = SingleTorrentModel(params, arrival_rate=lam)
        ss = model.steady_state()
        assert ss.downloaders >= 0
        rhs = model.rhs(0.0, np.array([ss.downloaders, ss.seeds]))
        np.testing.assert_allclose(rhs, 0.0, atol=1e-9 * max(1.0, lam))
