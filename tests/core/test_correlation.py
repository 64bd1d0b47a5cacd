"""Tests for the Sec.-4.1 binomial file-correlation workload model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CorrelationModel


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"num_files": 0, "p": 0.5}, "num_files"),
            ({"num_files": 5, "p": -0.1}, "p must"),
            ({"num_files": 5, "p": 1.1}, "p must"),
            ({"num_files": 5, "p": 0.5, "visit_rate": 0.0}, "visit_rate"),
        ],
    )
    def test_rejects_invalid(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            CorrelationModel(**kwargs)

    def test_boundary_p_values_allowed(self):
        CorrelationModel(num_files=5, p=0.0)
        CorrelationModel(num_files=5, p=1.0)


class TestRates:
    def test_class_rates_match_binomial_pmf(self):
        model = CorrelationModel(num_files=4, p=0.5, visit_rate=16.0)
        # C(4,i) * 0.5^4 * 16 = C(4, i)
        np.testing.assert_allclose(model.class_rates(), [4.0, 6.0, 4.0, 1.0])

    def test_rates_sum_to_entering_probability(self):
        model = CorrelationModel(num_files=10, p=0.3, visit_rate=2.0)
        expected = 2.0 * (1 - 0.7**10)
        assert model.effective_user_rate() == pytest.approx(expected)

    def test_p_one_concentrates_on_class_K(self):
        model = CorrelationModel(num_files=7, p=1.0)
        rates = model.class_rates()
        assert rates[-1] == pytest.approx(1.0)
        np.testing.assert_allclose(rates[:-1], 0.0, atol=1e-12)

    def test_per_torrent_identity(self):
        """K * lambda_j^i = i * lambda_i (each class-i user occupies i torrents)."""
        model = CorrelationModel(num_files=8, p=0.37, visit_rate=3.0)
        i = model.classes
        np.testing.assert_allclose(
            model.num_files * model.per_torrent_rates(), i * model.class_rates()
        )

    def test_per_torrent_rates_sum_to_lambda0_p(self):
        """sum_i lambda_j^i = lambda_0 * p (each file is requested w.p. p)."""
        model = CorrelationModel(num_files=9, p=0.62, visit_rate=5.0)
        assert float(np.sum(model.per_torrent_rates())) == pytest.approx(5.0 * 0.62)

    def test_total_file_request_rate(self):
        model = CorrelationModel(num_files=6, p=0.25, visit_rate=4.0)
        assert model.total_file_request_rate() == pytest.approx(6.0)

    @settings(max_examples=50, deadline=None)
    @given(
        K=st.integers(1, 30),
        p=st.floats(1e-6, 1.0),
        rate=st.floats(0.1, 100.0),
    )
    # binom.pmf puts class 1 at ~1e-318 here: subnormal rates must be flushed
    @example(K=21, p=0.9999999999999999, rate=1.1058800682079273)
    def test_identities_hold_for_arbitrary_parameters(self, K, p, rate):
        model = CorrelationModel(num_files=K, p=p, visit_rate=rate)
        rates = model.class_rates()
        assert np.all(rates >= 0)
        # Mean of i*lambda_i equals the total file request rate.
        assert float(np.sum(model.classes * rates)) == pytest.approx(
            model.total_file_request_rate(), rel=1e-9
        )
        # Per-torrent relation.
        np.testing.assert_allclose(
            K * model.per_torrent_rates(), model.classes * rates, rtol=1e-9
        )


class TestConditionalStatistics:
    def test_mean_files_per_user(self):
        model = CorrelationModel(num_files=10, p=1.0)
        assert model.mean_files_per_user() == pytest.approx(10.0)

    def test_mean_files_per_user_small_p_approaches_one(self):
        model = CorrelationModel(num_files=10, p=1e-6)
        assert model.mean_files_per_user() == pytest.approx(1.0, abs=1e-4)

    def test_mean_files_nan_at_zero_p(self):
        assert np.isnan(CorrelationModel(num_files=5, p=0.0).mean_files_per_user())

    def test_class_distribution_sums_to_one(self):
        model = CorrelationModel(num_files=12, p=0.4)
        assert float(np.sum(model.class_distribution())) == pytest.approx(1.0)

    def test_class_distribution_rejected_at_zero_p(self):
        model = CorrelationModel(num_files=5, p=0.0)
        with pytest.raises(ValueError, match="p = 0"):
            model.class_distribution()
        with pytest.raises(ValueError, match="p = 0"):
            model.sample_class(np.random.default_rng(0))


class TestSampling:
    def test_sample_class_empirical_distribution(self, rng):
        model = CorrelationModel(num_files=5, p=0.5)
        draws = np.array([model.sample_class(rng) for _ in range(4000)])
        expected = model.class_distribution()
        observed = np.bincount(draws, minlength=6)[1:] / draws.size
        np.testing.assert_allclose(observed, expected, atol=0.03)

    @pytest.mark.parametrize("num_files, p", [(5, 0.5), (10, 0.9), (3, 0.05)])
    def test_sample_class_matches_rng_choice_stream(self, num_files, p):
        """The cached-CDF draw returns what ``rng.choice(classes, p=...)``
        returns and leaves the generator in the same state, so DES arrival
        streams are unchanged (this relies on how NumPy implements
        ``choice``; CI runs it at the NumPy floor too)."""
        model = CorrelationModel(num_files=num_files, p=p)
        dist = model.class_distribution()
        for seed in range(100):
            fast = np.random.default_rng(seed)
            slow = np.random.default_rng(seed)
            got = [model.sample_class(fast) for _ in range(200)]
            want = [int(slow.choice(model.classes, p=dist)) for _ in range(200)]
            assert got == want, seed
            assert fast.bit_generator.state == slow.bit_generator.state, seed

    def test_sample_file_set_sizes_and_uniqueness(self, rng):
        model = CorrelationModel(num_files=6, p=0.7)
        for _ in range(200):
            files = model.sample_file_set(rng)
            assert 1 <= len(files) <= 6
            assert len(set(files)) == len(files)
            assert all(0 <= f < 6 for f in files)
            assert files == tuple(sorted(files))

    def test_file_marginals_uniform(self, rng):
        """Exchangeability: every file appears equally often."""
        model = CorrelationModel(num_files=4, p=0.5)
        counts = np.zeros(4)
        n = 3000
        for _ in range(n):
            for f in model.sample_file_set(rng):
                counts[f] += 1
        np.testing.assert_allclose(counts / counts.sum(), 0.25, atol=0.02)
