"""Unit tests for the Zipf and Pareto samplers."""

import math

import numpy as np
import pytest

from repro.workload import ParetoSampler, ZipfSampler, zipf_weights


class TestZipfWeights:
    def test_normalized(self):
        assert zipf_weights(10).sum() == pytest.approx(1.0)

    def test_classic_ratios(self):
        w = zipf_weights(4, theta=1.0)
        assert w[0] / w[1] == pytest.approx(2.0)
        assert w[0] / w[3] == pytest.approx(4.0)

    def test_theta_zero_is_uniform(self):
        w = zipf_weights(5, theta=0.0)
        assert np.allclose(w, 0.2)

    def test_higher_theta_more_skewed(self):
        mild = zipf_weights(10, theta=0.5)
        steep = zipf_weights(10, theta=2.0)
        assert steep[0] > mild[0]
        assert steep[-1] < mild[-1]

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(5, theta=-1.0)


class TestZipfSampler:
    def test_sample_range(self, rng):
        sampler = ZipfSampler(10, rng=rng)
        draws = sampler.sample(1000)
        assert draws.min() >= 0
        assert draws.max() <= 9

    def test_empirical_frequencies(self, rng):
        sampler = ZipfSampler(5, theta=1.0, rng=rng)
        draws = sampler.sample(50_000)
        counts = np.bincount(draws, minlength=5)
        expected = sampler.probabilities * 50_000
        assert np.allclose(counts, expected, rtol=0.1)

    def test_rank_zero_most_popular(self, rng):
        draws = ZipfSampler(8, rng=rng).sample(20_000)
        counts = np.bincount(draws, minlength=8)
        assert counts[0] == counts.max()


class TestParetoSampler:
    def test_support(self, rng):
        sampler = ParetoSampler(scale=4.0, shape=1.0, rng=rng)
        draws = sampler.sample(5000)
        assert draws.min() >= 4.0

    def test_cap_respected(self, rng):
        sampler = ParetoSampler(scale=4.0, shape=1.0, cap=50.0, rng=rng)
        draws = sampler.sample(5000)
        assert draws.min() >= 4.0
        assert draws.max() <= 50.0

    def test_survival_function(self, rng):
        sampler = ParetoSampler(scale=2.0, shape=1.5, rng=rng)
        draws = sampler.sample(100_000)
        for x in [3.0, 5.0, 10.0]:
            empirical = float(np.mean(draws > x))
            assert empirical == pytest.approx(sampler.survival(x), abs=0.01)

    def test_survival_below_scale_is_one(self):
        sampler = ParetoSampler(scale=2.0, shape=1.0)
        assert sampler.survival(1.0) == 1.0

    def test_pdf_zero_below_scale(self):
        assert ParetoSampler(4.0, 1.0).pdf(3.0) == 0.0
        assert ParetoSampler(4.0, 1.0).pdf(5.0) > 0.0

    def test_mean(self):
        assert ParetoSampler(4.0, 1.0).mean == math.inf
        assert ParetoSampler(4.0, 2.0).mean == pytest.approx(8.0)

    def test_heavier_tail_with_smaller_alpha(self, rng):
        light = ParetoSampler(1.0, 3.0, rng=np.random.default_rng(1))
        heavy = ParetoSampler(1.0, 0.8, rng=np.random.default_rng(1))
        assert np.median(heavy.sample(20_000)) >= np.median(
            light.sample(20_000)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ParetoSampler(0.0, 1.0)
        with pytest.raises(ValueError):
            ParetoSampler(1.0, 0.0)
        with pytest.raises(ValueError):
            ParetoSampler(4.0, 1.0, cap=3.0)
