"""The mixture CDF against ``scipy.stats.norm``, bit for bit.

:class:`~repro.workload.publications.GaussianMixture1D` computes its
CDF as ``scipy.special.ndtr`` of the standardised value, which is what
``norm.cdf(x, loc=m, scale=s)`` evaluates, so that importing the
workload does not import ``scipy.stats``.  The references below are the
``norm.cdf`` formulas the class used before; every value must have the
same bits and the same type, ±inf and NaN included.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

from repro.workload.publications import (
    GaussianMixture1D,
    four_mode_distribution,
    nine_mode_distribution,
    single_mode_distribution,
)


def reference_cdf(mixture, x):
    if np.isposinf(x):
        return 1.0
    if np.isneginf(x):
        return 0.0
    return float(
        sum(
            w * norm.cdf(x, loc=m, scale=s)
            for w, m, s in zip(mixture.weights, mixture.means, mixture.sigmas)
        )
    )


def reference_cdf_array(mixture, x):
    x = np.asarray(x, dtype=np.float64)
    result = np.zeros_like(x)
    finite = np.isfinite(x)
    for w, m, s in zip(mixture.weights, mixture.means, mixture.sigmas):
        result[finite] += w * norm.cdf(x[finite], loc=m, scale=s)
    result[np.isposinf(x)] = 1.0
    return result


def assert_same_bits(got, expected):
    assert type(got) is type(expected)
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    # NaN is NaN whatever its payload; every other value to the bit.
    nan = np.isnan(got)
    assert np.array_equal(nan, np.isnan(expected))
    bits = np.where(nan, 0.0, got).view(np.uint64)
    assert np.array_equal(bits, np.where(nan, 0.0, expected).view(np.uint64))


#: Every mixture the paper's scenarios use, per dimension.
MIXTURES = [
    mixture
    for distribution in (
        single_mode_distribution(),
        four_mode_distribution(),
        nine_mode_distribution(),
    )
    for mixture in distribution.dimensions
]

SPECIALS = [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e308, -1e308, 5e-324]


def test_standard_normal_cdf_is_ndtr_of_the_standardised_value():
    rng = np.random.default_rng(33)
    points = np.concatenate([rng.normal(8.0, 12.0, 5_000), SPECIALS])
    for m, s in ((1.0, 1.0), (10.0, 6.0), (9.0, 2.0), (11.0, 3.0)):
        assert_same_bits(
            ndtr((points - m) / s), norm.cdf(points, loc=m, scale=s)
        )
        for x in points[:500].tolist() + SPECIALS:
            assert_same_bits(ndtr((x - m) / s), norm.cdf(x, loc=m, scale=s))


def test_paper_mixtures_equal_the_norm_formulas():
    rng = np.random.default_rng(2003)
    for mixture in MIXTURES:
        points = np.concatenate([rng.normal(9.0, 8.0, 2_000), SPECIALS])
        assert_same_bits(
            mixture.cdf_array(points), reference_cdf_array(mixture, points)
        )
        for x in points[:300].tolist() + SPECIALS:
            assert_same_bits(mixture.cdf(x), reference_cdf(mixture, x))
        x = np.float32(3.3)
        assert_same_bits(mixture.cdf(x), reference_cdf(mixture, x))


@st.composite
def mixtures(draw):
    size = draw(st.integers(1, 4))
    raw = draw(st.lists(st.integers(1, 10), min_size=size, max_size=size))
    weights = tuple(r / sum(raw) for r in raw)
    finite = st.floats(-1e3, 1e3, allow_nan=False)
    means = tuple(draw(st.lists(finite, min_size=size, max_size=size)))
    sigmas = tuple(
        draw(st.lists(st.floats(1e-3, 1e3), min_size=size, max_size=size))
    )
    return GaussianMixture1D(weights, means, sigmas)


@settings(deadline=None)
@given(mixtures(), st.lists(st.floats(), min_size=1, max_size=20))
def test_generated_mixtures_equal_the_norm_formulas(mixture, points):
    assert_same_bits(
        mixture.cdf_array(np.array(points)),
        reference_cdf_array(mixture, np.array(points)),
    )
    for x in points:
        assert_same_bits(mixture.cdf(x), reference_cdf(mixture, x))
