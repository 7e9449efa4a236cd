"""Unit tests for the vectorized geometry kernels."""

import math

import numpy as np
import pytest

from repro.geometry import Rectangle
from repro.geometry.arrays import (
    arrays_to_rectangles,
    bulk_centers,
    bulk_volume,
    contains_points_mask,
    mbr_of,
    point_membership_mask,
    rectangles_to_arrays,
)


@pytest.fixture()
def sample_arrays():
    lows = np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 2.0]])
    highs = np.array([[2.0, 2.0], [3.0, 3.0], [0.5, 5.0]])
    return lows, highs


class TestConversions:
    def test_roundtrip(self, sample_arrays):
        lows, highs = sample_arrays
        rects = arrays_to_rectangles(lows, highs)
        back_lo, back_hi = rectangles_to_arrays(rects)
        assert np.array_equal(back_lo, lows)
        assert np.array_equal(back_hi, highs)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            rectangles_to_arrays([])

    def test_mixed_ndim_rejected(self):
        with pytest.raises(ValueError):
            rectangles_to_arrays(
                [Rectangle((0.0,), (1.0,)), Rectangle((0.0, 0.0), (1.0, 1.0))]
            )


class TestMembership:
    def test_matches_scalar_containment(self, sample_arrays, rng):
        lows, highs = sample_arrays
        rects = arrays_to_rectangles(lows, highs)
        for _ in range(50):
            point = rng.uniform(-2, 6, size=2)
            mask = point_membership_mask(lows, highs, point)
            expected = [r.contains_point(point) for r in rects]
            assert mask.tolist() == expected

    def test_half_open_edges(self):
        lows = np.array([[0.0]])
        highs = np.array([[1.0]])
        assert not point_membership_mask(lows, highs, [0.0])[0]
        assert point_membership_mask(lows, highs, [1.0])[0]

    def test_contains_points_mask_shape(self, sample_arrays):
        lows, highs = sample_arrays
        points = np.array([[1.0, 1.0], [10.0, 10.0]])
        mask = contains_points_mask(lows, highs, points)
        assert mask.shape == (3, 2)
        assert mask[0, 0]  # rect 0 contains (1,1)
        assert not mask[:, 1].any()  # nothing contains (10,10)


class TestMeasures:
    def test_bulk_volume(self, sample_arrays):
        lows, highs = sample_arrays
        volumes = bulk_volume(lows, highs)
        assert volumes[0] == pytest.approx(4.0)
        assert volumes[1] == pytest.approx(4.0)
        assert volumes[2] == pytest.approx(1.5 * 3.0)

    def test_bulk_volume_empty_clamped_to_zero(self):
        volumes = bulk_volume(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert volumes[0] == 0.0

    def test_bulk_centers_bounded(self, sample_arrays):
        lows, highs = sample_arrays
        centers = bulk_centers(lows, highs)
        assert centers[0].tolist() == [1.0, 1.0]

    def test_bulk_centers_rays(self):
        lows = np.array([[5.0, -np.inf, -np.inf]])
        highs = np.array([[np.inf, 7.0, np.inf]])
        centers = bulk_centers(lows, highs)
        assert centers[0].tolist() == [5.0, 7.0, 0.0]


class TestRunningMBRs:
    def test_mbr_of(self, sample_arrays):
        lows, highs = sample_arrays
        lo, hi = mbr_of(lows, highs)
        assert lo.tolist() == [-1.0, 0.0]
        assert hi.tolist() == [3.0, 5.0]
