"""Unit tests for the vectorized geometry kernels."""

import numpy as np
import pytest

from repro.geometry.arrays import bulk_centers


@pytest.fixture()
def sample_arrays():
    lows = np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 2.0]])
    highs = np.array([[2.0, 2.0], [3.0, 3.0], [0.5, 5.0]])
    return lows, highs


class TestMeasures:
    def test_bulk_centers_bounded(self, sample_arrays):
        lows, highs = sample_arrays
        centers = bulk_centers(lows, highs)
        assert centers[0].tolist() == [1.0, 1.0]

    def test_bulk_centers_rays(self):
        lows = np.array([[5.0, -np.inf, -np.inf]])
        highs = np.array([[np.inf, 7.0, np.inf]])
        centers = bulk_centers(lows, highs)
        assert centers[0].tolist() == [5.0, 7.0, 0.0]
