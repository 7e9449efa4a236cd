"""Unit tests for point normalization helpers."""

import math

import numpy as np
import pytest

from repro.geometry import as_point


class TestAsPoint:
    def test_basic_conversion(self):
        assert as_point([1, 2, 3]) == (1.0, 2.0, 3.0)

    def test_accepts_numpy_row(self):
        assert as_point(np.array([1.5, 2.5])) == (1.5, 2.5)

    def test_ndim_validation(self):
        assert as_point([1, 2], ndim=2) == (1.0, 2.0)
        with pytest.raises(ValueError):
            as_point([1, 2], ndim=3)

    def test_rejects_infinite_coordinates(self):
        with pytest.raises(ValueError):
            as_point([1.0, math.inf])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_point([float("nan")])
