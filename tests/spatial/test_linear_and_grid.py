"""Unit tests for the linear-scan and grid-bucket matchers."""

import numpy as np
import pytest

from repro.spatial import GridIndexMatcher, LinearScanMatcher

from .conftest import make_workload


def brute_force(lows, highs, point):
    mask = np.all((lows < point) & (point <= highs), axis=1)
    return sorted(np.flatnonzero(mask).tolist())


class TestLinearScan:
    def test_matches_brute_force(self, workload):
        lows, highs, points = workload
        matcher = LinearScanMatcher.build(lows, highs)
        for point in points:
            assert matcher.match(point).tolist() == brute_force(lows, highs, point)

    def test_entries_tested_is_everything(self, workload):
        lows, highs, points = workload
        matcher = LinearScanMatcher.build(lows, highs)
        matcher.match(points[0])
        assert matcher.stats.entries_tested == len(lows)

    def test_empty_rectangle_never_matches(self):
        lows = np.array([[1.0, 0.0]])
        highs = np.array([[0.0, 1.0]])
        matcher = LinearScanMatcher.build(lows, highs)
        assert matcher.match([0.5, 0.5]).tolist() == []


class TestGridIndex:
    def test_matches_brute_force(self, workload):
        lows, highs, points = workload
        matcher = GridIndexMatcher.build(lows, highs)
        for point in points:
            assert matcher.match(point).tolist() == brute_force(lows, highs, point)

    def test_matches_brute_force_fine_grid(self, workload):
        lows, highs, points = workload
        matcher = GridIndexMatcher.build(lows, highs, cells_per_dim=5)
        for point in points[:80]:
            assert matcher.match(point).tolist() == brute_force(lows, highs, point)

    def test_point_outside_frame_falls_back(self, rng):
        lows, highs, _ = make_workload(rng, k=100)
        matcher = GridIndexMatcher.build(lows, highs)
        far = np.array([1e9, 1e9, 1e9, 1e9])
        assert matcher.match(far).tolist() == brute_force(lows, highs, far)

    def test_unbounded_matches_outside_frame(self):
        lows = np.array([[0.0, 0.0], [0.0, 0.0]])
        highs = np.array([[np.inf, 1.0], [1.0, 1.0]])
        matcher = GridIndexMatcher.build(lows, highs)
        # Way beyond the frame in dim 0: only the ray matches.
        assert matcher.match([1e6, 0.5]).tolist() == [0]

    def test_cells_per_dim_validation(self, rng):
        lows, highs, _ = make_workload(rng, k=10)
        with pytest.raises(ValueError):
            GridIndexMatcher.build(lows, highs, cells_per_dim=0)

    def test_candidate_filtering_prunes(self, rng):
        lows, highs, points = make_workload(rng, k=2000, unbounded=False)
        matcher = GridIndexMatcher.build(lows, highs, cells_per_dim=8)
        for point in points:
            matcher.match(point)
        assert matcher.stats.entries_per_query < len(lows)

    def test_empty_rectangle_skipped(self):
        lows = np.array([[1.0, 0.0], [0.0, 0.0]])
        highs = np.array([[0.0, 1.0], [1.0, 1.0]])
        matcher = GridIndexMatcher.build(lows, highs)
        assert matcher.match([0.5, 0.5]).tolist() == [1]
