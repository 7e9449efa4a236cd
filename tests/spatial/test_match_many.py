"""Unit tests for batch matching."""

import numpy as np
import pytest

from repro.spatial import LinearScanMatcher, STree

from .conftest import make_workload


class TestMatchMany:
    def test_stree_batch_equals_loop(self, workload):
        lows, highs, points = workload
        tree = STree.build(lows, highs)
        batch = tree.match_many(points[:50])
        for point, result in zip(points[:50], batch):
            assert result.tolist() == tree.match(point).tolist()

    def test_linear_vectorized_batch_equals_loop(self, workload):
        lows, highs, points = workload
        matcher = LinearScanMatcher.build(lows, highs)
        batch = matcher.match_many(points[:50])
        for point, result in zip(points[:50], batch):
            assert result.tolist() == matcher.match(point).tolist()

    def test_linear_and_stree_batches_agree(self, workload):
        lows, highs, points = workload
        tree = STree.build(lows, highs)
        linear = LinearScanMatcher.build(lows, highs)
        assert [ids.tolist() for ids in tree.match_many(points)] == [
            ids.tolist() for ids in linear.match_many(points)
        ]

    def test_batch_shape_validation(self, workload):
        lows, highs, _ = workload
        tree = STree.build(lows, highs)
        with pytest.raises(ValueError):
            tree.match_many(np.zeros((5, 2)))
        linear = LinearScanMatcher.build(lows, highs)
        with pytest.raises(ValueError):
            linear.match_many(np.zeros(4))

    def test_batch_updates_stats(self, workload):
        lows, highs, points = workload
        linear = LinearScanMatcher.build(lows, highs)
        linear.match_many(points[:10])
        assert linear.stats.queries == 10
        assert linear.stats.entries_tested == 10 * len(lows)
