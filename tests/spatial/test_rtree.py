"""Unit tests for the Hilbert-packed R-tree."""

import numpy as np
import pytest

from repro.spatial import HilbertRTree

from .conftest import check_packed_invariants, make_workload


def brute_force(lows, highs, point):
    mask = np.all((lows < point) & (point <= highs), axis=1)
    return sorted(np.flatnonzero(mask).tolist())


class TestConstruction:
    def test_single_rectangle(self):
        tree = HilbertRTree.build(
            np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])
        )
        assert tree.match([0.5, 0.5]).tolist() == [0]
        assert tree._packed.depths()[-1] == 0

    def test_height_is_logarithmic(self, rng):
        lows, highs, _ = make_workload(rng, k=1000)
        tree = HilbertRTree.build(lows, highs, branch_factor=10)
        # 1000 entries, fanout 10: leaves=100, level1=10, root -> height 2.
        assert tree._packed.depths()[-1] == 2

    def test_perfectly_balanced(self, rng):
        lows, highs, _ = make_workload(rng, k=777)

        tree = HilbertRTree.build(lows, highs, branch_factor=8)
        leaves = check_packed_invariants(tree)
        depths = {depth for _, depth in leaves}
        assert depths == {tree._packed.depths()[-1]}  # all leaves at one depth
        packed = tree._packed
        assert np.all(packed.entry_count[packed.is_leaf] <= 8)
        assert np.all(packed.child_count[~packed.is_leaf] <= 8)

    def test_branch_factor_validation(self, rng):
        lows, highs, _ = make_workload(rng, k=10)
        with pytest.raises(ValueError):
            HilbertRTree.build(lows, highs, branch_factor=1)
        with pytest.raises(ValueError):
            HilbertRTree.build(lows, highs, curve_bits=0)


class TestCorrectness:
    def test_matches_brute_force(self, workload):
        lows, highs, points = workload
        tree = HilbertRTree.build(lows, highs)
        for point in points:
            assert tree.match(point).tolist() == brute_force(lows, highs, point)

    def test_matches_brute_force_small_fanout(self, workload):
        lows, highs, points = workload
        tree = HilbertRTree.build(lows, highs, branch_factor=4)
        for point in points[:80]:
            assert tree.match(point).tolist() == brute_force(lows, highs, point)

    def test_half_open_semantics(self):
        tree = HilbertRTree.build(
            np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])
        )
        assert tree.match([0.0, 0.5]).tolist() == []
        assert tree.match([1.0, 1.0]).tolist() == [0]

    def test_custom_ids(self):
        lows = np.zeros((3, 1))
        highs = np.ones((3, 1))
        tree = HilbertRTree.build(lows, highs, ids=[7, 8, 9])
        assert tree.match([1.0]).tolist() == [7, 8, 9]


class TestStats:
    def test_locality_prunes(self, rng):
        lows, highs, points = make_workload(rng, k=2000, unbounded=False)
        tree = HilbertRTree.build(lows, highs)
        for point in points:
            tree.match(point)
        assert tree.stats.entries_per_query < len(lows) * 0.6
