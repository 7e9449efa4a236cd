"""Unit tests for the S-tree."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.spatial import LinearScanMatcher, STree, STreeParams

from .conftest import check_packed_invariants


def brute_force(lows, highs, point):
    mask = np.all((lows < point) & (point <= highs), axis=1)
    return sorted(np.flatnonzero(mask).tolist())


class TestParams:
    def test_defaults_match_paper(self):
        params = STreeParams()
        assert params.branch_factor == 40
        assert params.skew_factor == pytest.approx(0.3)
        assert params.effective_sweep_increment == 40

    def test_branch_factor_validation(self):
        with pytest.raises(ValueError):
            STreeParams(branch_factor=1)

    def test_skew_factor_range(self):
        STreeParams(skew_factor=0.5)  # boundary is legal
        with pytest.raises(ValueError):
            STreeParams(skew_factor=0.0)
        with pytest.raises(ValueError):
            STreeParams(skew_factor=0.6)

    def test_sweep_increment_validation(self):
        with pytest.raises(ValueError):
            STreeParams(sweep_increment=0)

    def test_split_dimension_validation(self):
        with pytest.raises(ValueError):
            STreeParams(split_dimension="widest")


class TestConstruction:
    def test_single_rectangle(self):
        tree = STree.build(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
        assert tree.match([0.5, 0.5]).tolist() == [0]
        assert tree.match([2.0, 2.0]).tolist() == []

    def test_small_set_becomes_single_leaf(self):
        lows = np.zeros((5, 2))
        highs = np.ones((5, 2)) * np.arange(1, 6)[:, None]
        tree = STree.build(lows, highs)
        shape = tree.shape()
        assert shape.leaf_nodes == 1
        assert shape.height == 0
        assert shape.entries == 5

    def test_every_entry_reachable(self, workload):
        lows, highs, _ = workload
        tree = STree.build(lows, highs)
        assert tree.shape().entries == len(lows)

    def test_branch_factor_respected(self, workload):
        lows, highs, _ = workload
        params = STreeParams(branch_factor=8)
        tree = STree.build(lows, highs, params=params)

        packed = tree._packed
        leaf = packed.is_leaf
        assert np.all(packed.entry_count[leaf] <= 8)
        assert np.all((2 <= packed.child_count[~leaf]))
        assert np.all(packed.child_count[~leaf] <= 8)

    @pytest.mark.parametrize("split_dimension", ["best", "longest"])
    def test_packed_layout_invariants(self, workload, split_dimension):
        lows, highs, _ = workload
        params = STreeParams(branch_factor=8, split_dimension=split_dimension)
        tree = STree.build(lows, highs, params=params)
        leaves = check_packed_invariants(tree)
        shape = tree.shape()
        assert shape.leaf_nodes == len(leaves)
        depths = [depth for _, depth in leaves]
        assert (shape.min_leaf_depth, shape.max_leaf_depth) == (
            min(depths), max(depths)
        )
        assert shape.height == max(depths)

    def test_custom_ids_reported(self):
        lows = np.zeros((3, 1))
        highs = np.ones((3, 1))
        tree = STree.build(lows, highs, ids=[10, 20, 30])
        assert tree.match([0.5]).tolist() == [10, 20, 30]

    def test_identical_rectangles(self):
        # Degenerate data: every rectangle the same.
        lows = np.zeros((200, 2))
        highs = np.ones((200, 2))
        tree = STree.build(lows, highs, params=STreeParams(branch_factor=10))
        assert tree.match([0.5, 0.5]).tolist() == list(range(200))
        assert tree.match([1.5, 0.5]).tolist() == []

    def test_build_input_validation(self):
        with pytest.raises(ValueError):
            STree.build(np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            STree.build(np.zeros((3, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            STree.build(
                np.full((2, 2), np.nan), np.ones((2, 2))
            )
        with pytest.raises(ValueError):
            STree.build(np.zeros((2, 2)), np.ones((2, 2)), ids=[1])


class TestCorrectness:
    def test_matches_brute_force(self, workload):
        lows, highs, points = workload
        tree = STree.build(lows, highs)
        for point in points:
            assert tree.match(point).tolist() == brute_force(lows, highs, point)

    def test_matches_brute_force_bounded(self, bounded_workload):
        lows, highs, points = bounded_workload
        tree = STree.build(lows, highs)
        for point in points:
            assert tree.match(point).tolist() == brute_force(lows, highs, point)

    def test_longest_dimension_variant_correct(self, workload):
        lows, highs, points = workload
        tree = STree.build(
            lows, highs, params=STreeParams(split_dimension="longest")
        )
        for point in points[:50]:
            assert tree.match(point).tolist() == brute_force(lows, highs, point)

    def test_half_open_semantics_at_boundaries(self):
        lows = np.array([[0.0, 0.0]])
        highs = np.array([[1.0, 1.0]])
        tree = STree.build(lows, highs)
        assert tree.match([0.0, 0.5]).tolist() == []
        assert tree.match([1.0, 1.0]).tolist() == [0]

    def test_unbounded_rectangle_matches_far_points(self):
        lows = np.array([[0.0, -np.inf]])
        highs = np.array([[np.inf, 0.0]])
        tree = STree.build(lows, highs)
        assert tree.match([1e9, -1e9]).tolist() == [0]
        assert tree.match([-1.0, -1.0]).tolist() == []

    def test_count(self, workload):
        lows, highs, points = workload
        tree = STree.build(lows, highs)
        for point in points[:20]:
            assert tree.count(point) == len(
                brute_force(lows, highs, point)
            )

    def test_wrong_point_arity(self, workload):
        lows, highs, _ = workload
        tree = STree.build(lows, highs)
        with pytest.raises(ValueError):
            tree.match([1.0])


class TestRegionQuery:
    def test_region_matches_bruteforce(self, workload, rng):
        lows, highs, _ = workload
        tree = STree.build(lows, highs)
        for _ in range(30):
            q_lo = rng.uniform(-2, 18, size=4)
            q_hi = q_lo + rng.uniform(0.5, 6, size=4)
            expected = sorted(
                np.flatnonzero(
                    np.all(
                        np.maximum(lows, q_lo) < np.minimum(highs, q_hi),
                        axis=1,
                    )
                ).tolist()
            )
            assert tree.region_query(q_lo, q_hi) == expected

    def test_region_covering_everything(self, workload):
        lows, highs, _ = workload
        tree = STree.build(lows, highs)
        result = tree.region_query([-1e9] * 4, [1e9] * 4)
        assert result == list(range(len(lows)))

    def test_region_arity_validation(self, workload):
        lows, highs, _ = workload
        tree = STree.build(lows, highs)
        with pytest.raises(ValueError):
            tree.region_query([0.0], [1.0])

    def test_region_rejects_inverted_and_nan_bounds(self, workload):
        lows, highs, _ = workload
        tree = STree.build(lows, highs)
        with pytest.raises(ValueError, match="lows <= highs"):
            tree.region_query([0.0, 0.0, 5.0, 0.0], [9.0, 9.0, 4.0, 9.0])
        with pytest.raises(ValueError, match="NaN"):
            tree.region_query([0.0, math.nan, 0.0, 0.0], [9.0] * 4)
        with pytest.raises(ValueError, match="NaN"):
            tree.region_query([0.0] * 4, [9.0, 9.0, 9.0, math.nan])
        assert tree.stats.queries == 0  # rejected before the traversal

    def test_empty_region_matches_nothing(self, workload):
        lows, highs, _ = workload
        tree = STree.build(lows, highs)
        assert tree.region_query([5.0] * 4, [5.0] * 4) == []

    def test_region_validation_survives_python_O(self):
        # The bounds check is an ``if ... raise``, not an assert, so it
        # must still fire with assertions compiled out.
        program = (
            "import numpy as np\n"
            "from repro.spatial import STree\n"
            "tree = STree.build(np.zeros((3, 2)), np.ones((3, 2)))\n"
            "cases = [\n"
            "    ([0.5, 0.9], [0.7, 0.1]),\n"
            "    ([0.5, float('nan')], [0.7, 0.9]),\n"
            "    ([0.5, 0.1], [float('nan'), 0.9]),\n"
            "    ([0.5], [0.7]),\n"
            "]\n"
            "assert False  # proves -O is active: this must not raise\n"
            "for q_lo, q_hi in cases:\n"
            "    try:\n"
            "        tree.region_query(q_lo, q_hi)\n"
            "    except ValueError as error:\n"
            "        if not str(error).startswith('query bounds must'):\n"
            "            raise SystemExit(f'wrong message: {error}')\n"
            "    else:\n"
            "        raise SystemExit('ValueError not raised under -O')\n"
            "if tree.stats.queries:\n"
            "    raise SystemExit('a rejected query reached the traversal')\n"
            "print('OK')\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", program],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.join(os.path.dirname(__file__), "..", ".."),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "OK"


class TestShapeAndStats:
    def test_shape_consistency(self, workload):
        lows, highs, _ = workload
        tree = STree.build(lows, highs, params=STreeParams(branch_factor=10))
        shape = tree.shape()
        assert shape.entries == len(lows)
        assert shape.min_leaf_depth <= shape.max_leaf_depth == shape.height
        assert shape.mean_branch_factor > 1.0

    def test_higher_skew_factor_balances_tree(self, rng):
        from .conftest import make_workload

        lows, highs, _ = make_workload(rng, k=3000, unbounded=False)
        loose = STree.build(
            lows, highs, params=STreeParams(branch_factor=8, skew_factor=0.1)
        ).shape()
        tight = STree.build(
            lows, highs, params=STreeParams(branch_factor=8, skew_factor=0.5)
        ).shape()
        assert (tight.max_leaf_depth - tight.min_leaf_depth) <= (
            loose.max_leaf_depth - loose.min_leaf_depth
        ) + 1

    def test_stats_accumulate(self, workload):
        lows, highs, points = workload
        tree = STree.build(lows, highs)
        assert tree.stats.queries == 0
        tree.match(points[0])
        tree.match(points[1])
        assert tree.stats.queries == 2
        assert tree.stats.entries_tested > 0
        tree.stats.reset()
        assert tree.stats.queries == 0

    def test_pruning_beats_linear_scan(self, workload):
        lows, highs, points = workload
        tree = STree.build(lows, highs)
        linear = LinearScanMatcher.build(lows, highs)
        for point in points:
            tree.match(point)
            linear.match(point)
        assert (
            tree.stats.entries_per_query < linear.stats.entries_per_query
        )

    def test_len_and_ndim(self, workload):
        lows, highs, _ = workload
        tree = STree.build(lows, highs)
        assert len(tree) == len(lows)
        assert tree.ndim == 4
