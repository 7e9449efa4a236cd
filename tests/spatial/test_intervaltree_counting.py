"""Unit tests for the interval tree and the counting matcher."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial import CountingMatcher, LinearScanMatcher, StaticIntervalTree

from .conftest import make_workload


def brute_stab(lows, highs, x):
    return sorted(
        i
        for i, (lo, hi) in enumerate(zip(lows, highs))
        if lo < x <= hi
    )


class TestStaticIntervalTree:
    def test_basic_stabbing(self):
        tree = StaticIntervalTree([0.0, 2.0, -1.0], [5.0, 3.0, 1.0])
        assert sorted(tree.stab(2.5)) == [0, 1]
        assert sorted(tree.stab(0.5)) == [0, 2]
        assert tree.stab(10.0) == []

    def test_half_open_semantics(self):
        tree = StaticIntervalTree([0.0], [1.0])
        assert tree.stab(0.0) == []
        assert tree.stab(1.0) == [0]

    def test_empty_intervals_dropped(self):
        tree = StaticIntervalTree([0.0, 5.0], [1.0, 4.0])
        assert tree.size == 1
        assert tree.stab(4.5) == []

    def test_unbounded_rays(self):
        tree = StaticIntervalTree(
            [-np.inf, 3.0, -np.inf], [0.0, np.inf, np.inf]
        )
        assert sorted(tree.stab(-100.0)) == [0, 2]
        assert sorted(tree.stab(100.0)) == [1, 2]

    def test_all_identical_left_rays_terminate(self):
        # The degenerate case that would loop without the recentering.
        k = 50
        tree = StaticIntervalTree([-np.inf] * k, [0.0] * k)
        assert sorted(tree.stab(-1.0)) == list(range(k))
        assert tree.stab(0.5) == []

    def test_all_identical_right_rays_terminate(self):
        k = 50
        tree = StaticIntervalTree([0.0] * k, [np.inf] * k)
        assert sorted(tree.stab(1.0)) == list(range(k))

    def test_one_ulp_intervals(self):
        lo = 1.0
        hi = np.nextafter(1.0, 2.0)
        tree = StaticIntervalTree([lo] * 5, [hi] * 5)
        assert sorted(tree.stab(hi)) == [0, 1, 2, 3, 4]
        assert tree.stab(lo) == []

    def test_custom_ids(self):
        tree = StaticIntervalTree([0.0], [1.0], ids=[42])
        assert tree.stab(0.5) == [42]

    def test_validation(self):
        with pytest.raises(ValueError):
            StaticIntervalTree([0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            StaticIntervalTree([0.0], [1.0], ids=[1, 2])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False),
                st.floats(-100, 100, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(-120, 120, allow_nan=False),
    )
    def test_matches_bruteforce(self, pairs, x):
        lows = [min(a, b) for a, b in pairs]
        highs = [max(a, b) for a, b in pairs]
        tree = StaticIntervalTree(lows, highs)
        assert sorted(tree.stab(x)) == brute_stab(lows, highs, x)


class TestCountingMatcher:
    def test_matches_brute_force(self, workload):
        lows, highs, points = workload
        counting = CountingMatcher.build(lows, highs)
        linear = LinearScanMatcher.build(lows, highs)
        for point in points:
            assert counting.match(point).tolist() == linear.match(point).tolist()

    def test_matches_brute_force_bounded(self, bounded_workload):
        lows, highs, points = bounded_workload
        counting = CountingMatcher.build(lows, highs)
        linear = LinearScanMatcher.build(lows, highs)
        for point in points[:80]:
            assert counting.match(point).tolist() == linear.match(point).tolist()

    def test_all_wildcard_subscription(self):
        lows = np.array([[-np.inf, -np.inf], [0.0, 0.0]])
        highs = np.array([[np.inf, np.inf], [1.0, 1.0]])
        matcher = CountingMatcher.build(lows, highs)
        assert matcher.match([0.5, 0.5]).tolist() == [0, 1]
        assert matcher.match([100.0, 100.0]).tolist() == [0]

    def test_partial_satisfaction_is_no_match(self):
        # One predicate satisfied, the other not: counter != required.
        lows = np.array([[0.0, 10.0]])
        highs = np.array([[1.0, 11.0]])
        matcher = CountingMatcher.build(lows, highs)
        assert matcher.match([0.5, 5.0]).tolist() == []
        assert matcher.match([0.5, 10.5]).tolist() == [0]

    def test_mixed_wildcard_dimensions(self):
        # Wildcard price, bounded volume: only the volume test counts.
        lows = np.array([[-np.inf, 0.0]])
        highs = np.array([[np.inf, 10.0]])
        matcher = CountingMatcher.build(lows, highs)
        assert matcher.match([123.0, 5.0]).tolist() == [0]
        assert matcher.match([123.0, 50.0]).tolist() == []

    def test_empty_infinite_sides_are_not_wildcards(self):
        # (+inf, +inf] and (-inf, -inf] hold nothing; only (-inf, +inf]
        # is a wildcard.
        lows = np.array([[np.inf, 0.0], [-np.inf, 0.0], [1.0, 0.0]])
        highs = np.array([[np.inf, 5.0], [-np.inf, 5.0], [3.0, 5.0]])
        matcher = CountingMatcher.build(lows, highs)
        assert matcher.match([2.0, 3.0]).tolist() == [2]
        assert matcher.match([np.inf, 3.0]).tolist() == []
        assert matcher.match([-np.inf, 3.0]).tolist() == []

    def test_wildcard_excludes_minus_infinity(self):
        # -inf < -inf is false: a wildcard side does not hold -inf.
        lows = np.array([[-np.inf, 0.0], [-np.inf, -np.inf]])
        highs = np.array([[np.inf, 5.0], [np.inf, np.inf]])
        matcher = CountingMatcher.build(lows, highs)
        assert matcher.match([-np.inf, 3.0]).tolist() == []
        assert matcher.match([3.0, -np.inf]).tolist() == []
        assert matcher.match([np.inf, 3.0]).tolist() == [0, 1]
        assert matcher.match([np.nan, 3.0]).tolist() == []

    def test_custom_ids(self):
        lows = np.zeros((2, 1))
        highs = np.ones((2, 1))
        matcher = CountingMatcher.build(lows, highs, ids=[5, 9])
        assert matcher.match([0.5]).tolist() == [5, 9]

    def test_registered_as_backend(self):
        from repro.core import MATCHER_BACKENDS

        assert MATCHER_BACKENDS["counting"] is CountingMatcher
