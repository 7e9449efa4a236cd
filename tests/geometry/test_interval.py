"""Unit tests for half-open intervals."""

import math

import pytest

from repro.geometry import FULL_LINE, Interval, parse_predicate


class TestContainment:
    def test_interior_point_contained(self):
        assert Interval(0.0, 2.0).contains(1.0)

    def test_left_endpoint_excluded(self):
        assert not Interval(0.0, 2.0).contains(0.0)

    def test_right_endpoint_included(self):
        assert Interval(0.0, 2.0).contains(2.0)

    def test_outside_points(self):
        interval = Interval(0.0, 2.0)
        assert not interval.contains(-1.0)
        assert not interval.contains(3.0)

    def test_dunder_contains(self):
        assert 1.5 in Interval(1.0, 2.0)
        assert 0.5 not in Interval(1.0, 2.0)

    def test_adjacent_intervals_tile_without_overlap(self):
        # The half-open convention exists for exactly this property.
        left = Interval(0.0, 1.0)
        right = Interval(1.0, 2.0)
        assert left.contains(1.0)
        assert not right.contains(1.0)
        assert right.contains(1.5)
        assert left.intersection(right).is_empty

    def test_full_line_contains_everything(self):
        assert FULL_LINE.contains(0.0)
        assert FULL_LINE.contains(-1e300)
        assert FULL_LINE.contains(1e300)

    def test_ray_contains(self):
        ray = Interval(5.0, math.inf)
        assert ray.contains(6.0)
        assert not ray.contains(5.0)
        assert ray.contains(1e308)


class TestEmptiness:
    def test_reversed_is_empty(self):
        assert Interval(2.0, 1.0).is_empty

    def test_degenerate_is_empty(self):
        # (a, a] contains nothing under the half-open convention.
        assert Interval(1.0, 1.0).is_empty

    def test_proper_is_not_empty(self):
        assert not Interval(1.0, 1.0001).is_empty

    def test_empty_contains_nothing(self):
        empty = Interval(3.0, 1.0)
        assert not empty.contains(2.0)




class TestSetOperations:
    def test_intersects_overlapping(self):
        assert not Interval(0.0, 2.0).intersection(Interval(1.0, 3.0)).is_empty

    def test_intersects_is_symmetric(self):
        a, b = Interval(0.0, 2.0), Interval(1.0, 3.0)
        assert a.intersection(b) == b.intersection(a)

    def test_touching_half_open_do_not_intersect(self):
        assert Interval(0.0, 1.0).intersection(Interval(1.0, 2.0)).is_empty

    def test_disjoint_do_not_intersect(self):
        assert Interval(0.0, 1.0).intersection(Interval(5.0, 6.0)).is_empty

    def test_empty_never_intersects(self):
        empty = Interval(1.0, 0.0)
        assert empty.intersection(FULL_LINE).is_empty
        assert FULL_LINE.intersection(empty).is_empty

    def test_intersection_overlap(self):
        result = Interval(0.0, 2.0).intersection(Interval(1.0, 3.0))
        assert result == Interval(1.0, 2.0)

    def test_intersection_disjoint_is_empty(self):
        result = Interval(0.0, 1.0).intersection(Interval(2.0, 3.0))
        assert result.is_empty

    def test_intersection_with_full_line_is_identity(self):
        interval = Interval(2.0, 5.0)
        assert interval.intersection(FULL_LINE) == interval


class TestHelpers:
    def test_iteration_unpacks_endpoints(self):
        lo, hi = Interval(1.0, 2.0)
        assert (lo, hi) == (1.0, 2.0)


class TestParsePredicate:
    def test_wildcard(self):
        assert parse_predicate("*", 0.0) == FULL_LINE

    def test_greater_than(self):
        interval = parse_predicate(">", 999.0)
        assert not interval.contains(999.0)
        assert interval.contains(1000.0)

    def test_greater_equal(self):
        interval = parse_predicate(">=", 1000.0)
        assert interval.contains(1000.0)
        assert not interval.contains(999.9999)

    def test_less_than(self):
        interval = parse_predicate("<", 75.0)
        assert interval.contains(74.0)
        assert not interval.contains(75.0)

    def test_less_equal(self):
        interval = parse_predicate("<=", 80.0)
        assert interval.contains(80.0)
        assert not interval.contains(80.0001)

    def test_equality(self):
        interval = parse_predicate("==", 42.0)
        assert interval.contains(42.0)
        assert not interval.contains(41.9999)
        assert not interval.contains(42.0001)

    def test_between_matches_paper_example(self):
        # 75.00 < price <= 80.00
        interval = parse_predicate("between", 75.0, 80.0)
        assert not interval.contains(75.0)
        assert interval.contains(75.01)
        assert interval.contains(80.0)
        assert not interval.contains(80.01)

    def test_between_requires_second(self):
        with pytest.raises(ValueError):
            parse_predicate("between", 1.0)

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            parse_predicate("!=", 1.0)
