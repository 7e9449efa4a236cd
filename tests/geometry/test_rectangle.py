"""Unit tests for axis-aligned rectangles."""

import math

import pytest

from repro.geometry import FULL_LINE, Interval, Rectangle


def rect(*sides):
    """Shorthand: rect((0,1), (2,3)) builds a 2-D rectangle."""
    return Rectangle(
        tuple(s[0] for s in sides), tuple(s[1] for s in sides)
    )


class TestConstruction:
    def test_from_intervals(self):
        r = Rectangle.from_intervals([Interval(0, 1), Interval(2, 3)])
        assert r.lows == (0, 2)
        assert r.highs == (1, 3)

    def test_from_bounds(self):
        r = Rectangle.from_bounds([0, 2], [1, 3])
        assert r == rect((0, 1), (2, 3))

    def test_cube(self):
        r = Rectangle((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        assert r.ndim == 3
        assert r.volume == 1.0

    def test_full_space(self):
        r = Rectangle.from_intervals([FULL_LINE] * 2)
        assert r.contains_point((1e300, -1e300))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Rectangle((0.0,), (1.0, 2.0))

    def test_zero_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Rectangle((), ())

    def test_sides_roundtrip(self):
        r = rect((0, 1), (2, 3))
        assert r.sides == (Interval(0, 1), Interval(2, 3))
        assert list(r) == [Interval(0, 1), Interval(2, 3)]


class TestContainment:
    def test_interior_point(self):
        assert rect((0, 2), (0, 2)).contains_point((1.0, 1.0))

    def test_half_open_boundaries(self):
        r = rect((0, 2), (0, 2))
        assert not r.contains_point((0.0, 1.0))  # low edge excluded
        assert r.contains_point((2.0, 1.0))  # high edge included
        assert r.contains_point((2.0, 2.0))  # corner on high edges

    def test_gryphon_example(self):
        # name=IBM (code 5), 75 < price <= 80, volume >= 1000
        subscription = Rectangle.from_intervals(
            [
                Interval(4.0, 5.0),
                Interval(75.0, 80.0),
                Interval(999.0, math.inf),
            ]
        )
        assert subscription.contains_point((5.0, 78.5, 1000.0))
        assert not subscription.contains_point((5.0, 78.5, 999.0))
        assert not subscription.contains_point((5.0, 80.5, 5000.0))
        assert not subscription.contains_point((4.0, 78.5, 5000.0))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            rect((0, 1), (0, 1)).contains_point((0.5,))

    def test_dunder_contains(self):
        assert (1.0, 1.0) in rect((0, 2), (0, 2))


class TestIntersection:
    def test_overlapping(self):
        a = rect((0, 2), (0, 2))
        b = rect((1, 3), (1, 3))
        assert a.intersection(b) == rect((1, 2), (1, 2))

    def test_touching_faces_do_not_intersect(self):
        # Half-open: (0,1] x ... and (1,2] x ... share only the closed
        # face x=1 of the first, which the second excludes.
        a = rect((0, 1), (0, 1))
        b = rect((1, 2), (0, 1))
        assert a.intersection(b).is_empty

    def test_disjoint_in_one_dimension_suffices(self):
        a = rect((0, 1), (0, 100))
        b = rect((5, 6), (0, 100))
        assert a.intersection(b).is_empty

    def test_empty_never_intersects(self):
        empty = rect((1, 0), (0, 1))
        assert empty.intersection(rect((0, 1), (0, 1))).is_empty

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rect((0, 1), (0, 1)).intersection(Rectangle((0.0,), (1.0,)))


class TestMeasures:
    def test_volume(self):
        assert rect((0, 2), (0, 3)).volume == 6.0

    def test_volume_empty_is_zero(self):
        assert rect((2, 0), (0, 3)).volume == 0.0

    def test_volume_unbounded_is_inf(self):
        assert rect((0, math.inf), (0, 1)).volume == math.inf

    def test_volume_unbounded_is_inf_when_finite_sides_underflow(self):
        tiny = 1.380352967461389e-226
        r = rect((0, tiny), (0, tiny), (0, math.inf))
        assert tiny * tiny == 0.0
        assert r.volume == math.inf
        # Clipped to a bounded frame the same sides give a finite volume.
        frame = rect((0, 1), (0, 1), (0, 1))
        assert r.intersection(frame).volume == 0.0

    def test_clipped_volume(self):
        unbounded = rect((0, math.inf), (0, 1))
        frame = rect((0, 10), (0, 10))
        assert unbounded.intersection(frame).volume == 10.0


class TestConversions:
    def test_to_arrays(self):
        lows, highs = rect((0, 1), (2, 3)).to_arrays()
        assert lows.tolist() == [0.0, 2.0]
        assert highs.tolist() == [1.0, 3.0]

    def test_hashable(self):
        assert len({rect((0, 1), (0, 1)), rect((0, 1), (0, 1))}) == 1
