"""Property-based tests for the geometric primitives."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import Interval, Rectangle

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
endpoints = st.one_of(
    finite_floats, st.just(math.inf), st.just(-math.inf)
)


@st.composite
def intervals(draw):
    lo = draw(endpoints)
    hi = draw(endpoints)
    return Interval(lo, hi)


@st.composite
def rectangles(draw, ndim=3):
    sides = [draw(intervals()) for _ in range(ndim)]
    return Rectangle.from_intervals(sides)


#: Two sides whose product underflows to 0.0 before the unbounded side
#: is multiplied in: ``0.0 * inf`` made ``volume`` NaN.
UNDERFLOWING_UNBOUNDED = Rectangle(
    lows=(0.0, 0.0, 0.0),
    highs=(1.380352967461389e-226, 1.380352967461389e-226, math.inf),
)


class TestIntervalProperties:
    @given(intervals(), intervals())
    def test_intersection_commutes(self, a, b):
        ab = a.intersection(b)
        ba = b.intersection(a)
        assert ab == ba or (ab.is_empty and ba.is_empty)

    @given(intervals(), intervals(), finite_floats)
    def test_intersection_semantics(self, a, b, x):
        # x is in a∩b exactly when it is in both.
        assert a.intersection(b).contains(x) == (
            a.contains(x) and b.contains(x)
        )

    @given(intervals(), intervals())
    def test_contains_interval_transitive_with_intersection(self, a, b):
        # a ⊇ (a∩b) always.
        inter = a.intersection(b)
        assert inter.is_empty or (a.lo <= inter.lo and inter.hi <= a.hi)


class TestRectangleProperties:
    @given(rectangles(), rectangles())
    def test_intersects_symmetric(self, a, b):
        assert a.intersection(b) == b.intersection(a)

    @given(
        rectangles(),
        rectangles(),
        st.lists(finite_floats, min_size=3, max_size=3),
    )
    def test_intersection_semantics(self, a, b, coords):
        point = tuple(coords)
        assert a.intersection(b).contains_point(point) == (
            a.contains_point(point) and b.contains_point(point)
        )

    @given(rectangles())
    @example(UNDERFLOWING_UNBOUNDED)
    def test_volume_nonnegative(self, r):
        assert r.volume >= 0.0

    @given(rectangles(), rectangles())
    def test_intersection_volume_bounded(self, a, b):
        inter = a.intersection(b)
        if all(map(math.isfinite, a.lows + a.highs + b.lows + b.highs)):
            assert inter.volume <= min(a.volume, b.volume) + 1e-6
