"""Property-based cross-checks: every index answers like the brute force.

This is the load-bearing invariant of the matching layer — all five
backends are interchangeable implementations of the same point query.
Points may sit at ±inf, and a side may be empty at infinity —
``(+inf, +inf]`` or ``(-inf, -inf]`` — which is not a wildcard.
The second half of the file aims the generator at the half-open
boundaries: independent floats essentially never put a point *on* a
bound, so there the query coordinates are drawn from the rectangles'
own ``lo`` / ``hi`` values (and ±inf) and their floating-point
neighbours.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial import (
    CountingMatcher,
    GridIndexMatcher,
    HilbertRTree,
    LinearScanMatcher,
    STree,
    STreeParams,
)

coordinate = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
maybe_unbounded_low = st.one_of(coordinate, st.just(-np.inf))
maybe_unbounded_high = st.one_of(coordinate, st.just(np.inf))
infinity = st.sampled_from([-np.inf, np.inf])
#: Sides that hold nothing, out at either infinity.
empty_at_infinity = st.sampled_from([(np.inf, np.inf), (-np.inf, -np.inf)])


@st.composite
def rectangle_set(draw, ndim=2):
    k = draw(st.integers(min_value=1, max_value=30))
    lows = []
    highs = []
    for _ in range(k):
        row_lo = []
        row_hi = []
        for _ in range(ndim):
            a = draw(maybe_unbounded_low)
            b = draw(maybe_unbounded_high)
            lo, hi = (a, b) if a <= b else (b, a)
            if draw(st.integers(min_value=0, max_value=9)) == 0:
                lo, hi = draw(empty_at_infinity)
            row_lo.append(lo)
            row_hi.append(hi)
        lows.append(row_lo)
        highs.append(row_hi)
    return np.array(lows), np.array(highs)


@st.composite
def query_points(draw, ndim=2):
    value = st.one_of(coordinate, coordinate, coordinate, infinity)
    return np.array([draw(value) for _ in range(ndim)])


def reference(lows, highs, point):
    mask = np.all((lows < point) & (point <= highs), axis=1)
    return sorted(np.flatnonzero(mask).tolist())


@settings(max_examples=60, deadline=None)
@given(rectangle_set(), query_points())
def test_stree_equals_reference(rects, point):
    lows, highs = rects
    tree = STree.build(lows, highs, params=STreeParams(branch_factor=4))
    assert tree.match(point).tolist() == reference(lows, highs, point)


@settings(max_examples=60, deadline=None)
@given(rectangle_set(), query_points())
def test_stree_longest_equals_reference(rects, point):
    lows, highs = rects
    tree = STree.build(
        lows,
        highs,
        params=STreeParams(branch_factor=4, split_dimension="longest"),
    )
    assert tree.match(point).tolist() == reference(lows, highs, point)


@settings(max_examples=60, deadline=None)
@given(rectangle_set(), query_points())
def test_rtree_equals_reference(rects, point):
    lows, highs = rects
    tree = HilbertRTree.build(lows, highs, branch_factor=4)
    assert tree.match(point).tolist() == reference(lows, highs, point)


@settings(max_examples=60, deadline=None)
@given(rectangle_set(), query_points())
def test_grid_equals_reference(rects, point):
    lows, highs = rects
    matcher = GridIndexMatcher.build(lows, highs, cells_per_dim=4)
    assert matcher.match(point).tolist() == reference(lows, highs, point)


@settings(max_examples=60, deadline=None)
@given(rectangle_set(), query_points())
def test_counting_equals_reference(rects, point):
    lows, highs = rects
    matcher = CountingMatcher.build(lows, highs)
    assert matcher.match(point).tolist() == reference(lows, highs, point)


@settings(max_examples=60, deadline=None)
@given(rectangle_set(), query_points())
def test_linear_equals_reference(rects, point):
    lows, highs = rects
    matcher = LinearScanMatcher.build(lows, highs)
    assert matcher.match(point).tolist() == reference(lows, highs, point)


@settings(max_examples=30, deadline=None)
@given(rectangle_set(ndim=3), query_points(ndim=3))
def test_all_backends_agree_3d(rects, point):
    lows, highs = rects
    results = {
        "stree": STree.build(
            lows, highs, params=STreeParams(branch_factor=4)
        ).match(point).tolist(),
        "rtree": HilbertRTree.build(lows, highs, branch_factor=4).match(
            point
        ).tolist(),
        "grid": GridIndexMatcher.build(lows, highs).match(point).tolist(),
        "counting": CountingMatcher.build(lows, highs).match(point).tolist(),
        "linear": LinearScanMatcher.build(lows, highs).match(point).tolist(),
    }
    assert len({tuple(v) for v in results.values()}) == 1, results
    assert results["linear"] == reference(lows, highs, point)


# -- generated boundaries ---------------------------------------------------

BACKENDS = {
    "stree": lambda lo, hi: STree.build(
        lo, hi, params=STreeParams(branch_factor=4)
    ),
    "stree-longest": lambda lo, hi: STree.build(
        lo, hi, params=STreeParams(branch_factor=4, split_dimension="longest")
    ),
    "rtree": lambda lo, hi: HilbertRTree.build(lo, hi, branch_factor=4),
    "grid": lambda lo, hi: GridIndexMatcher.build(lo, hi, cells_per_dim=4),
    "counting": CountingMatcher.build,
    "linear": LinearScanMatcher.build,
}

#: Few distinct values, so bounds collide across rectangles too.
lattice = st.integers(min_value=-3, max_value=3).map(float)


@st.composite
def side(draw):
    """One ``(lo, hi]`` side: bounded, a ray, a wildcard or empty."""
    kind = draw(
        st.sampled_from(
            ["bounded", "zero", "low-ray", "high-ray", "all", "infinite"]
        )
    )
    if kind == "infinite":
        return draw(empty_at_infinity)
    a, b = sorted([draw(lattice), draw(lattice)])
    return {
        "bounded": (a, b),  # a == b happens: also zero-width
        "zero": (a, a),  # matches nothing under (lo, hi]
        "low-ray": (-np.inf, b),
        "high-ray": (a, np.inf),
        "all": (-np.inf, np.inf),
    }[kind]


@st.composite
def boundary_case(draw, ndim=2):
    """Rectangles (with duplicates and unbounded rows) and points on them."""
    rows = draw(
        st.lists(st.lists(side(), min_size=ndim, max_size=ndim), min_size=1, max_size=12)
    )
    if draw(st.booleans()):
        rows.append([(-np.inf, np.inf)] * ndim)  # a fully unbounded row
    repeats = draw(st.lists(st.sampled_from(rows), max_size=6))
    bounds = np.array(rows + repeats)  # (k, ndim, 2)
    lows, highs = bounds[:, :, 0], bounds[:, :, 1]

    def coordinate(dim):
        finite = np.concatenate([lows[:, dim], highs[:, dim]])
        finite = finite[np.isfinite(finite)].tolist() or [0.0]
        value = draw(st.sampled_from(finite + [-np.inf, np.inf]))
        nudge = draw(st.sampled_from([-np.inf, None, np.inf]))
        return value if nudge is None else float(np.nextafter(value, nudge))

    count = draw(st.integers(min_value=1, max_value=6))
    points = np.array(
        [[coordinate(dim) for dim in range(ndim)] for _ in range(count)]
    )
    return lows, highs, points


@settings(max_examples=150, deadline=None)
@given(boundary_case())
def test_all_backends_agree_on_boundaries(case):
    lows, highs, points = case
    expected = [reference(lows, highs, point) for point in points]
    for name, build in BACKENDS.items():
        matcher = build(lows, highs)
        assert [matcher.match(p).tolist() for p in points] == expected, name
        assert [ids.tolist() for ids in matcher.match_many(points)] == (
            expected
        ), name


@settings(max_examples=40, deadline=None)
@given(boundary_case(ndim=3))
def test_all_backends_agree_on_boundaries_3d(case):
    lows, highs, points = case
    expected = [reference(lows, highs, point) for point in points]
    for name, build in BACKENDS.items():
        matcher = build(lows, highs)
        assert [ids.tolist() for ids in matcher.match_many(points)] == (
            expected
        ), name
        assert [matcher.match(p).tolist() for p in points] == expected, name
