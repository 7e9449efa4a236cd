"""The packed point query against a test-local copy of the closure walk.

``PackedTreeMatcher`` answers a point query with the flat reach over the
folded bounds ``[nextafter(lo) ; -hi]``: one ``<=`` over every node box
against ``[x ; -x]``, one over the entries of the leaves kept.  The
query it replaced built that test as a closure and handed it, with the
node and entry bounds, to ``PackedTree.reach``; that walk is kept here,
verbatim, as the reference.  Per query the two must agree on the ids
(the answer one sorted int64 array, compared through ``tolist``) and on
all four ``QueryStats`` counters, for
the S-tree and the Hilbert R-tree, on generated tables (±inf sides,
repeated rows) and on the benchmark's 1k / 4k / 8k testbeds, at points
on and one ulp off every bound, at ±0.0, ±inf and NaN.  The S-tree's
``region_query`` and the errors a malformed point raises are held to
the same reference.  ``PointMatcher.match`` returns what ``_match_ids``
answers without sorting it again, so every backend must sort its own.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.matching import MATCHER_BACKENDS
from repro.experiments.config import ExperimentConfig
from repro.experiments.testbed import build_testbed
from repro.spatial import HilbertRTree, STree, STreeParams
from repro.spatial.base import QueryStats

INF = float("inf")
NAN = float("nan")
MATCHERS = [STree, HilbertRTree]


# -- the reference: the walk as it was -----------------------------------------


def reference_reach(packed, inside, nodes, entries, stats):
    hit = inside(*nodes)
    hit[0] = True  # the root is entered untested
    leaves = np.count_nonzero(hit & packed.is_leaf)
    stats.nodes_visited += np.count_nonzero(hit) - leaves
    stats.leaves_visited += leaves
    rows = np.flatnonzero(hit.repeat(packed.entry_count))
    stats.entries_tested += rows.size
    return rows[inside(*(box.take(rows, axis=1) for box in entries))]


def reference_query(packed, inside, nodes, entries, stats):
    rows = reference_reach(packed, inside, nodes, entries, stats)
    ids = packed.entry_ids.take(rows)
    ids.sort()
    return ids.tolist()


def reference_match(matcher, point, stats):
    """``PointMatcher.match`` over the closure-based ``_match_ids``."""
    at = np.asarray(point, dtype=np.float64)
    if at.shape != (matcher.ndim,):
        raise ValueError(
            f"point must have {matcher.ndim} coordinates, got {at.shape}"
        )
    stats.queries += 1
    fold_at = np.concatenate((at, -at))[:, None]
    packed = matcher._packed
    result = reference_query(
        packed,
        lambda fold: (fold <= fold_at).all(axis=0),
        (packed.folds,), (packed.entry_folds,), stats,
    )
    result.sort()
    return result


def reference_region(matcher, lows, highs, stats):
    """``STree.region_query`` over the closure-based reach."""
    q_lo = np.asarray(lows, dtype=np.float64)
    q_hi = np.asarray(highs, dtype=np.float64)
    stats.queries += 1
    q_lo, q_hi = q_lo[:, None], q_hi[:, None]
    packed = matcher._packed
    return reference_query(
        packed,
        lambda lo, hi: (np.maximum(lo, q_lo) < np.minimum(hi, q_hi)).all(
            axis=0
        ),
        (packed.lows, packed.highs),
        (packed.entry_lows, packed.entry_highs),
        stats,
    )


def stats_of(stats):
    return (
        stats.queries,
        stats.nodes_visited,
        stats.leaves_visited,
        stats.entries_tested,
    )


def assert_points_agree(matcher, points):
    """Query after query: the same ids and the same four counters."""
    expected = QueryStats()
    for point in points:
        got = matcher.match(point)
        want = reference_match(matcher, point, expected)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert got.tolist() == want, point
        assert stats_of(matcher.stats) == stats_of(expected), point


# -- probe points --------------------------------------------------------------


def probes(lows, highs, rng, count):
    """Points whose coordinates sit on, and one ulp either side of,
    bounds of the table, plus ±0.0, ±inf and NaN."""
    ndim = lows.shape[1]
    edges = np.concatenate((lows.ravel(), highs.ravel()))
    edges = edges[np.isfinite(edges)]
    if edges.size == 0:
        edges = np.zeros(1)
    with np.errstate(over="ignore"):
        pool = np.concatenate(
            (
                edges,
                np.nextafter(edges, INF),
                np.nextafter(edges, -INF),
                [0.0, -0.0, INF, -INF, NAN],
            )
        )
    points = rng.choice(pool, (count, ndim))
    # Whole rows taken from one rectangle's corners: on every bound of
    # it at once, and one ulp inside / outside.
    rows = rng.integers(0, len(lows), count)
    for j, row in enumerate(rows[: count // 2].tolist()):
        corner = np.where(rng.random(ndim) < 0.5, lows[row], highs[row])
        step = rng.choice([-INF, 0.0, INF])
        with np.errstate(over="ignore"):
            points[j] = corner if step == 0 else np.nextafter(corner, step)
    return [tuple(p) for p in points.tolist()]


POOL = np.array([-7.5, -1.0, 0.0, 0.5, 1.0, 2.0, 3.5, 40.0])


@st.composite
def tables(draw):
    """``(lows, highs, seed)``: pooled or spread coordinates, rays on
    either side, wildcards and empty sides, rows repeated whole."""
    count = draw(st.integers(1, 250))
    ndim = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        a, b = rng.choice(POOL, (2, count, ndim))
    else:
        a, b = rng.uniform(-50, 50, (2, count, ndim))
    lows, highs = np.minimum(a, b), np.maximum(a, b)
    rays = draw(st.sampled_from([0.0, 0.1, 0.5]))
    lows[rng.random((count, ndim)) < rays] = -INF
    highs[rng.random((count, ndim)) < rays] = INF
    repeats = rng.random(count) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    repeats[0] = False
    source = rng.integers(0, np.arange(count) + 1)  # a row at or above
    for row in np.flatnonzero(repeats):
        lows[row], highs[row] = lows[source[row]], highs[source[row]]
    return lows, highs, seed


@pytest.mark.parametrize("kind", MATCHERS, ids=lambda k: k.__name__)
@given(table=tables(), capacity=st.sampled_from([2, 3, 8, 40]))
def test_generated_tables_match_the_closure_walk(kind, table, capacity):
    lows, highs, seed = table
    rng = np.random.default_rng(seed)
    ids = rng.permutation(10 * len(lows))[: len(lows)] * 3
    options = (
        {"params": STreeParams(branch_factor=capacity)}
        if kind is STree
        else {"branch_factor": capacity}
    )
    matcher = kind.build(lows, highs, ids=ids, **options)
    assert_points_agree(matcher, probes(lows, highs, rng, 60))


@given(table=tables())
def test_generated_region_queries_are_unchanged(table):
    lows, highs, seed = table
    rng = np.random.default_rng(seed)
    tree = STree.build(lows, highs)
    expected = QueryStats()
    for point in probes(lows, highs, rng, 30):
        other = probes(lows, highs, rng, 1)[0]
        q_lo, q_hi = np.fmin(point, other), np.fmax(point, other)
        if np.isnan(q_lo).any() or np.isnan(q_hi).any():
            continue
        got = tree.region_query(q_lo, q_hi)
        assert got == reference_region(tree, q_lo, q_hi, expected)
        assert stats_of(tree.stats) == stats_of(expected)


@pytest.mark.parametrize("kind", MATCHERS, ids=lambda k: k.__name__)
@pytest.mark.parametrize(
    "point", [(1.0,), (1.0, 2.0, 3.0), [[1.0, 2.0]], [[1.0], [2.0]], ()],
    ids=["short", "long", "row", "column", "empty"],
)
def test_malformed_points_raise_as_before(kind, point):
    lows = np.array([[0.0, 0.0], [1.0, -INF]])
    highs = np.array([[1.0, 2.0], [INF, 5.0]])
    matcher = kind.build(lows, highs)
    with pytest.raises(ValueError) as want:
        reference_match(matcher, point, QueryStats())
    with pytest.raises(ValueError) as got:
        matcher.match(point)
    assert str(got.value) == str(want.value)
    assert matcher.stats.queries == 0


def test_the_one_leaf_tree_and_the_root_box():
    """A tree that is one leaf: the root is entered untested even when
    the point misses its box."""
    lows = np.array([[0.0, 0.0], [0.5, 0.5]])
    highs = np.array([[1.0, 1.0], [2.0, 2.0]])
    for kind in MATCHERS:
        matcher = kind.build(lows, highs)
        assert_points_agree(
            matcher,
            [(0.5, 0.5), (5.0, 5.0), (0.0, 0.0), (NAN, 1.0), (1.0, 1.0)],
        )


# -- the benchmark's testbeds ---------------------------------------------------


@pytest.mark.parametrize("subscriptions", [1000, 4000, 8000])
@pytest.mark.parametrize("kind", MATCHERS, ids=lambda k: k.__name__)
def test_testbeds_match_the_closure_walk(kind, subscriptions):
    testbed = build_testbed(
        ExperimentConfig(seed=2003, num_subscriptions=subscriptions)
    )
    lows, highs = testbed.table.to_arrays()
    matcher = kind.build(lows, highs)
    rng = np.random.default_rng(subscriptions)
    points, _ = testbed.publications(9, 150)
    published = [tuple(p) for p in points.tolist()]
    assert_points_agree(matcher, published + probes(lows, highs, rng, 150))


# -- every backend sorts its own answer -----------------------------------------


@pytest.mark.parametrize("name", sorted(MATCHER_BACKENDS))
def test_every_backend_answers_sorted_ids(name):
    """``PointMatcher.match`` returns ``_match_ids``' array as it is,
    so each backend sorts; ids in reverse row order make a row-order
    answer unsorted."""
    rng = np.random.default_rng(11)
    lows = rng.uniform(0, 10, (300, 3))
    highs = lows + rng.uniform(0.5, 8, (300, 3))
    highs[rng.random(300) < 0.1, 2] = INF
    ids = np.arange(300)[::-1] * 7
    matcher = MATCHER_BACKENDS[name].build(lows, highs, ids=ids)
    answered = 0
    for point in rng.uniform(-1, 19, (200, 3)):
        got = matcher.match(point)
        assert got.tolist() == sorted(got.tolist())
        assert got.dtype == np.int64 and got.ndim == 1
        answered += len(got) > 1
    assert answered > 50
