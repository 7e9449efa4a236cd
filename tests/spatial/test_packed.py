"""Counter fidelity of the packed traversal.

The paper's figure of merit for an index is the work a query does:
internal nodes and leaves reached, entries tested.  The flat reach of a
query (``match_many`` loops over it) must report, query for query,
exactly what a node-at-a-time recursive walk reports.  The reference
here is that walk, in plain Python over the packed arrays, sharing
nothing with the kernel.
"""

import sys

import numpy as np
import pytest

from repro.core import SubscriptionTable
from repro.spatial import HilbertRTree, STree, STreeParams
from repro.spatial import packed as packed_module
from repro.workload import StockSubscriptionGenerator

from .conftest import check_packed_invariants


def reference_walk(packed, inside):
    """``(sorted ids, (nodes, leaves, entries))`` by recursive descent.

    ``inside(lo, hi)`` decides one box; the root is entered untested.
    """
    ids = []
    counters = [0, 0, 0]

    def visit(node):
        if packed.is_leaf[node]:
            counters[1] += 1
            first = int(packed.entry_start[node])
            for row in range(first, first + int(packed.entry_count[node])):
                counters[2] += 1
                if inside(packed.entry_lows[:, row], packed.entry_highs[:, row]):
                    ids.append(int(packed.entry_ids[row]))
        else:
            counters[0] += 1
            first = int(packed.child_start[node])
            for child in range(first, first + int(packed.child_count[node])):
                if inside(packed.lows[:, child], packed.highs[:, child]):
                    visit(child)

    visit(0)
    return sorted(ids), tuple(counters)


def contains(point):
    return lambda lo, hi: all(
        lo[d] < point[d] <= hi[d] for d in range(len(point))
    )


def overlaps(q_lo, q_hi):
    return lambda lo, hi: all(
        max(lo[d], q_lo[d]) < min(hi[d], q_hi[d]) for d in range(len(q_lo))
    )


def counters_of(tree):
    stats = tree.stats
    return (stats.nodes_visited, stats.leaves_visited, stats.entries_tested)


#: With the ``skewed`` data below: a chain, one leaf peeled per level.
CHAIN = STreeParams(branch_factor=2, skew_factor=0.01, sweep_increment=1)

BUILDERS = {
    "stree-best-4": lambda lo, hi: STree.build(
        lo, hi, params=STreeParams(branch_factor=4)
    ),
    "stree-best-40": lambda lo, hi: STree.build(lo, hi),
    "stree-longest-4": lambda lo, hi: STree.build(
        lo, hi, params=STreeParams(branch_factor=4, split_dimension="longest")
    ),
    "stree-longest-40": lambda lo, hi: STree.build(
        lo, hi, params=STreeParams(split_dimension="longest")
    ),
    "rtree-4": lambda lo, hi: HilbertRTree.build(lo, hi, branch_factor=4),
    "rtree-40": lambda lo, hi: HilbertRTree.build(lo, hi),
}
CASES = [
    (name, data)
    for name in BUILDERS
    for data in ("stock", "one-leaf", "infinite")
]
BUILDERS["stree-chain"] = lambda lo, hi: STree.build(lo, hi, params=CHAIN)
CASES.append(("stree-chain", "skewed"))
STREE_CASES = [case for case in CASES if case[0].startswith("stree")]


@pytest.fixture(scope="module")
def stock(small_topology, small_events):
    """The seeded stock workload: 600 subscriptions, 120 events."""
    placed = StockSubscriptionGenerator(small_topology, seed=12).generate(600)
    lows, highs = SubscriptionTable.from_placed(placed).to_arrays()
    points, _ = small_events
    return lows, highs, np.asarray(points)[:120]


def one_leaf():
    """Fewer rectangles than any branch factor: the root is a leaf."""
    lows = np.array([[0.0, 0.0], [1.0, -np.inf], [2.0, 2.0]])
    highs = np.array([[4.0, 4.0], [3.0, np.inf], [2.5, 9.0]])
    points = np.array([[2.0, 3.0], [2.2, 3.0], [0.0, 0.0], [9.0, 9.0]])
    return lows, highs, points


def infinite():
    """Rays, wildcards and sides empty at infinity, with points out at
    ±inf and at the largest floats: the corners of the folded bounds."""
    sides = [
        (-np.inf, np.inf), (-np.inf, 0.0), (0.0, np.inf), (np.inf, np.inf),
        (-np.inf, -np.inf), (-1.0, 1.0), (1.0, 2.0),
    ]
    bounds = np.array([(a, b) for a in sides for b in sides])
    big = np.finfo(np.float64).max
    values = [-np.inf, -big, -1.0, 0.0, 0.5, 1.0, big, np.inf]
    points = np.array([(x, y) for x in values for y in values])
    return bounds[:, :, 0], bounds[:, :, 1], points


def skewed():
    """Doubling gaps on a line: every best split peels off one end."""
    starts = 2.0 ** np.arange(40)
    lows = np.stack([starts, np.zeros(40)], axis=1)
    highs = lows + 1.0
    points = np.stack([starts + 0.5, np.full(40, 0.5)], axis=1)
    return lows, highs, np.concatenate([points, points + 0.75])


def every(cases):
    return pytest.mark.parametrize(
        "tree_and_points", cases, ids="-on-".join, indirect=True
    )


@pytest.fixture()
def tree_and_points(request, stock):
    name, data = request.param
    lows, highs, points = {
        "stock": lambda: stock, "one-leaf": one_leaf, "skewed": skewed,
        "infinite": infinite,
    }[data]()
    return BUILDERS[name](lows, highs), points


class TestSkewedFixture:
    def test_chain_is_as_deep_as_the_data_allows(self):
        lows, highs, _ = skewed()
        tree = STree.build(lows, highs, params=CHAIN)
        shape = tree.shape()
        # 40 rectangles, two per leaf at best, one peeled per level.
        assert shape.max_leaf_depth >= 30
        assert shape.skewness >= 29
        check_packed_invariants(tree)


class TestCounterFidelity:
    @every(CASES)
    def test_match_reads_what_the_recursive_walk_reads(self, tree_and_points):
        tree, points = tree_and_points
        for point in points:
            expected_ids, expected = reference_walk(
                tree._packed, contains(point)
            )
            tree.stats.reset()
            assert tree.match(point).tolist() == expected_ids
            assert counters_of(tree) == expected
            assert tree.stats.queries == 1

    @every(CASES)
    def test_match_many_per_query(self, tree_and_points):
        tree, points = tree_and_points
        for point in points[:40]:
            expected_ids, expected = reference_walk(
                tree._packed, contains(point)
            )
            tree.stats.reset()
            (ids,) = tree.match_many(point[None, :])
            assert ids.tolist() == expected_ids
            assert counters_of(tree) == expected

    @every(CASES)
    @pytest.mark.parametrize("batch", [1, 64, 1 << 40])
    def test_match_many_batch(self, tree_and_points, batch):
        # From one point per call to the whole set in one call.
        tree, points = tree_and_points
        walks = [reference_walk(tree._packed, contains(p)) for p in points]
        tree.stats.reset()
        found = []
        for first in range(0, len(points), batch):
            found.extend(
                ids.tolist()
                for ids in tree.match_many(points[first : first + batch])
            )
        assert found == [ids for ids, _ in walks]
        totals = tuple(
            sum(counters[i] for _, counters in walks) for i in range(3)
        )
        assert counters_of(tree) == totals
        assert tree.stats.queries == len(points)

    @every(STREE_CASES)
    def test_region_query(self, tree_and_points, rng):
        tree, points = tree_and_points
        for point in points[:40]:
            half = rng.uniform(0.0, 3.0, size=point.shape)
            q_lo, q_hi = point - half, point + half
            expected_ids, expected = reference_walk(
                tree._packed, overlaps(q_lo, q_hi)
            )
            tree.stats.reset()
            assert tree.region_query(q_lo, q_hi) == expected_ids
            assert counters_of(tree) == expected


def box_tests(action):
    """How many box tests (``logical_and`` reductions) ``action()`` makes."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "c_call" and getattr(arg, "__self__", None) is np.logical_and:
            calls += getattr(arg, "__name__", "") == "reduce"

    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


#: Thirteen values whose every (lo, hi, x) triple the fold must get right.
SPECIAL = [
    -np.inf, -np.finfo(np.float64).max, -1.0, -np.finfo(np.float64).tiny,
    -5e-324, -0.0, 0.0, 5e-324, np.finfo(np.float64).tiny, 1.0,
    np.finfo(np.float64).max, np.inf, np.nan,
]


class TestFlatReach:
    def test_fold_is_exact_on_special_values(self):
        lo, hi, x = (
            axis.ravel()[None, :] for axis in np.meshgrid(*[SPECIAL] * 3)
        )
        assert lo.size == 13**3
        expected = (lo < x) & (x <= hi)
        folded = packed_module._fold(lo, hi) <= np.concatenate((x, -x))
        assert np.array_equal(folded.all(axis=0), expected[0])

    def test_one_box_folds_as_the_arrays_do(self):
        lo, hi = (axis.ravel() for axis in np.meshgrid(SPECIAL, SPECIAL))
        expected = packed_module._fold(lo[None, :], hi[None, :])
        for row, (low, high) in enumerate(zip(lo.tolist(), hi.tolist())):
            got = packed_module.fold_box([low], [high])
            assert np.array_equal(got, expected[:, row], equal_nan=True)

    def test_box_tests_do_not_grow_with_depth(self):
        # The chain's leaves sit at every depth from 1 to >= 30; a walk
        # level by level tests once per level, the flat reach does not.
        lows, highs, points = skewed()
        tree = STree.build(lows, highs, params=CHAIN)
        tests = {box_tests(lambda: tree.match(point)) for point in points}
        assert tests == {2}  # every node box, then the reached entries

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_nan_point_enters_only_the_root(self, name, stock):
        lows, highs, points = stock
        tree = BUILDERS[name](lows, highs)
        point = points[0].copy()
        point[1] = np.nan
        expected = reference_walk(tree._packed, contains(point))
        assert expected[0] == []
        assert tree.match(point).tolist() == []
        assert counters_of(tree) == expected[1]


class TestBatchEdges:
    def test_empty_batch(self, stock):
        lows, highs, _ = stock
        tree = STree.build(lows, highs)
        assert tree.match_many(np.empty((0, 4))) == []
        assert tree.stats.queries == 0

    def test_batch_missing_everything(self):
        lows, highs, _ = one_leaf()
        tree = HilbertRTree.build(
            np.tile(lows, (5, 1)), np.tile(highs, (5, 1)), branch_factor=2
        )
        far = np.full((3, 2), 1e9)
        far[:, 0] = -1e9
        assert [ids.tolist() for ids in tree.match_many(far)] == [[], [], []]
        assert tree.stats.leaves_visited == 0
