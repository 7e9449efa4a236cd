"""Counter fidelity of the packed traversal.

The paper's figure of merit for an index is the work a query does:
internal nodes and leaves reached, entries tested.  The level-synchronous
kernel must report, query for query, exactly what a node-at-a-time
recursive walk reports.  The reference here is that walk, in plain
Python over the packed arrays, sharing nothing with the kernel.
"""

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
CASES = [(name, data) for name in BUILDERS for data in ("stock", "one-leaf")]
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
        "stock": lambda: stock, "one-leaf": one_leaf, "skewed": skewed
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
            assert tree.match(point) == expected_ids
            assert counters_of(tree) == expected
            assert tree.stats.queries == 1

    @every(CASES)
    def test_match_many_per_query(self, tree_and_points):
        # One-row batches: the pair frontier, query by query.
        tree, points = tree_and_points
        for point in points[:40]:
            expected_ids, expected = reference_walk(
                tree._packed, contains(point)
            )
            tree.stats.reset()
            assert tree.match_many(point[None, :]) == [expected_ids]
            assert counters_of(tree) == expected

    @every(CASES)
    @pytest.mark.parametrize("chunk_pairs", [1, 64, 1 << 40])
    def test_match_many_batch(self, tree_and_points, chunk_pairs, monkeypatch):
        # From one point per chunk to the whole batch as one frontier.
        monkeypatch.setattr(packed_module, "_CHUNK_PAIRS", chunk_pairs)
        tree, points = tree_and_points
        walks = [reference_walk(tree._packed, contains(p)) for p in points]
        tree.stats.reset()
        assert tree.match_many(points) == [ids for ids, _ in walks]
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
        assert tree.match_many(far) == [[], [], []]
        assert tree.stats.leaves_visited == 0
