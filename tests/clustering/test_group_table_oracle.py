"""The dense cell→subset table against a copy of the dict it replaced.

``SpacePartition`` keeps the subset of every grid cell in one integer
array over the grid, and a new subscription finds the groups it widens
with one gather over the box ``EventGrid.add_subscription`` returns.
The partition it replaced kept a ``{cell index: q}`` dict and walked
the list of cell tuples the grid returned; that walk is kept here as
the reference.  On generated grids — up to 150 subscribers, so masks
run past one 64-bit word, rectangles past the frame, unbounded and
empty sides, random disjoint clusters with cells left in ``S_0`` — and
generated arrivals (new subscribers included), every
``add_subscription`` must return the same grown ids in the same order,
leave the same groups, and ``locate`` / ``group_of_cell`` must answer
as the dict did, on and one ulp off every cell edge and outside the
frame.  ``to_state`` must write the sorted dict items, and a restored
partition must answer alike.  A subscribe builds no cell tuple:
``itertools.product`` is never reached.
"""

from __future__ import annotations

import itertools
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clustering import (
    ClusteringResult,
    EventGrid,
    ForgyKMeansClustering,
    SpacePartition,
)
from repro.clustering import grid as grid_module
from repro.clustering import groups as groups_module
from repro.core import DynamicPubSubBroker
from repro.core import dynamic as dynamic_module
from repro.experiments.config import ExperimentConfig
from repro.experiments.testbed import build_testbed
from repro.geometry import Rectangle
from repro.geometry.gridmath import locate_cell, overlapped_cell_box
from repro.workload import StockSubscriptionGenerator

INF = float("inf")


# -- the reference: the dict walk as it was -------------------------------------


class DictPartition:
    """``SpacePartition``'s cell→group dict and its walk, kept apart
    from the grid (the reference computes each add's cells itself)."""

    def __init__(self, grid, result):
        self.cell_to_group = {}
        for q, cells in enumerate(result.clusters, start=1):
            for cell in cells:
                self.cell_to_group[cell.index] = q
        self.frame = (
            grid.frame_lo.tolist(),
            grid.frame_hi.tolist(),
            grid.cell_width.tolist(),
            grid.cells_per_dim,
        )
        self.groups = {}

    def add_subscription(self, rectangle, subscriber):
        box = overlapped_cell_box(rectangle.lows, rectangle.highs, *self.frame)
        affected_cells = list(product(*box)) if box else []
        touched = dict.fromkeys(map(self.cell_to_group.get, affected_cells))
        touched.pop(None, None)
        grown = []
        for q in touched:
            if subscriber in self.groups[q]:
                continue
            self.groups[q] = tuple(sorted(self.groups[q] + (subscriber,)))
            grown.append(q)
        return grown

    def locate(self, point):
        cell = locate_cell(point, *self.frame)
        if cell is None:
            return 0
        return self.cell_to_group.get(cell, 0)

    def group_of_cell(self, index):
        return self.cell_to_group.get(tuple(int(x) for x in index), 0)

    def cell_to_group_state(self):
        return [[list(index), q] for index, q in sorted(self.cell_to_group.items())]


# -- generated worlds ---------------------------------------------------------------

FRAME = 10.0
POOL = [-5.0, -INF, 0.0, 1.0, 2.5, 3.3, 5.0, 7.5, 10.0, 12.0, INF]


@st.composite
def worlds(draw):
    """A grid over a drawn table, disjoint clusters of its cells, and
    arrivals to add; every draw comes from one seeded generator."""
    ndim = draw(st.integers(1, 3))
    cells_per_dim = draw(st.integers(1, 6))
    count = draw(st.integers(1, 120))
    subscribers = draw(st.sampled_from([3, 40, 90, 150]))
    seed = draw(st.integers(0, 2**32 - 1))
    fitted = draw(st.booleans())
    rng = np.random.default_rng(seed)

    def rectangle():
        if rng.random() < 0.5:
            a, b = rng.choice(POOL, (2, ndim))
        else:
            a, b = rng.uniform(-3.0, 13.0, (2, ndim))
        lows, highs = np.minimum(a, b), np.maximum(a, b)
        if rng.random() < 0.1:  # an empty side, maybe reversed
            dim = rng.integers(ndim)
            lows[dim], highs[dim] = highs[dim], lows[dim]
        return Rectangle(tuple(lows.tolist()), tuple(highs.tolist()))

    rectangles = [rectangle() for _ in range(count)]
    owners = rng.integers(0, subscribers, count).tolist()
    frame = None if fitted else ([0.0] * ndim, [FRAME] * ndim)
    try:
        grid = EventGrid(
            rectangles, owners, cells_per_dim=cells_per_dim, frame=frame
        )
    except ValueError:
        grid = EventGrid(
            [Rectangle((0.0,) * ndim, (1.0,) * ndim)], [0],
            cells_per_dim=cells_per_dim, frame=([0.0] * ndim, [FRAME] * ndim),
        )
    occupied = list(grid.cells.values())
    rng.shuffle(occupied)
    clusters = draw(st.integers(1, 6))
    labels = rng.integers(-1, clusters, len(occupied))  # -1: left in S_0
    result = ClusteringResult(
        algorithm="drawn",
        clusters=[
            [cell for cell, label in zip(occupied, labels) if label == q]
            for q in range(clusters)
        ],
    )
    arrivals = [
        (rectangle(), int(rng.integers(0, subscribers + 100)))
        for _ in range(draw(st.integers(1, 60)))
    ]
    return grid, result, arrivals, rng


def edge_points(grid, rng, count):
    """Points on, and one ulp either side of, cell edges, some outside
    the frame, some at ±inf."""
    lo, width, cells = grid.frame_lo, grid.cell_width, grid.cells_per_dim
    points = []
    for _ in range(count):
        steps = rng.integers(-2, cells + 3, grid.ndim)
        at = lo + steps * width
        nudge = rng.choice([-INF, 0.0, INF], grid.ndim)
        at = np.where(nudge == 0.0, at, np.nextafter(at, nudge))
        at[rng.random(grid.ndim) < 0.05] = rng.choice([-INF, INF])
        points.append(tuple(at.tolist()))
    return points


def assert_same_answers(partition, reference, grid, rng):
    for point in edge_points(grid, rng, 30):
        assert partition.locate(point) == reference.locate(point), point
        assert type(partition.locate(point)) is int
    span = range(-1, grid.cells_per_dim + 1)
    for index in product(*[span] * grid.ndim):
        got = partition.group_of_cell(index)
        assert got == reference.group_of_cell(index), index
        assert type(got) is int
    state = partition.to_state()
    assert state["cell_to_group"] == reference.cell_to_group_state()
    restored = SpacePartition.restore(grid, state)
    assert restored.to_state() == state
    for point in edge_points(grid, rng, 10):
        assert restored.locate(point) == reference.locate(point), point


@given(world=worlds())
def test_grown_groups_and_locate_match_the_dict_walk(world):
    grid, result, arrivals, rng = world
    partition = SpacePartition(grid, result)
    reference = DictPartition(grid, result)
    reference.groups = {g.q: g.members for g in partition.groups}
    cells = grid.cells
    covered = math.fsum(
        cells[index].probability for index in reference.cell_to_group
    )
    assert partition.covered_probability() == covered
    assert_same_answers(partition, reference, grid, rng)
    for rectangle, subscriber in arrivals:
        want = reference.add_subscription(rectangle, subscriber)
        assert partition.add_subscription(rectangle, subscriber) == want
    assert {g.q: g.members for g in partition.groups} == reference.groups
    assert_same_answers(partition, reference, grid, rng)


def test_the_testbed_partition_grows_as_the_dict_walk():
    testbed = build_testbed(ExperimentConfig(seed=2003, num_subscriptions=1000))
    table = testbed.table
    grid = EventGrid(
        table.rectangles(),
        [s.subscriber for s in table],
        density=testbed.density(9),
        cells_per_dim=testbed.config.cells_per_dim,
    )
    result = ForgyKMeansClustering().cluster(grid, 11)
    partition = SpacePartition(grid, result)
    reference = DictPartition(grid, result)
    reference.groups = {g.q: g.members for g in partition.groups}
    arrivals = StockSubscriptionGenerator(testbed.topology, seed=2004)
    fresh = max(testbed.topology.graph.nodes) + 1
    for i in range(200):
        placed = arrivals.generate_one(1000 + i)
        subscriber = placed.node if i % 3 else fresh + i
        want = reference.add_subscription(placed.rectangle, subscriber)
        assert partition.add_subscription(placed.rectangle, subscriber) == want
    assert {g.q: g.members for g in partition.groups} == reference.groups
    assert_same_answers(partition, reference, grid, np.random.default_rng(7))


# -- a subscribe builds no cell tuple ---------------------------------------------


@pytest.fixture(scope="module")
def churn_broker():
    testbed = build_testbed(ExperimentConfig(seed=2003, num_subscriptions=300))
    return testbed, DynamicPubSubBroker.preprocess_dynamic(
        testbed.topology,
        testbed.table,
        ForgyKMeansClustering(),
        8,
        density=testbed.density(9),
        cells_per_dim=testbed.config.cells_per_dim,
    )


def test_a_subscribe_reaches_no_product(churn_broker, monkeypatch):
    """``itertools.product`` is not reached, under whatever name a
    module on the subscribe path bound it."""
    testbed, broker = churn_broker
    calls = []
    real = itertools.product

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(itertools, "product", spy)
    for module in (grid_module, groups_module, dynamic_module):
        if hasattr(module, "product"):
            monkeypatch.setattr(module, "product", spy)
    arrivals = StockSubscriptionGenerator(testbed.topology, seed=2004)
    spans = 0
    for i in range(30):
        placed = arrivals.generate_one(len(broker.table))
        broker.subscribe(placed.node, placed.rectangle)
        box = overlapped_cell_box(
            placed.rectangle.lows,
            placed.rectangle.highs,
            *broker.partition.grid._locate_frame,
        )
        spans += math.prod(len(axis) for axis in box) if box else 0
    assert spans > 30 * 50  # real subscriptions, many cells each
    assert calls == []
