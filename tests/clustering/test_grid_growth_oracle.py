"""Grid growth against a test-local copy of the per-cell add loop.

``EventGrid.add_subscription`` folds one new subscription into ``l(g)``.
The loop it replaced probed a dict for every cell of the subscription's
box, created a missing cell (bounds from the frame, ``p(g)`` asked of
the density for that one cell) and ORed the subscriber's bit into it;
that loop is kept here, verbatim, as the reference.  After generated
sequences of adds — new subscribers whose bits land at 63 / 64 / 65 /
128, rays, empty and out-of-frame rectangles — the library's grid must
hold exactly the reference's cells (index, bounds, members, price;
``dict`` equality, so insertion order is not compared), the same
subscribers in the same bit order, and every add must return the same
cells.  A fresh grid over the grown table, with the same frame and
density, must hold the same cells and the same subscriber ids in each.
``SpacePartition.add_subscription`` must return the same ``grown``
lists, in the same order, as a copy of its loop over the reference.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clustering import EventGrid, ForgyKMeansClustering
from repro.core import PubSubBroker
from repro.experiments.config import ExperimentConfig
from repro.experiments.testbed import build_testbed
from repro.geometry import Rectangle
from repro.geometry.gridmath import overlapped_cell_box
from repro.workload import StockSubscriptionGenerator

from .cellbox import box_cells

INF = float("inf")


# -- the reference: the loop as it was ------------------------------------------


class ReferenceGrowth:
    """The cells of a freshly built grid, grown by the per-cell loop."""

    def __init__(self, grid):
        self.grid = grid
        self.subscribers = list(grid.subscribers)
        self.bit_of = {sid: bit for bit, sid in enumerate(self.subscribers)}
        self.cells = {
            index: [cell.lows, cell.highs, cell.members, cell.probability]
            for index, cell in grid.cells.items()
        }
        self.frame = (
            grid.frame_lo.tolist(),
            grid.frame_hi.tolist(),
            grid.cell_width.tolist(),
            grid.cells_per_dim,
        )

    def add(self, rectangle, subscriber):
        subscriber = int(subscriber)
        if subscriber not in self.bit_of:
            self.bit_of[subscriber] = len(self.subscribers)
            self.subscribers.append(subscriber)
        box = overlapped_cell_box(rectangle.lows, rectangle.highs, *self.frame)
        affected = list(product(*box)) if box else []
        bit = 1 << self.bit_of[subscriber]
        frame_lo, _, width, _ = self.frame
        for index in affected:
            cell = self.cells.get(index)
            if cell is None:
                lows = tuple(f + i * w for f, i, w in zip(frame_lo, index, width))
                highs = tuple(lo + w for lo, w in zip(lows, width))
                probability = self.grid.density.cell_probability(lows, highs)
                cell = self.cells[index] = [lows, highs, 0, probability]
            cell[2] |= bit
        return affected


def cells_of(grid):
    return {
        index: [cell.lows, cell.highs, cell.members, cell.probability]
        for index, cell in grid.cells.items()
    }


def ids_of(grid):
    return {
        index: sorted(grid.members_of(cell.members))
        for index, cell in grid.cells.items()
    }


def assert_same_as_a_fresh_grid(grid, rectangles, subscribers):
    fresh = EventGrid(
        rectangles,
        subscribers,
        density=grid.density,
        cells_per_dim=grid.cells_per_dim,
        frame=(grid.frame_lo, grid.frame_hi),
    )
    assert ids_of(grid) == ids_of(fresh)
    assert sorted(grid.subscribers) == fresh.subscribers
    for index, cell in grid.cells.items():
        other = fresh.cells[index]
        assert (cell.lows, cell.highs) == (other.lows, other.highs)
        # A grown cell is priced alone; the batch prices by axis.
        assert math.isclose(cell.probability, other.probability, rel_tol=1e-9)


def grow(grid, rectangles, subscribers):
    """Add every row to ``grid`` and to its reference, checking as it
    goes; reading ``cells`` mid-way is part of the test."""
    reference = ReferenceGrowth(grid)
    for step, (rectangle, subscriber) in enumerate(zip(rectangles, subscribers)):
        got = box_cells(grid.add_subscription(rectangle, subscriber))
        assert got == reference.add(rectangle, subscriber)
        if step % 7 == 3:
            assert cells_of(grid) == reference.cells
    assert cells_of(grid) == reference.cells
    assert grid.subscribers == reference.subscribers
    assert grid.num_subscribers == len(reference.subscribers)
    return reference


# -- generated sequences ----------------------------------------------------------

#: How many subscribers the first grid has: the adds' new bits then
#: start on either side of a 64-bit word boundary.
STARTS = (1, 2, 62, 63, 64, 65, 127, 128)


@st.composite
def sequences(draw):
    """``(rectangles, subscribers, start, cells, frame)``: the first
    ``start`` rows build the grid, the rest are added.  About one side
    in eight is a ray, one rectangle in ten is inverted or flat, and
    some lie partly or wholly outside the frame."""
    start = draw(st.sampled_from(STARTS))
    added = draw(st.integers(1, 40))
    ndim = draw(st.integers(1, 4))
    cells = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = (rng.choice(20 * (start + added), start + added, replace=False) * 3)
    subscribers = ids[:start].tolist()
    for sid in ids[start:].tolist():
        # New subscribers, and rows for subscribers already seen.
        subscribers.append(sid if rng.random() < 0.6 else int(rng.choice(subscribers)))
    frame_lo = rng.uniform(-50.0, 50.0, ndim)
    width = rng.uniform(0.5, 100.0, ndim) / cells
    rectangles = []
    for _ in subscribers:
        begin = rng.uniform(-2.0, cells + 1.0, ndim)
        if rng.random() < 0.3:  # edges on cell boundaries
            begin = np.floor(begin)
        lows = frame_lo + begin * width
        highs = frame_lo + (begin + rng.uniform(0.05, 2.5, ndim)) * width
        lows[rng.random(ndim) < 0.125] = -INF
        highs[rng.random(ndim) < 0.125] = INF
        shape = rng.random()
        if shape < 0.05:
            lows, highs = highs, lows
        elif shape < 0.1:
            highs = lows.copy()
        rectangles.append(Rectangle(tuple(lows.tolist()), tuple(highs.tolist())))
    frame = (frame_lo.tolist(), (frame_lo + cells * width).tolist())
    return rectangles, subscribers, start, cells, frame


@given(sequences())
def test_generated_growth_equals_the_per_cell_loop(sequence):
    rectangles, subscribers, start, cells, frame = sequence
    grid = EventGrid(
        rectangles[:start], subscribers[:start], cells_per_dim=cells, frame=frame
    )
    grow(grid, rectangles[start:], subscribers[start:])
    assert_same_as_a_fresh_grid(grid, rectangles, subscribers)


@pytest.mark.parametrize("start", STARTS)
def test_new_bits_past_each_word_boundary(start):
    """Every add is a new subscriber; the bits run from ``start`` to
    ``start + 69``, across one or two word boundaries."""
    rng = np.random.default_rng(start)
    rectangles = [
        Rectangle(tuple(lo.tolist()), tuple((lo + rng.uniform(0.1, 4, 3)).tolist()))
        for lo in rng.uniform(-1, 9, (start + 70, 3))
    ]
    subscribers = list(range(1000, 1000 + start + 70))
    grid = EventGrid(
        rectangles[:start],
        subscribers[:start],
        cells_per_dim=5,
        frame=([0.0] * 3, [10.0] * 3),
    )
    grow(grid, rectangles[start:], subscribers[start:])
    assert_same_as_a_fresh_grid(grid, rectangles, subscribers)
    assert max(cell.members for cell in grid.cells.values()).bit_length() > start


# -- the paper's testbed and its partition ---------------------------------------------


def reference_grown(partition, groups, affected, subscriber):
    """``SpacePartition.add_subscription``'s widening, over ``groups``
    (member tuples by ``q``, updated in place)."""
    touched = dict.fromkeys(map(partition.group_of_cell, affected))
    touched.pop(0, None)
    grown = []
    for q in touched:
        if subscriber in groups[q]:
            continue
        groups[q] = tuple(sorted(groups[q] + (subscriber,)))
        grown.append(q)
    return grown


@pytest.mark.parametrize("subscriptions", [300, 1000])
def test_testbed_partition_grows_as_before(subscriptions):
    testbed = build_testbed(
        ExperimentConfig(seed=2003, num_subscriptions=subscriptions)
    )
    partition = PubSubBroker.partition_table(
        testbed.table,
        ForgyKMeansClustering(),
        8,
        density=testbed.density(9),
        cells_per_dim=testbed.config.cells_per_dim,
    )
    reference = ReferenceGrowth(partition.grid)
    groups = {group.q: group.members for group in partition.groups}
    arrivals = StockSubscriptionGenerator(testbed.topology, seed=2004)
    placed = [arrivals.generate_one(subscriptions + i) for i in range(120)]
    # Nodes the table has never seen get new bits past the last word.
    fresh = [max(testbed.topology.graph.nodes) + 1 + i for i in range(60)]
    rectangles = [p.rectangle for p in placed]
    subscribers = [p.node for p in placed[:60]] + fresh
    for rectangle, subscriber in zip(rectangles, subscribers):
        affected = reference.add(rectangle, subscriber)
        want = reference_grown(partition, groups, affected, subscriber)
        assert partition.add_subscription(rectangle, subscriber) == want
    assert [group.members for group in partition.groups] == [
        groups[q] for q in sorted(groups)
    ]
    assert cells_of(partition.grid) == reference.cells
    assert_same_as_a_fresh_grid(
        partition.grid,
        testbed.table.rectangles() + rectangles,
        [s.subscriber for s in testbed.table] + subscribers,
    )
