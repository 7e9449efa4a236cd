"""The grid's walk against a test-local copy of the walk it replaced.

``EventGrid`` marks the cells a rectangle overlaps as a product of
per-axis index ranges.  The walk before it enumerated the deliberately
wide :func:`covered_cell_range` and tested every candidate cell against
the rectangle with the cell's own edge arithmetic; that walk is kept
here, verbatim, as the reference.  Away from cell boundaries the two
must agree exactly — keys, insertion order, ``lows``, ``highs``,
``members``, ``probability`` — so every generated edge stays clear of
every boundary the grid computes (what happens *on* a boundary, where
the old filter and ``locate`` rounded differently, is
``tests/clustering/test_grid.py``'s subject).
"""

from __future__ import annotations

import hashlib
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.clustering import EventGrid
from repro.experiments.config import ExperimentConfig
from repro.experiments.testbed import build_testbed
from repro.geometry import Rectangle
from repro.geometry.gridmath import covered_cell_range

from .cellbox import box_cells

INF = float("inf")


# -- the reference: the walk as it was -----------------------------------------


def reference_cells_of(grid, rectangle):
    """Cell indices the replaced walk marks for one rectangle, in order."""
    frame_lo, frame_hi, width = grid.frame_lo, grid.frame_hi, grid.cell_width
    lows = np.asarray(rectangle.lows, dtype=np.float64)
    highs = np.asarray(rectangle.highs, dtype=np.float64)
    if np.any(highs <= lows):
        return []  # empty subscription matches nothing
    lo = np.maximum(np.where(np.isfinite(lows), lows, frame_lo), frame_lo)
    hi = np.minimum(np.where(np.isfinite(highs), highs, frame_hi), frame_hi)
    if np.any(hi <= lo):
        return []  # entirely outside the frame
    first, last = covered_cell_range(
        lo, hi, frame_lo, width, grid.cells_per_dim
    )
    ranges = [range(first[d], last[d] + 1) for d in range(grid.ndim)]
    marked = []
    for index in product(*ranges):
        cell_lo = frame_lo + np.asarray(index) * width
        cell_hi = cell_lo + width
        if np.all(np.maximum(lo, cell_lo) < np.minimum(hi, cell_hi)):
            marked.append(index)
    return marked


def reference_rows(grid, rectangles, subscriber_ids):
    """``(index, lows, highs, members, probability)`` per cell, in the
    order the replaced batch walk would have created them, over
    ``grid``'s frame and density."""
    bit_of = {
        sid: bit
        for bit, sid in enumerate(sorted({int(s) for s in subscriber_ids}))
    }
    members = {}
    for rectangle, subscriber in zip(rectangles, subscriber_ids):
        for index in reference_cells_of(grid, rectangle):
            members[index] = members.get(index, 0) | (
                1 << bit_of[int(subscriber)]
            )
    edges = [
        grid.frame_lo[d] + grid.cell_width[d] * np.arange(grid.cells_per_dim + 1)
        for d in range(grid.ndim)
    ]
    masses = grid.density.per_dimension_masses(edges)
    rows = []
    for index, mask in members.items():
        lo = grid.frame_lo + np.asarray(index) * grid.cell_width
        hi = lo + grid.cell_width
        probability = 1.0
        for d, i in enumerate(index):
            probability *= float(masses[d][i])
        rows.append(
            (
                index,
                tuple(float(x) for x in lo),
                tuple(float(x) for x in hi),
                mask,
                probability,
            )
        )
    return rows


def rows_of(grid):
    return [
        (cell.index, cell.lows, cell.highs, cell.members, cell.probability)
        for cell in grid.cells.values()
    ]


def members_by_id(grid):
    """``index -> subscriber ids`` (bit positions may differ between a
    batch-built and a grown grid; identities may not)."""
    return {
        index: sorted(grid.members_of(cell.members))
        for index, cell in grid.cells.items()
    }


# -- generated tables ----------------------------------------------------------


def clear_of_boundaries(grid, rectangles):
    """No finite edge lies within a few ulp (at the frame's scale, where
    the quantisation ``(x - frame_lo) / w`` rounds) of a computed cell
    boundary."""
    steps = np.arange(grid.cells_per_dim + 1)
    for d in range(grid.ndim):
        boundaries = grid.frame_lo[d] + steps * grid.cell_width[d]
        boundaries = np.concatenate(
            [boundaries, boundaries + grid.cell_width[d]]
        )
        scale = max(
            abs(grid.frame_lo[d]),
            abs(grid.frame_hi[d]),
            grid.frame_hi[d] - grid.frame_lo[d],
        )
        margin = 8 * np.spacing(scale)
        for rectangle in rectangles:
            for edge in (rectangle.lows[d], rectangle.highs[d]):
                if np.isfinite(edge) and np.any(
                    np.abs(boundaries - edge) <= margin
                ):
                    return False
    return True


def rectangles_from(draw, ndim, low_edge, high_edge):
    """One to six rectangles, most of them proper: per axis a low and
    a high edge put in order, except for the one in six left as drawn
    (empty and inverted rectangles are inputs the walk must skip), and
    sometimes an exact duplicate of the first."""
    rectangles = []
    for _ in range(draw(st.integers(1, 6))):
        lows = [draw(low_edge(d)) for d in range(ndim)]
        highs = [draw(high_edge(d)) for d in range(ndim)]
        if draw(st.integers(0, 5)):
            lows, highs = (
                [min(a, b) for a, b in zip(lows, highs)],
                [max(a, b) for a, b in zip(lows, highs)],
            )
        rectangles.append(Rectangle(tuple(lows), tuple(highs)))
    if draw(st.booleans()):
        rectangles.append(rectangles[0])
    subscribers = [draw(st.integers(0, 4)) * 7 for _ in rectangles]
    return rectangles, subscribers


@st.composite
def framed_tables(draw):
    """An explicit frame and rectangles placed relative to its cells:
    edges ``frame_lo + (k + fraction) * w`` for cells ``k`` from two
    below the frame to two above it, or unbounded."""
    ndim = draw(st.integers(1, 4))
    cells = draw(st.integers(1, 5))
    frame_lo = [
        draw(st.floats(-50.0, 50.0, allow_nan=False)) for _ in range(ndim)
    ]
    spans = [draw(st.floats(0.5, 100.0, allow_nan=False)) for _ in range(ndim)]
    frame_hi = [lo + span for lo, span in zip(frame_lo, spans)]

    def edge(unbounded):
        def on_axis(d):
            placed = st.builds(
                lambda k, fraction: (
                    frame_lo[d] + (k + fraction) * (spans[d] / cells)
                ),
                st.integers(-2, cells + 1),
                st.floats(0.05, 0.95),
            )
            return st.one_of(st.just(unbounded), placed, placed, placed)

        return on_axis

    rectangles, subscribers = rectangles_from(
        draw, ndim, edge(-INF), edge(INF)
    )
    return rectangles, subscribers, cells, (frame_lo, frame_hi)


@st.composite
def fitted_tables(draw):
    """Arbitrary finite or unbounded edges; the frame is fitted."""
    ndim = draw(st.integers(1, 4))
    cells = draw(st.integers(1, 5))
    finite = st.floats(-100.0, 100.0, allow_nan=False)
    rectangles, subscribers = rectangles_from(
        draw,
        ndim,
        lambda d: st.one_of(st.just(-INF), finite, finite, finite),
        lambda d: st.one_of(st.just(INF), finite, finite, finite),
    )
    return rectangles, subscribers, cells, None


tables = st.one_of(framed_tables(), fitted_tables())


class TestAgainstTheReplacedWalk:
    @settings(max_examples=120, deadline=None)
    @given(tables)
    def test_batch_build_equals_reference(self, table):
        rectangles, subscribers, cells, frame = table
        grid = EventGrid(
            rectangles, subscribers, cells_per_dim=cells, frame=frame
        )
        assume(clear_of_boundaries(grid, rectangles))
        # ``==`` on the row lists: keys, insertion order and every
        # float bit for bit.
        assert rows_of(grid) == reference_rows(grid, rectangles, subscribers)

    @settings(max_examples=80, deadline=None)
    @given(tables)
    def test_grown_grid_holds_the_batch_grids_members(self, table):
        rectangles, subscribers, cells, frame = table
        batch = EventGrid(
            rectangles, subscribers, cells_per_dim=cells, frame=frame
        )
        assume(clear_of_boundaries(batch, rectangles))
        frame = (batch.frame_lo, batch.frame_hi)
        grown = EventGrid(
            rectangles[:1], subscribers[:1], cells_per_dim=cells, frame=frame
        )
        for rectangle, subscriber in zip(rectangles[1:], subscribers[1:]):
            expected = reference_cells_of(grown, rectangle)
            box = grown.add_subscription(rectangle, subscriber)
            assert box_cells(box) == expected
        assert members_by_id(grown) == members_by_id(batch)
        assert sorted(grown.subscribers) == batch.subscribers
        for index, cell in grown.cells.items():
            assert cell.lows == batch.cells[index].lows
            assert cell.highs == batch.cells[index].highs

    @settings(max_examples=60, deadline=None)
    @given(tables)
    def test_new_cells_of_a_grown_grid_are_priced_by_the_density(self, table):
        rectangles, subscribers, cells, frame = table
        grid = EventGrid(
            rectangles[:1], subscribers[:1], cells_per_dim=cells, frame=frame
        )
        assume(clear_of_boundaries(grid, rectangles))
        before = set(grid.cells)
        for rectangle, subscriber in zip(rectangles[1:], subscribers[1:]):
            grid.add_subscription(rectangle, subscriber)
        for index, cell in grid.cells.items():
            if index not in before:
                assert cell.probability == grid.density.cell_probability(
                    cell.lows, cell.highs
                )


# -- masks past one 64-bit word ---------------------------------------------

#: Subscriber counts on either side of a word boundary of the masks.
WORD_EDGES = (63, 64, 65, 128, 129)


@st.composite
def many_subscriber_tables(draw, counts=st.integers(1, 200)):
    """One rectangle per distinct subscriber, plus a few more rows for
    subscribers already seen, with ids unrelated to row order.  The
    edges come from a seeded generator (a few hundred of them would be
    slow to draw one by one); about one side in eight is unbounded and
    one rectangle in twelve is left inverted."""
    count = draw(counts)
    ndim = draw(st.integers(1, 4))
    cells = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = (rng.choice(10 * count, size=count, replace=False) * 7).tolist()
    subscribers = ids + rng.choice(ids, size=count // 4).tolist()
    frame_lo = rng.uniform(-50.0, 50.0, ndim)
    width = rng.uniform(0.5, 100.0, ndim) / cells
    rectangles = []
    for _ in subscribers:
        start = rng.uniform(-2.0, cells + 1.0, ndim)
        lows = frame_lo + start * width
        highs = frame_lo + (start + rng.uniform(0.05, 2.5, ndim)) * width
        lows[rng.random(ndim) < 0.125] = -INF
        highs[rng.random(ndim) < 0.125] = INF
        if rng.random() < 1 / 12:
            lows, highs = highs, lows
        rectangles.append(Rectangle(tuple(lows.tolist()), tuple(highs.tolist())))
    frame = None
    if draw(st.booleans()):
        frame = (frame_lo.tolist(), (frame_lo + cells * width).tolist())
    return rectangles, subscribers, cells, frame


def check_many_subscribers(table):
    rectangles, subscribers, cells, frame = table
    batch = EventGrid(rectangles, subscribers, cells_per_dim=cells, frame=frame)
    assume(clear_of_boundaries(batch, rectangles))
    assert batch.num_subscribers == len(set(subscribers))
    assert rows_of(batch) == reference_rows(batch, rectangles, subscribers)
    # One rectangle at a time through ``add_subscription`` reaches the
    # same lists as the table-wide build.
    grown = EventGrid(
        rectangles[:1],
        subscribers[:1],
        cells_per_dim=cells,
        frame=(batch.frame_lo, batch.frame_hi),
    )
    for rectangle, subscriber in zip(rectangles[1:], subscribers[1:]):
        grown.add_subscription(rectangle, subscriber)
    assert members_by_id(grown) == members_by_id(batch)


class TestMasksPastOneWord:
    @given(
        many_subscriber_tables(
            st.one_of(st.sampled_from(WORD_EDGES), st.integers(1, 200))
        )
    )
    def test_batch_build_equals_reference(self, table):
        check_many_subscribers(table)

    @pytest.mark.parametrize("count", WORD_EDGES)
    @settings(max_examples=10)
    @given(data=st.data())
    def test_word_edges_equal_reference(self, count, data):
        check_many_subscribers(
            data.draw(many_subscriber_tables(st.just(count)))
        )


# -- the paper's testbed, pinned from the commit before the rewrite ---------

#: BLAKE2b over the ordered ``(index, lows, highs, members,
#: probability)`` rows of the seed-2003 testbed's grid, read off the
#: per-cell walk this file keeps a copy of.
PINNED = {
    300: "b633d91debc7410f8ba57a220ad3cfaf",
    1000: "2d37f41ab7ce75d5be0297678b250e36",
}


def grid_of_testbed(subscriptions):
    testbed = build_testbed(
        ExperimentConfig(seed=2003, num_subscriptions=subscriptions)
    )
    return testbed, EventGrid(
        testbed.table.rectangles(),
        [s.subscriber for s in testbed.table],
        density=testbed.density(9),
        cells_per_dim=testbed.config.cells_per_dim,
    )


def digest_of(grid):
    h = hashlib.blake2b(digest_size=16)
    for row in rows_of(grid):
        h.update(repr(row).encode())
    return h.hexdigest()


@pytest.mark.parametrize("subscriptions", sorted(PINNED))
def test_testbed_grid_digest_is_the_pinned_one(subscriptions):
    _, grid = grid_of_testbed(subscriptions)
    assert digest_of(grid) == PINNED[subscriptions]


def test_testbed_grid_equals_reference_walk():
    testbed, grid = grid_of_testbed(300)
    rectangles = testbed.table.rectangles()
    subscribers = [s.subscriber for s in testbed.table]
    assert rows_of(grid) == reference_rows(grid, rectangles, subscribers)
