"""``EventGrid.cells`` against a test-local copy of the eager build.

The reference below builds every touched cell when the grid is made —
in first-row order, priced by the density's per-axis masses when it has
them — and, after adds, refreshes members and appends the cells first
covered since in C order, priced cell by cell, whenever ``cells`` is
read.  That code is kept here verbatim.  After generated sequences of
adds (new subscribers whose bits land at 63 / 64 / 65 / 128, rays,
flat, inverted and out-of-frame rectangles), with ``cells`` read at
generated moments or never until the end, the library's grid must hold
the reference's cells **in the same iteration order**, each with the
same index, ``lows`` / ``highs``, members and ``probability``, exactly.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clustering import EventGrid
from repro.clustering.grid import GridCell
from repro.experiments.config import ExperimentConfig
from repro.experiments.testbed import build_testbed
from repro.geometry import Rectangle
from repro.geometry.gridmath import overlapped_cell_box, overlapped_cell_range
from repro.workload import StockSubscriptionGenerator

from tests.clustering.cellbox import box_cells
from tests.clustering.test_grid_growth_oracle import STARTS, sequences

_WORD_BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)


# -- the reference: the eager build, verbatim ---------------------------------


class EagerGrid:
    """The cells a grid over ``rectangles`` held when every one was
    made at construction.  Geometry, density and the subscriber bit
    order are taken from ``grid``, the library grid over the same rows."""

    def __init__(self, grid, rectangles, subscriber_ids):
        self.ndim = grid.ndim
        self.cells_per_dim = grid.cells_per_dim
        self.frame_lo, self.frame_hi = grid.frame_lo, grid.frame_hi
        self._width = grid.cell_width
        self._locate_frame = (
            self.frame_lo.tolist(),
            self.frame_hi.tolist(),
            self._width.tolist(),
            self.cells_per_dim,
        )
        self.density = grid.density
        self.subscribers = sorted(set(int(s) for s in subscriber_ids))
        self._bit_of = {sid: bit for bit, sid in enumerate(self.subscribers)}
        self._cells = {}
        self._stale = False
        lows = np.array([r.lows for r in rectangles], dtype=np.float64)
        highs = np.array([r.highs for r in rectangles], dtype=np.float64)
        self._populate(lows, highs, subscriber_ids)

    def _populate(self, table_lows, table_highs, subscriber_ids):
        shape = (self.cells_per_dim,) * self.ndim
        words = -(-len(self.subscribers) // 64)
        self._masks = masks = np.zeros(shape + (words,), dtype="<u8")
        untouched = len(table_lows)
        first_row = np.full(shape, untouched)
        rows, first, stop = self._boxes(table_lows, table_highs)
        for row in reversed(rows):
            bit = self._bit_of[int(subscriber_ids[row])]
            box = tuple(map(slice, first[row], stop[row]))
            word = masks[box + (bit >> 6,)]
            word |= _WORD_BIT[bit & 63]
            first_row[box] = row
        touched = np.flatnonzero(first_row != untouched)
        order = touched[np.argsort(first_row.ravel()[touched], kind="stable")]
        per_dim = getattr(self.density, "per_dimension_masses", None)
        self._sync_cells(order, per_dim)

    def _sync_cells(self, order, per_dim=None):
        columns = np.unravel_index(order, self._masks.shape[:-1])
        frame_lo, _, width, cells = self._locate_frame
        edges = [
            [f + i * w for i in range(cells + 1)]
            for f, w in zip(frame_lo, width)
        ]
        hi_edges = [[lo + w for lo in e[:-1]] for e, w in zip(edges, width)]
        probabilities = np.ones(len(order))
        if per_dim is not None:
            masses = per_dim([np.array(axis) for axis in edges])
            for mass, column in zip(masses, columns):
                probabilities *= np.asarray(mass, dtype=np.float64)[column]
        cols = [column.tolist() for column in columns]
        lows = zip(*(map(e.__getitem__, c) for e, c in zip(edges, cols)))
        highs = zip(*(map(e.__getitem__, c) for e, c in zip(hi_edges, cols)))
        view, step = memoryview(self._masks).cast("B"), self._masks.strides[-2]
        members = (
            int.from_bytes(view[c * step : c * step + step], "little")
            for c in order.tolist()
        )
        for index, lo, hi, mask, probability in zip(
            zip(*cols), lows, highs, members, probabilities.tolist()
        ):
            cell = self._cells.get(index)
            if cell is not None:
                cell.members = mask
                continue
            if per_dim is None:
                probability = self.density.cell_probability(lo, hi)
            self._cells[index] = GridCell(index, lo, hi, mask, probability)

    def _boxes(self, lows, highs):
        lo = np.maximum(
            np.where(np.isfinite(lows), lows, self.frame_lo), self.frame_lo
        )
        hi = np.minimum(
            np.where(np.isfinite(highs), highs, self.frame_hi), self.frame_hi
        )
        meets = ~np.any((highs <= lows) | (hi <= lo), axis=1)
        first, last = overlapped_cell_range(
            lo, hi, self.frame_lo, self._width, self.cells_per_dim
        )
        rows = np.flatnonzero(meets).tolist()
        return rows, first.tolist(), (last + 1).tolist()

    def add_subscription(self, rectangle, subscriber):
        subscriber = int(subscriber)
        bit = self._bit_of.get(subscriber)
        if bit is None:
            bit = self._bit_of[subscriber] = len(self.subscribers)
            self.subscribers.append(subscriber)
            if bit >> 6 == self._masks.shape[-1]:
                wider = [(0, 0)] * self.ndim + [(0, 1)]
                self._masks = np.pad(self._masks, wider)
        box = overlapped_cell_box(
            rectangle.lows, rectangle.highs, *self._locate_frame
        )
        if not box:
            return []
        cover = tuple(slice(axis.start, axis.stop) for axis in box)
        word = self._masks[cover + (bit >> 6,)]
        word |= _WORD_BIT[bit & 63]
        self._stale = True
        return list(product(*box))

    @property
    def cells(self):
        if self._stale:
            self._stale = False
            flat = self._masks.reshape(-1, self._masks.shape[-1])
            self._sync_cells(flat.any(axis=1).nonzero()[0])
        return self._cells


# -- the comparison ---------------------------------------------------------------


def items(cells):
    """Every cell in iteration order, as plain values."""
    return [
        (key, cell.index, cell.lows, cell.highs, cell.members, cell.probability)
        for key, cell in cells.items()
    ]


class PerCellDensity:
    """The density of ``inner`` without its per-axis fast path, so both
    grids price every cell one at a time."""

    def __init__(self, inner):
        self.inner = inner

    def cell_probability(self, lows, highs):
        return self.inner.cell_probability(lows, highs)


def grow_and_compare(grid, reference, rectangles, subscribers, reads):
    """Add every row to both grids, reading ``cells`` before the adds at
    the positions in ``reads``, and once after the last."""
    for step, (rectangle, subscriber) in enumerate(zip(rectangles, subscribers)):
        if step in reads:
            assert items(grid.cells) == items(reference.cells)
        got = box_cells(grid.add_subscription(rectangle, subscriber))
        assert got == reference.add_subscription(rectangle, subscriber)
    assert items(grid.cells) == items(reference.cells)
    assert grid.subscribers == reference.subscribers


@given(
    sequences(),
    st.booleans(),
    st.booleans(),
    st.sets(st.integers(0, 40), max_size=4),
)
def test_generated_adds_keep_the_eager_cells(sequence, fitted, per_cell, reads):
    rectangles, subscribers, start, cells, frame = sequence
    built, grown = rectangles[:start], rectangles[start:]
    grid = EventGrid(
        built, subscribers[:start], cells_per_dim=cells,
        frame=None if fitted else frame,
    )
    if per_cell:
        grid = EventGrid(
            built, subscribers[:start], density=PerCellDensity(grid.density),
            cells_per_dim=cells, frame=(grid.frame_lo, grid.frame_hi),
        )
    reference = EagerGrid(grid, built, subscribers[:start])
    grow_and_compare(grid, reference, grown, subscribers[start:], reads)


@pytest.mark.parametrize("start", STARTS)
def test_cells_never_read_until_every_add_is_in(start):
    """The whole grown grid read once: the build's cells, then every
    cell the adds covered, as the eager grid would have them."""
    rng = np.random.default_rng(start + 7)
    rectangles = [
        Rectangle(tuple(lo.tolist()), tuple((lo + rng.uniform(0.1, 4, 3)).tolist()))
        for lo in rng.uniform(-1, 9, (start + 70, 3))
    ]
    subscribers = list(range(500, 500 + start + 70))
    grid = EventGrid(
        rectangles[:start], subscribers[:start], cells_per_dim=5,
        frame=([0.0] * 3, [10.0] * 3),
    )
    reference = EagerGrid(grid, rectangles[:start], subscribers[:start])
    grow_and_compare(
        grid, reference, rectangles[start:], subscribers[start:], set()
    )


@pytest.mark.parametrize("subscriptions", [300, 1000])
def test_testbed_grid_as_restore_builds_it(subscriptions):
    """The paper's testbed with its mixture density, rebuilt over an
    explicit frame the way recovery rebuilds it, then grown."""
    testbed = build_testbed(
        ExperimentConfig(seed=2003, num_subscriptions=subscriptions)
    )
    rectangles = testbed.table.rectangles()
    subscribers = [s.subscriber for s in testbed.table]
    fitted = EventGrid(rectangles, subscribers, density=testbed.density(9))
    grid = EventGrid(
        rectangles, subscribers, density=fitted.density,
        cells_per_dim=fitted.cells_per_dim,
        frame=(fitted.frame_lo.tolist(), fitted.frame_hi.tolist()),
    )
    reference = EagerGrid(grid, rectangles, subscribers)
    arrivals = StockSubscriptionGenerator(testbed.topology, seed=2005)
    placed = [arrivals.generate_one(subscriptions + i) for i in range(40)]
    fresh = max(testbed.topology.graph.nodes) + 1
    grow_and_compare(
        grid,
        reference,
        [p.rectangle for p in placed],
        [p.node for p in placed[:30]] + list(range(fresh, fresh + 10)),
        {0, 17},
    )
    assert items(fitted.cells) == items(
        EagerGrid(fitted, rectangles, subscribers).cells
    )
