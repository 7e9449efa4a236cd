"""One subscription's cell box against the table-wide numpy kernel.

``EventGrid`` builds its membership lists for a whole table at once:
clip every rectangle to the frame, drop the empty and the out-of-frame
ones, and take :func:`overlapped_cell_range`'s tight per-axis
``[first, last]``.  ``add_subscription`` answers the same question for
one rectangle under churn.  The reference here is that table-wide
computation, copied verbatim and run on a one-row table; the cells
``add_subscription`` marks must be its box, in ``product`` order, for
edges on, just above and just below every cell boundary the grid
computes, sides beyond the frame, rays, wildcards, NaN and empty sides.
"""

from __future__ import annotations

from itertools import product

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.clustering import EventGrid
from repro.experiments.config import ExperimentConfig
from repro.experiments.testbed import build_testbed
from repro.geometry import Rectangle
from repro.workload import StockSubscriptionGenerator

from .cellbox import box_cells

INF = float("inf")


def reference_cells(grid, rectangle):
    """The cells the table-wide kernel gives one rectangle, in order."""
    frame_lo, frame_hi = grid.frame_lo, grid.frame_hi
    lows = np.array([rectangle.lows], dtype=np.float64)
    highs = np.array([rectangle.highs], dtype=np.float64)
    lo = np.maximum(np.where(np.isfinite(lows), lows, frame_lo), frame_lo)
    hi = np.minimum(np.where(np.isfinite(highs), highs, frame_hi), frame_hi)
    meets = ~np.any((highs <= lows) | (hi <= lo), axis=1)
    ends = np.stack([np.nextafter(np.maximum(lo, frame_lo), np.inf), hi])
    cells = np.ceil((ends - frame_lo) / grid.cell_width) - 1
    first, last = np.clip(cells, 0, grid.cells_per_dim - 1).astype(int)
    if not meets[0]:
        return []
    stop = (last[0] + 1).tolist()
    return list(product(*map(range, first[0].tolist(), stop)))


@st.composite
def grids(draw):
    ndim = draw(st.integers(1, 4))
    cells = draw(st.integers(1, 12))
    lows = st.sampled_from([0.0, -0.03, -9.31, 1e-3, 7.0])
    spans = st.sampled_from([1.0, 0.3, 10.0, 97.13])
    frame_lo = [draw(lows) for _ in range(ndim)]
    frame_hi = [lo + draw(spans) for lo in frame_lo]
    seed = Rectangle(tuple(frame_lo), tuple(frame_hi))
    return EventGrid(
        [seed], [0], cells_per_dim=cells, frame=(frame_lo, frame_hi)
    )


def coordinate(grid, d):
    """A cell boundary of axis ``d`` (or its float neighbours), a point
    beyond the frame, an unbounded side or NaN."""
    boundaries = [
        float(grid.frame_lo[d] + i * grid.cell_width[d])
        for i in range(-1, grid.cells_per_dim + 2)
    ]
    near = st.sampled_from(boundaries).flatmap(
        lambda b: st.sampled_from(
            [b, float(np.nextafter(b, INF)), float(np.nextafter(b, -INF))]
        )
    )
    return st.one_of(
        near,
        near,
        st.floats(
            float(grid.frame_lo[d]) - 5, float(grid.frame_hi[d]) + 5
        ),
        st.sampled_from([-INF, INF, float("nan")]),
    )


@given(data=st.data(), grid=grids())
def test_add_subscription_marks_the_kernels_box(data, grid):
    for subscriber in range(1, 6):
        sides = []
        for d in range(grid.ndim):
            side = [data.draw(coordinate(grid, d)) for _ in range(2)]
            # Mostly ordered; unordered sides are empty rectangles.
            sides.append(sorted(side) if data.draw(st.booleans()) else side)
        rectangle = Rectangle(
            tuple(lo for lo, _ in sides), tuple(hi for _, hi in sides)
        )
        expected = reference_cells(grid, rectangle)
        assert box_cells(grid.add_subscription(rectangle, subscriber)) == expected
        bit = 1 << grid.subscribers.index(subscriber)
        assert all(grid.cells[index].members & bit for index in expected)


def test_stock_arrivals_mark_the_kernels_box():
    testbed = build_testbed(
        ExperimentConfig(seed=2003, num_subscriptions=1000)
    )
    grid = EventGrid(
        testbed.table.rectangles(),
        [s.subscriber for s in testbed.table],
        density=testbed.density(9),
        cells_per_dim=testbed.config.cells_per_dim,
    )
    arrivals = StockSubscriptionGenerator(testbed.topology, seed=2004)
    for placed in (arrivals.generate_one(1000 + i) for i in range(300)):
        expected = reference_cells(grid, placed.rectangle)
        marked = box_cells(grid.add_subscription(placed.rectangle, placed.node))
        assert marked == expected
