"""A machine-independent guard: the grid marks cells without a numpy
call per cell.

The walk this guards against cost four array expressions for every
candidate cell of every rectangle (~180 cells a stock subscription),
which made the grid build nine tenths of preprocessing.  Wall-clock
bounds would flap on a shared box; a call count does not.  The count is
taken from the test with ``sys.setprofile`` — nothing in ``src/``
counts, flags or hooks anything.

``c_call`` events fire for C functions and C methods (``np.asarray``,
``ndarray.tolist``, ``ufunc.reduce`` under ``np.all`` …), not for a
ufunc called directly or an operator between arrays, so the numbers are
lower bounds.  The per-cell walk still read 366 a rectangle on build
and 376 an ``add_subscription``; the table-wide one read 2.2 and 14.
Now a build reads 0.07 a rectangle, and an add none: the box is plain
float arithmetic and the one OR into the mask table is a subscript and
an in-place operator, which fire no ``c_call``.  Widening the table's
word axis (``np.pad``, once per 64 new subscribers) would; the arrivals
here bring no new subscriber.
"""

from __future__ import annotations

import sys

from repro.clustering import EventGrid
from repro.experiments.config import ExperimentConfig
from repro.experiments.testbed import build_testbed
from repro.workload import StockSubscriptionGenerator

from .cellbox import box_cells

BUILD_CALLS_PER_RECTANGLE = 25
ADD_CALLS_PER_SUBSCRIPTION = 0


def numpy_c_calls(action):
    """How many numpy C functions / methods ``action()`` calls."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event != "c_call":
            return
        # A C function names its module; a C method is bound to an
        # object (an array, a ufunc) whose type does.
        modules = (
            getattr(arg, "__module__", None) or "",
            type(getattr(arg, "__self__", None)).__module__,
        )
        if any(name.startswith("numpy") for name in modules):
            calls += 1

    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


def test_numpy_calls_do_not_scale_with_cells():
    testbed = build_testbed(
        ExperimentConfig(seed=2003, num_subscriptions=1000)
    )
    rectangles = testbed.table.rectangles()
    subscribers = [s.subscriber for s in testbed.table]
    grids = []
    build = numpy_c_calls(
        lambda: grids.append(
            EventGrid(
                rectangles,
                subscribers,
                density=testbed.density(9),
                cells_per_dim=testbed.config.cells_per_dim,
            )
        )
    )
    assert build / len(rectangles) <= BUILD_CALLS_PER_RECTANGLE

    grid = grids[0]
    arrivals = StockSubscriptionGenerator(testbed.topology, seed=2004)
    placed = [arrivals.generate_one(1000 + i) for i in range(50)]
    marked = []
    add = numpy_c_calls(
        lambda: marked.extend(
            grid.add_subscription(p.rectangle, p.node) for p in placed
        )
    )
    marked = [len(box_cells(box)) for box in marked]
    # The subscriptions are real ones (over a hundred cells each), so a
    # per-cell call could not hide under the bound.
    assert sum(marked) / len(placed) > 100
    assert add / len(placed) <= ADD_CALLS_PER_SUBSCRIPTION
