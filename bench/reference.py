"""A fixed piece of work that tells how fast the host is right now.

The box this benchmark runs on is a few cores of a shared host, and its
speed moves: by 45 % within seconds, by as much over minutes, in CPU
time as well as wall time, whatever the program.  A fixed loop shows it;
so does every workload here.  Nothing measured inside one run removes a
slow *minute*, so the harness measures the host beside the program:
between units of timed work it times this kernel, and a unit's time is
divided by how much slower than ``REFERENCE_NS`` the kernel ran around
it, to the power ``SENSITIVITY``.  ``events_per_s`` is therefore events per second *of a host that
runs the kernel in ``REFERENCE_NS``* — the same scale on every run,
which is what lets two runs be compared.

The kernel mixes what the program under test does — interpreter
arithmetic, small-array numpy (the index's containment test),
dictionary, tuple and heap churn (the simulator, the transport), and a
plain memory copy (the log) — because the host's slow states do not
slow these alike and a mix tracks a real workload better than any one
of them.  It never changes: a change to it rescales every number.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter_ns

import numpy as np

#: The kernel's time on the box the benchmark was written on, when that
#: box was quiet.  Only fixes the scale of the normalised numbers.
REFERENCE_NS = 1_500_000

#: The program under test slows down more than the kernel does: when the
#: kernel takes ``k`` times ``REFERENCE_NS`` the workloads take about
#: ``k ** SENSITIVITY`` times as long (a small loop keeps its footing in
#: a core shared with a busy neighbour better than a large program).
#: Measured as the slope of log(rep time) on log(kernel time): 1.2–1.4
#: while the host only alternates between its two usual speeds, 2–2.5 in
#: its slow minutes; 1.5 gave the least spread between runs on all six
#: workloads.  Like the kernel, it never changes.
SENSITIVITY = 1.5

_LOWS = np.random.default_rng(2003).random((4000, 4))
_HIGHS = _LOWS + 0.1
_POINT = np.full(4, 0.5)
_BLOB = bytes(1 << 20)


def reference_ns() -> int:
    """Run the kernel once; the nanoseconds it took.

    The collector is held off meanwhile: a collection set off by the
    kernel's own allocations would cost in proportion to the heap of the
    program under test, which is not the host's doing.
    """
    collecting = gc.isenabled()
    gc.disable()
    started = perf_counter_ns()
    total = 0
    for i in range(6000):
        total += i * i
    for _ in range(5):
        inside = np.all((_LOWS < _POINT) & (_POINT <= _HIGHS), axis=1)
        np.flatnonzero(inside)
    table = {}
    for i in range(800):
        table[i] = (i, str(i))
    heap: list = []
    for i in range(500):
        heapq.heappush(heap, (i * 7919 % 1000, i))
    while heap:
        heapq.heappop(heap)
    for _ in range(4):
        bytearray(_BLOB)
    took = perf_counter_ns() - started
    if collecting:
        gc.enable()
    return took
