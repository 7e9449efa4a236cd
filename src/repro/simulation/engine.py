"""A minimal deterministic discrete-event simulation engine.

The cost model in :mod:`repro.network` charges deliveries in edge-cost
units, as the paper does.  The packet-level simulator built on this
engine goes one step further and plays deliveries out *in time*, with
per-link serialization — enough to study the latency and congestion
behaviour of unicast storms vs multicast trees, which the cost units
cannot express.

The engine is a classic event-list design: a priority queue of
``(time, sequence, callback)`` entries, with the monotone sequence
number making same-time ordering deterministic (FIFO in scheduling
order), so every simulation run is exactly reproducible.

A scheduled callable takes **no arguments**, and ``schedule`` /
``schedule_at`` take exactly ``(when, callback)``.  Whatever an event
needs travels inside the callable — the packet network schedules small
``__slots__`` objects defined under :mod:`repro.simulation`, one per
arriving copy (on a path, the copy's transit itself, carrying its
arrival time).  ``bench/tracing.py`` relies on both halves:
it wraps the two scheduling methods with that two-positional signature,
and it books each callback's time to the package named by the
callable's ``__module__`` — so an argument tuple pushed beside the
callback cannot run traced, and a ``functools.partial`` would be
booked to no layer of this repository.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

__all__ = ["DiscreteEventSimulator"]


class DiscreteEventSimulator:
    """Single-threaded event-list simulator with deterministic ties."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of scheduled-but-unprocessed events."""
        return len(self._queue)

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> None:
        """Run ``callback`` ``delay`` time units from now.

        Negative delays are rejected — time never flows backwards.
        """
        if delay < 0:
            raise ValueError(
                f"schedule: delay must be non-negative (got {delay})"
            )
        heapq.heappush(
            self._queue,
            (self._now + delay, next(self._sequence), callback),
        )

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> None:
        """Run ``callback`` at an absolute time (not before ``now``)."""
        if time < self._now:
            raise ValueError(
                f"schedule_at: time must be >= current time {self._now} "
                f"(got {time})"
            )
        heapq.heappush(
            self._queue, (time, next(self._sequence), callback)
        )

    def run(self, until: Optional[float] = None) -> float:
        """Process events in time order; returns the final clock.

        With ``until`` set, stops before the first event beyond it and
        advances the clock to ``until`` exactly.  Only then is the head
        of the queue looked at before it is popped; a run to exhaustion
        pops once per event.
        """
        queue = self._queue
        pop = heapq.heappop
        while queue:
            if until is not None and queue[0][0] > until:
                self._now = until
                return until
            self._now, _, callback = pop(queue)
            self._processed += 1
            callback()
        if until is not None and until > self._now:
            self._now = until
        return self._now
