"""The matching engine: subscriptions in, interested subscribers out.

Wraps one of the spatial point-query indexes around a
:class:`~repro.core.subscription.SubscriptionTable` and answers, for a
published event, both the matched subscription ids and the distinct
interested subscribers, sorted (a subscriber with several matching
subscriptions is still delivered to once; the table resolves them).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, NamedTuple, Sequence, Tuple, Type

import numpy as np

from ..spatial.base import PointMatcher, QueryStats
from ..spatial.counting import CountingMatcher
from ..spatial.grid_index import GridIndexMatcher
from ..spatial.linear import LinearScanMatcher
from ..spatial.rtree import HilbertRTree
from ..spatial.stree import STree
from ..telemetry.base import Telemetry, or_null
from .distribution import typed_eq
from .event import Event
from .subscription import SubscriptionTable

__all__ = ["MatchResult", "MatchingEngine", "MATCHER_BACKENDS"]

#: Selectable index implementations.
MATCHER_BACKENDS: Dict[str, Type[PointMatcher]] = {
    "stree": STree,
    "rtree": HilbertRTree,
    "linear": LinearScanMatcher,
    "grid": GridIndexMatcher,
    "counting": CountingMatcher,
}


class MatchResult(NamedTuple):
    """Outcome of matching one event."""

    subscription_ids: Tuple[int, ...]
    subscribers: Tuple[int, ...]

    __eq__ = typed_eq
    __ne__ = object.__ne__
    __hash__ = tuple.__hash__

    @classmethod
    def from_ids(cls, ids: np.ndarray, table: SubscriptionTable) -> MatchResult:
        """The result for matched ids (an ascending int64 array), with
        their distinct subscribers."""
        return cls(tuple(ids.tolist()), tuple(table.subscribers_of(ids)))

    def recipients_from(self, publisher: int) -> Tuple[int, ...]:
        """Everyone an event from ``publisher`` must reach: the sorted
        subscribers with the publisher cut out, if there."""
        subscribers = self.subscribers
        at = bisect_left(subscribers, publisher)
        if at < len(subscribers) and subscribers[at] == publisher:
            return subscribers[:at] + subscribers[at + 1:]
        return subscribers

    @property
    def is_empty(self) -> bool:
        return not self.subscription_ids

    @property
    def num_subscribers(self) -> int:
        return len(self.subscribers)


class MatchingEngine:
    """Point-query front end over a subscription table."""

    #: A static engine withdraws nothing (see
    #: :attr:`~repro.core.dynamic.DynamicMatchingEngine.removed`).
    removed = ()

    def __init__(
        self,
        table: SubscriptionTable,
        backend: str = "stree",
        telemetry: Telemetry | None = None,
        **backend_options,
    ):
        if len(table) == 0:
            raise ValueError("cannot build a matching engine over no subscriptions")
        try:
            matcher_cls = MATCHER_BACKENDS[backend]
        except KeyError:
            raise ValueError(
                f"unknown backend {backend!r}; choose from "
                f"{sorted(MATCHER_BACKENDS)}"
            ) from None
        self.table = table
        self.backend = backend
        self.telemetry = or_null(telemetry)
        lows, highs = table.to_arrays()
        self.matcher = matcher_cls.build(lows, highs, **backend_options)

    def match_point(self, point: Sequence[float]) -> MatchResult:
        """Match raw coordinates (most callers use :meth:`match`)."""
        result = MatchResult.from_ids(self.matcher.match(point), self.table)
        if self.telemetry.enabled:
            self.telemetry.counter("match.queries").inc()
            self.telemetry.counter("match.matched_subscriptions").inc(
                len(result.subscription_ids)
            )
            self.telemetry.histogram(
                "match.selectivity",
                help="distinct interested subscribers per query",
            ).observe(result.num_subscribers)
        return result

    def match(self, event: Event) -> MatchResult:
        """All subscriptions (and distinct subscribers) for an event."""
        if event.ndim != self.table.ndim:
            raise ValueError(
                f"event has {event.ndim} dimensions, table has "
                f"{self.table.ndim}"
            )
        return self.match_point(event.point)

    @property
    def stats(self) -> QueryStats:
        """The underlying index's work counters."""
        return self.matcher.stats
