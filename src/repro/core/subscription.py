"""Subscriptions: rectangles bound to subscribers, plus predicate sugar.

A subscription is the conjunction of one range predicate per attribute
— an aligned rectangle in the event space.  Following Section 1 of the
paper, a predicate with *multiple* ranges in one attribute (e.g.
``price in (10, 20] or (30, 40]``) is decomposed into several
single-range subscriptions ("at a cost of more subscriptions"), which
keeps every indexed object a plain rectangle.

:class:`SubscriptionTable` is the collection type the rest of the
library builds on: it owns the id spaces, the packed bounds arrays the
spatial indexes consume, and each owner's rank among the subscribers,
which turns matched ids into their distinct subscribers in arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..geometry.interval import FULL_LINE, Interval
from ..geometry.rectangle import Rectangle

__all__ = ["Subscription", "SubscriptionTable", "decompose_predicates"]


@dataclass(frozen=True)
class Subscription:
    """One single-range-per-attribute subscription.

    Parameters
    ----------
    subscription_id:
        Unique id within a :class:`SubscriptionTable`.
    subscriber:
        The subscriber's identity — in the networked experiments this
        is the subscriber's node id; several subscriptions may share
        one subscriber.
    rectangle:
        The interest rectangle ``b_ij``.
    """

    subscription_id: int
    subscriber: int
    rectangle: Rectangle

    @property
    def ndim(self) -> int:
        return self.rectangle.ndim

    def matches(self, point: Sequence[float]) -> bool:
        """Whether an event satisfies every predicate."""
        return self.rectangle.contains_point(point)


def decompose_predicates(
    predicates: Sequence[Sequence[Interval]],
) -> List[Rectangle]:
    """Cross-product decomposition of multi-range predicates.

    ``predicates[d]`` lists the acceptable intervals of attribute ``d``
    (an empty list means "don't care" — the full line).  The result is
    one rectangle per combination; empty intervals are dropped.
    """
    cleaned: List[List[Interval]] = []
    for dim_intervals in predicates:
        options = [iv for iv in dim_intervals if not iv.is_empty]
        if not options:
            options = [FULL_LINE]
        cleaned.append(options)
    return [
        Rectangle.from_intervals(combo) for combo in product(*cleaned)
    ]


class SubscriptionTable:
    """The full set ``I`` of subscription rectangles, with id plumbing."""

    def __init__(self, ndim: int):
        if ndim < 1:
            raise ValueError("ndim must be positive")
        self.ndim = ndim
        self._subscriptions: List[Subscription] = []
        #: ``_ranks[i]`` (filled to ``len(self)``, doubled when full)
        #: ranks subscription ``i``'s owner in ``_by_rank``, the distinct
        #: subscribers ascending as Python ints; ``_rank_of`` inverts it.
        #: A new subscriber is ranked last until a read renumbers all.
        self._ranks = np.empty(16, np.intp)
        self._rank_of: Dict[int, int] = {}
        self._by_rank = np.empty(0, object)

    # -- population ---------------------------------------------------------

    def add(self, subscriber: int, rectangle: Rectangle) -> Subscription:
        """Register one rectangle; returns the new subscription."""
        if rectangle.ndim != self.ndim:
            raise ValueError(
                f"rectangle has {rectangle.ndim} dimensions, "
                f"table expects {self.ndim}"
            )
        subscription = Subscription(
            subscription_id=len(self._subscriptions),
            subscriber=int(subscriber),
            rectangle=rectangle,
        )
        sid, owner = subscription.subscription_id, subscription.subscriber
        self._subscriptions.append(subscription)
        if sid == len(self._ranks):
            self._ranks = np.resize(self._ranks, 2 * sid)
        self._ranks[sid] = self._rank_of.setdefault(owner, len(self._rank_of))
        return subscription

    def add_predicates(
        self,
        subscriber: int,
        predicates: Sequence[Sequence[Interval]],
    ) -> List[Subscription]:
        """Register a (possibly multi-range) predicate conjunction.

        Returns one subscription per decomposed rectangle.
        """
        if len(predicates) != self.ndim:
            raise ValueError(
                f"need predicates for all {self.ndim} attributes"
            )
        return [
            self.add(subscriber, rectangle)
            for rectangle in decompose_predicates(predicates)
        ]

    def extend(
        self, entries: Iterable["tuple[int, Rectangle]"]
    ) -> List[Subscription]:
        """Bulk-add ``(subscriber, rectangle)`` pairs."""
        return [self.add(subscriber, rect) for subscriber, rect in entries]

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __iter__(self):
        return iter(self._subscriptions)

    def __getitem__(self, subscription_id: int) -> Subscription:
        return self._subscriptions[subscription_id]

    @property
    def subscribers(self) -> List[int]:
        """Distinct subscriber identities, sorted."""
        return sorted(self._rank_of)

    def subscribers_of(
        self, subscription_ids: Sequence[int] | np.ndarray
    ) -> List[int]:
        """Distinct subscribers behind matched subscriptions, sorted: one
        gather of their owners' ranks, one flag per rank, one pass."""
        if len(self._by_rank) < len(self._rank_of):
            self._rerank()
        flags = np.zeros(len(self._by_rank), bool)
        ranks = self._ranks[: len(self._subscriptions)]
        flags[ranks.take(subscription_ids)] = True
        listed: List[int] = self._by_rank[flags].tolist()
        return listed

    def _rerank(self) -> None:
        """Renumber the ranks in subscriber order (new ones came)."""
        ordered = sorted(self._rank_of)
        renumber = np.argsort([self._rank_of[s] for s in ordered])
        used = len(self._subscriptions)
        self._ranks[:used] = renumber.take(self._ranks[:used])
        self._rank_of = {s: rank for rank, s in enumerate(ordered)}
        self._by_rank = np.array(ordered, object)

    def rectangles(self) -> List[Rectangle]:
        return [s.rectangle for s in self._subscriptions]

    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Packed ``(k, N)`` lows/highs arrays for index construction."""
        if not self._subscriptions:
            raise ValueError("table is empty")
        lows = np.array(
            [s.rectangle.lows for s in self._subscriptions],
            dtype=np.float64,
        )
        highs = np.array(
            [s.rectangle.highs for s in self._subscriptions],
            dtype=np.float64,
        )
        return lows, highs

    @classmethod
    def from_placed(
        cls, placed: Sequence, ndim: int = 4
    ) -> SubscriptionTable:
        """Build from workload ``PlacedSubscription`` records."""
        table = cls(ndim)
        for item in placed:
            table.add(item.node, item.rectangle)
        return table
