"""Subscription churn: matching and group maintenance under updates.

The paper treats preprocessing as static, acknowledging (via the
related work it cites, Wong/Katz/McCanne's initial + incremental
algorithms) that real systems face "ongoing and inevitable changes" in
subscriptions.  This module provides the standard production pattern
for a bulk-packed index under churn:

- **inserts** go to a small *overflow* side table scanned linearly at
  query time (kept folded, as :mod:`repro.spatial.packed` keeps its
  entries, so a scan is one ``<=``), and incrementally widen the
  affected multicast groups (cheap: group membership is a union, so
  adding never breaks the ``M_q ⊇ interested`` invariant);
- **deletes** become *tombstones*, a byte mask over the id space that
  match results are filtered through (groups are left as supersets —
  deliveries stay correct, just slightly more wasteful, exactly like
  stale members in a real multicast group);
- once churn exceeds a configurable fraction of the index, the whole
  static preprocessing (S-tree packing + clustering) is **rebuilt**,
  amortizing its cost over many updates.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Set

import numpy as np

from ..clustering.base import DEFAULT_MAX_CELLS, CellClusteringAlgorithm
from ..clustering.grid import CellProbability
from ..geometry.rectangle import Rectangle
from ..network.multicast import DeliveryCostModel
from ..network.topology import Topology
from ..spatial.base import QueryStats
from ..spatial.packed import FOLD_SIGNS, fold_box
from .broker import PubSubBroker
from .distribution import DistributionPolicy
from .matching import MATCHER_BACKENDS, MatchingEngine, MatchResult
from .subscription import Subscription, SubscriptionTable

__all__ = ["DynamicMatchingEngine", "DynamicPubSubBroker"]

#: Rebuild once pending churn exceeds this fraction of the base index.
DEFAULT_REBUILD_FRACTION = 0.25

#: The answer of an engine with no base index, before its overflow.
_NO_IDS = np.empty(0, np.int64)


class DynamicMatchingEngine:
    """A matching engine that accepts subscribes and unsubscribes.

    Query semantics are identical to a freshly built
    :class:`~repro.core.matching.MatchingEngine` over the live
    subscription set; the overflow/tombstone machinery is invisible to
    callers.
    """

    def __init__(
        self,
        table: SubscriptionTable,
        backend: str = "stree",
        rebuild_fraction: float = DEFAULT_REBUILD_FRACTION,
        removed: Optional[Set[int]] = None,
        **backend_options,
    ):
        if not 0.0 < rebuild_fraction <= 1.0:
            raise ValueError("rebuild_fraction must lie in (0, 1]")
        if backend not in MATCHER_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from "
                f"{sorted(MATCHER_BACKENDS)}"
            )
        self.table = table
        self.backend = backend
        self.rebuild_fraction = rebuild_fraction
        self._backend_options = backend_options
        #: The tombstone mask, a byte per id read as numpy bools, seeded
        #: by ``removed`` (a recovered table holds withdrawn rows).
        self._tombstones = bytearray(len(table))
        for sid in removed or ():
            if sid >= 0:
                self._cover(sid + 1)
                self._tombstones[sid] = 1
        self._removals_since_rebuild = 0
        #: The ids added since the last repack, and their rectangles
        #: folded, ``(2 * ndim, capacity)``, one column per id, filled
        #: in place by ``add`` (doubled when full).
        self._overflow_ids = array("q")
        self._overflow_folds = np.empty((2 * table.ndim, 16))
        self.rebuilds = 0
        self._build_base()

    def _cover(self, size: int) -> None:
        """Grow the tombstone mask to ``size`` ids (it never shrinks)."""
        self._tombstones.extend(bytes(max(0, size - len(self._tombstones))))

    def _build_base(self) -> None:
        """(Re)pack the base index over all live subscriptions."""
        size = len(self.table)
        self._cover(size)
        live = np.flatnonzero(~np.frombuffer(self._tombstones, bool, size))
        if len(live):
            lows, highs = self.table.to_arrays()
            self._base = MATCHER_BACKENDS[self.backend].build(
                lows.take(live, axis=0), highs.take(live, axis=0),
                ids=live, **self._backend_options
            )
        else:
            self._base = None
        del self._overflow_ids[:]  # the columns are overwritten
        self._removals_since_rebuild = 0

    # -- updates -------------------------------------------------------------

    def add(self, subscriber: int, rectangle: Rectangle) -> Subscription:
        """Register a new subscription; visible to queries immediately
        (unless ``removed`` seeded its id: it never enters the index)."""
        subscription = self.table.add(subscriber, rectangle)
        self._cover(len(self.table))
        if self._tombstones[subscription.subscription_id]:
            return subscription
        used = len(self._overflow_ids)
        if used == self._overflow_folds.shape[1]:
            grown = np.empty((2 * self.table.ndim, 2 * used))
            grown[:, :used] = self._overflow_folds
            self._overflow_folds = grown
        folded = fold_box(rectangle.lows, rectangle.highs)
        self._overflow_folds[:, used] = folded
        self._overflow_ids.append(subscription.subscription_id)
        self._maybe_rebuild()
        return subscription

    def remove(self, subscription_id: int) -> None:
        """Withdraw a subscription; it stops matching immediately."""
        if not 0 <= subscription_id < len(self.table):
            raise KeyError(f"unknown subscription id {subscription_id}")
        if self._tombstones[subscription_id]:
            raise KeyError(
                f"subscription {subscription_id} already removed"
            )
        self._tombstones[subscription_id] = 1
        self._removals_since_rebuild += 1
        self._maybe_rebuild()

    def _maybe_rebuild(self) -> None:
        base_size = len(self._base) if self._base is not None else 0
        limit = self.rebuild_fraction * base_size
        if base_size == 0 or self.pending_churn > limit:
            self.rebuild()

    def rebuild(self) -> None:
        """Force an immediate repack (e.g. during an idle period)."""
        self._build_base()
        self.rebuilds += 1

    # -- queries -----------------------------------------------------------------

    def match_point(self, point: Sequence[float]) -> MatchResult:
        """All live subscriptions (and subscribers) containing a point:
        the base answer, the overflow's hits written after it in one
        buffer (each overflow id is newer than every base id),
        tombstones since the last repack masked out, all as one int64
        array.  A buffer with a live view cannot grow, so views of the
        byte buffers never outlive a statement."""
        matched = _NO_IDS if self._base is None else self._base.match(point)
        used = len(self._overflow_ids)
        if used:
            at = (FOLD_SIGNS * point).reshape(-1, 1)  # [x ; -x]
            folds = self._overflow_folds[:, :used]
            hits = np.logical_and.reduce(folds <= at, axis=0).nonzero()[0]
            base = len(matched)
            ids = np.empty(base + len(hits), np.int64)
            ids[:base] = matched
            ids[base:] = np.frombuffer(
                self._overflow_ids, np.int64
            ).take(hits)
            matched = ids
        if self._removals_since_rebuild:
            dead = np.frombuffer(self._tombstones, bool).take(matched)
            matched = matched[~dead]
        return MatchResult.from_ids(matched, self.table)

    match = MatchingEngine.match

    @property
    def stats(self) -> QueryStats:
        """Work counters of the base index (overflow scans excluded)."""
        if self._base is None:
            return QueryStats()
        return self._base.stats

    @property
    def removed(self) -> List[int]:
        """The withdrawn ids, ascending: the tombstone mask's set bits."""
        return np.flatnonzero(np.frombuffer(self._tombstones, bool)).tolist()

    @property
    def pending_churn(self) -> int:
        """Inserts + deletes absorbed since the last repack."""
        return len(self._overflow_ids) + self._removals_since_rebuild


class DynamicPubSubBroker(PubSubBroker):
    """A broker that accepts subscription churn between events.

    ``subscribe`` is fully incremental: the new rectangle joins the
    overflow index and widens overlapping multicast groups in place.
    ``unsubscribe`` tombstones the subscription (matching is exact
    immediately); groups keep the stale member until the next
    re-preprocess, mirroring how real deployments drain multicast
    groups lazily.  ``repreprocess`` reruns clustering from the live
    subscription set.
    """

    def __init__(
        self,
        topology: Topology,
        table: SubscriptionTable,
        partition,
        algorithm: CellClusteringAlgorithm,
        num_groups: int,
        density: Optional[CellProbability] = None,
        cells_per_dim: int = 10,
        max_cells: int = DEFAULT_MAX_CELLS,
        policy: Optional[DistributionPolicy] = None,
        matcher_backend: str = "stree",
        cost_model: Optional[DeliveryCostModel] = None,
        rebuild_fraction: float = DEFAULT_REBUILD_FRACTION,
    ):
        #: Read by :meth:`_make_engine`, which ``super().__init__`` calls.
        self.rebuild_fraction = rebuild_fraction
        super().__init__(
            topology,
            table,
            partition,
            policy=policy,
            matcher_backend=matcher_backend,
            cost_model=cost_model,
        )
        #: ``partition_table``'s arguments, for :meth:`repreprocess`.
        self._clustering = dict(
            algorithm=algorithm, num_groups=num_groups, density=density,
            cells_per_dim=cells_per_dim, max_cells=max_cells, grid_frame=None,
        )
        #: Optional durability hook (see :meth:`attach_journal`).
        self.journal = None

    @classmethod
    def preprocess_dynamic(
        cls,
        topology: Topology,
        table: SubscriptionTable,
        algorithm: CellClusteringAlgorithm,
        num_groups: int,
        **options,
    ) -> DynamicPubSubBroker:
        """Static preprocessing plus churn plumbing: ``options`` are
        :meth:`PubSubBroker.preprocess`'s plus ``rebuild_fraction``, and
        ``grid_frame`` stays pinned through :meth:`repreprocess`."""
        grid_frame = options.pop("grid_frame", None)
        clustering = {
            name: options.pop(name)
            for name in ("density", "cells_per_dim", "max_cells")
            if name in options
        }
        partition = cls.partition_table(
            table, algorithm, num_groups, grid_frame=grid_frame, **clustering
        )
        broker = cls(
            topology, table, partition, algorithm, num_groups,
            **clustering, **options,
        )
        broker._clustering["grid_frame"] = grid_frame
        return broker

    def _make_engine(self, table, matcher_backend, telemetry=None):
        """The churn-capable engine (same query interface)."""
        return DynamicMatchingEngine(
            table, matcher_backend, self.rebuild_fraction
        )

    # -- churn -----------------------------------------------------------------

    def attach_journal(self, journal) -> None:
        """Journal every subscribe/unsubscribe to durable storage.

        ``journal`` is a :class:`~repro.durability.journal.
        BrokerJournal` (duck-typed: anything with ``log_subscribe`` /
        ``log_unsubscribe``).  Publish intents and delivery
        completions are journaled by the transport harness, not here.
        """
        self.journal = journal

    def subscribe(
        self, subscriber: int, rectangle: Rectangle
    ) -> Subscription:
        """Admit a new subscription; effective for the next event."""
        subscription = self.engine.add(subscriber, rectangle)
        if self.journal is not None:
            self.journal.log_subscribe(subscription)
        grown = self.partition.add_subscription(rectangle, subscriber)
        if grown:
            # Group membership changed: memoized trees are stale.
            self.costs.clear_cache()
        return subscription

    def unsubscribe(self, subscription_id: int) -> None:
        """Withdraw a subscription; it stops matching immediately.

        The subscriber stays in its multicast groups (a harmless
        superset) until :meth:`repreprocess`.
        """
        self.engine.remove(subscription_id)
        if self.journal is not None:
            self.journal.log_unsubscribe(subscription_id)

    def repreprocess(self) -> None:
        """Re-run the static stage over the live subscription set."""
        live = SubscriptionTable(self.table.ndim)
        removed = set(self.engine.removed)
        for subscription in self.table:
            if subscription.subscription_id not in removed:
                live.add(subscription.subscriber, subscription.rectangle)
        self.partition = self.partition_table(live, **self._clustering)
        self.table = live
        self.engine = self._make_engine(live, self.engine.backend)
        self.costs.clear_cache()
        if self.journal is not None:
            # Compaction renumbers the ids the WAL's records name.
            self.journal.checkpoint()

    @property
    def live_subscriptions(self) -> int:
        """Number of currently active subscriptions."""
        return len(self.table) - len(self.engine.removed)
