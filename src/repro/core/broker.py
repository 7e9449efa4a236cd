"""The end-to-end content-based pub-sub broker.

Composes everything the paper describes into one object:

1. **preprocessing** — cluster the subscriptions' grid cells into
   multicast groups (:mod:`repro.clustering`);
2. **matching** — locate each event's interested subscribers with a
   spatial index (:mod:`repro.spatial` via
   :class:`~repro.core.matching.MatchingEngine`);
3. **distribution method** — apply the threshold rule
   (:class:`~repro.core.distribution.ThresholdPolicy`);
4. **cost accounting** — charge the delivery to network links
   (:mod:`repro.network`), tracking the paper's unicast/ideal
   references alongside.

The broker is deliberately deterministic: same inputs, same decisions,
same costs — all randomness lives in the workload generators.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..clustering.base import DEFAULT_MAX_CELLS, CellClusteringAlgorithm
from ..clustering.grid import CellProbability, EventGrid
from ..clustering.groups import SpacePartition
from ..network.multicast import CostTally, DeliveryCostModel
from ..network.topology import Topology
from ..telemetry.base import Telemetry, or_null
from ..telemetry.tracing import Span
from .distribution import (
    DeliveryMethod,
    DistributionDecision,
    DistributionPolicy,
    ThresholdPolicy,
    degraded_flood,
    record_decision,
    typed_eq,
)
from .event import Event
from .matching import MatchingEngine, MatchResult
from .subscription import SubscriptionTable

__all__ = ["DeliveryRecord", "PublishPlan", "PubSubBroker"]


class PublishPlan(NamedTuple):
    """What :meth:`PubSubBroker.plan` decided for one event.

    Everything a consumer needs to price the delivery or put it on a
    wire: the interested set, the subset ``S_q`` the event fell in
    (``q = 0`` is the catchall) and the distribution decision.
    ``flooded`` marks the degraded plan, whose ``match`` is the whole
    group ``M_q`` rather than the exact interested set.
    """

    event: Event
    match: MatchResult
    q: int
    decision: DistributionDecision
    #: The open ``event`` span; ``None`` when telemetry is off.
    root: Optional[Span]
    flooded: bool

    @property
    def recipients(self) -> List[int]:
        """Everyone the event must reach, the publisher excepted."""
        return list(self.match.recipients_from(self.event.publisher))


class DeliveryRecord(NamedTuple):
    """Everything that happened to one published event.

    ``repaired`` and ``undeliverable`` are only populated when the
    event was published against a fault snapshot (see
    :meth:`PubSubBroker.publish`): repaired recipients needed a detour
    or fallback unicast around dead components, undeliverable ones were
    partitioned away entirely.
    """

    event: Event
    match: MatchResult
    decision: DistributionDecision
    scheme_cost: float
    unicast_cost: float
    ideal_cost: float
    repaired: Tuple[int, ...] = ()
    undeliverable: Tuple[int, ...] = ()

    __eq__ = typed_eq
    __ne__ = object.__ne__
    __hash__ = tuple.__hash__

    @property
    def method(self) -> DeliveryMethod:
        return self.decision.method


class PubSubBroker:
    """A complete simulated content-based pub-sub system."""

    def __init__(
        self,
        topology: Topology,
        table: SubscriptionTable,
        partition: SpacePartition,
        policy: Optional[DistributionPolicy] = None,
        matcher_backend: str = "stree",
        cost_model: Optional[DeliveryCostModel] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.topology = topology
        self.table = table
        self.partition = partition
        self.policy = policy or ThresholdPolicy()
        self.telemetry = or_null(telemetry)
        self.engine = self._make_engine(table, matcher_backend, telemetry)
        self.costs = cost_model or DeliveryCostModel(
            topology, telemetry=telemetry
        )
        #: Optional :class:`~repro.sessions.session.SessionManager`
        #: observing the publish path (see :meth:`attach_sessions`).
        self.sessions = None
        from ..io import TableEncoder  # here: repro.io imports repro.core

        #: What :meth:`durable_state` has already encoded of ``table``.
        self._table_encoder = TableEncoder()

    # -- construction -------------------------------------------------------

    def _make_engine(
        self,
        table: SubscriptionTable,
        matcher_backend: str,
        telemetry: Optional[Telemetry],
    ) -> MatchingEngine:
        """The matching engine this broker queries (built once)."""
        return MatchingEngine(table, matcher_backend, telemetry)

    @staticmethod
    def partition_table(
        table: SubscriptionTable,
        algorithm: CellClusteringAlgorithm,
        num_groups: int,
        density: Optional[CellProbability] = None,
        cells_per_dim: int = 10,
        max_cells: int = DEFAULT_MAX_CELLS,
        grid_frame: Optional[tuple[Sequence[float], Sequence[float]]] = None,
    ) -> SpacePartition:
        """The static phase's clustering: grid, clusters, partition."""
        grid = EventGrid(
            table.rectangles(), [s.subscriber for s in table],
            density=density, cells_per_dim=cells_per_dim, frame=grid_frame,
        )
        result = algorithm.cluster(grid, num_groups, max_cells=max_cells)
        return SpacePartition(grid, result)

    @classmethod
    def preprocess(
        cls,
        topology: Topology,
        table: SubscriptionTable,
        algorithm: CellClusteringAlgorithm,
        num_groups: int,
        density: Optional[CellProbability] = None,
        cells_per_dim: int = 10,
        max_cells: int = DEFAULT_MAX_CELLS,
        policy: Optional[DistributionPolicy] = None,
        matcher_backend: str = "stree",
        cost_model: Optional[DeliveryCostModel] = None,
        grid_frame: Optional[tuple[Sequence[float], Sequence[float]]] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> PubSubBroker:
        """Run the full preprocessing stage and return a ready broker.

        This is the paper's static phase: impose the grid, cluster the
        top-``max_cells`` cells into ``num_groups`` groups, and derive
        the space partition.

        ``grid_frame`` optionally pins the grid's bounding box to the
        known event domain; by default the frame is fitted to the
        subscriptions' finite coordinates, which is right for dense
        generated workloads but can under-cover hand-built ones.
        """
        partition = cls.partition_table(
            table, algorithm, num_groups, density, cells_per_dim, max_cells,
            grid_frame,
        )
        return cls(
            topology,
            table,
            partition,
            policy=policy,
            matcher_backend=matcher_backend,
            cost_model=cost_model,
            telemetry=telemetry,
        )

    # -- the dynamic path --------------------------------------------------------

    def plan(
        self,
        event: Event,
        matcher=None,
        degraded: bool = False,
        telemetry: Optional[Telemetry] = None,
    ) -> PublishPlan:
        """Match, locate and decide one event (paper Section 4's loop).

        The one place the dynamic phase is written: S-tree point query
        for the interested set, grid lookup for the subset ``S_q``,
        session charge, threshold rule.  What happens to the plan next
        is the caller's: :meth:`publish` prices it, the chaos harnesses
        put it on a simulated wire (:func:`repro.faults.dispatch`).

        ``matcher`` is whatever answers ``match(event)`` for the
        event's region — this broker's engine by default, the owning
        :class:`~repro.sharding.router.ShardBroker` under sharding.
        ``telemetry`` is the caller's registry when it is not the
        broker's (a harness meters on its own simulated clock).  The
        plan carries the open ``event`` span; whoever consumes the plan
        closes it.

        With ``degraded=True`` (the overload HealthMonitor's DEGRADED
        state) the exact query is skipped and the precomputed group
        ``S_q`` falls in is flooded — the paper's multicast arm taken
        unconditionally.  Group membership is a superset of the
        interested set by the clustering invariant, so correctness is
        preserved; the price is the expected-waste bandwidth the
        paper's EW metric quantifies.  Catchall events (``q = 0``, no
        covering group) have no group to flood and take the exact path
        regardless.
        """
        if telemetry is None:
            telemetry = self.telemetry
        instrumented = telemetry.enabled
        root = None
        if instrumented:
            telemetry.counter("broker.events").inc()
            root = telemetry.start_span(
                "event", trace_id=event.sequence, publisher=event.publisher
            )
            started = perf_counter()
        q = self.partition.locate(event.point)
        if degraded and q > 0:
            group = self.partition.group(q)
            # The exact interested set is unknown by design; the whole
            # group is treated as interested (``M_q ⊇ interested``).
            flood = sorted(n for n in group.members if n != event.publisher)
            match = MatchResult((), tuple(flood))
            decision = degraded_flood(len(flood), group.size, q)
            if instrumented:
                root.set_attribute("degraded", True)
                telemetry.counter(
                    "broker.degraded_events",
                    help="events delivered by group flood (match skipped)",
                ).inc()
            return PublishPlan(event, match, q, decision, root, True)
        if instrumented:
            match_span = telemetry.start_span("match", parent=root)
        # ``is None``, not truthiness: an empty shard has length zero.
        match = (self.engine if matcher is None else matcher).match(event)
        if instrumented:
            telemetry.histogram(
                "broker.match_latency_us",
                help="wall time of one match+locate, microseconds",
            ).observe((perf_counter() - started) * 1e6)
            match_span.set_attribute(
                "subscribers", match.num_subscribers
            ).finish()
        if self.sessions is not None:
            # Retain the event and charge it to every durable session
            # it matches, *before* any delivery attempt (write-ahead).
            self.sessions.on_publish(event, match)
        if instrumented:
            decision_span = telemetry.start_span(
                "distribution-decision", parent=root
            )
        group_size = self.partition.groups[q - 1].size if q > 0 else 0
        decision = self.policy.decide(match.num_subscribers, group_size, q)
        if instrumented:
            record_decision(telemetry, decision)
            decision_span.set_attribute(
                "method", decision.method.value
            ).set_attribute("group", q).set_attribute(
                "interested", decision.interested
            ).finish()
        return PublishPlan(event, match, q, decision, root, False)

    def publish(
        self, event: Event, faults=None, degraded: bool = False
    ) -> DeliveryRecord:
        """Plan one event and charge its delivery to the network links.

        With a fault snapshot (``faults`` exposing ``dead_links`` /
        ``dead_nodes``, e.g. a :class:`~repro.faults.plan.FaultState`),
        the delivery degrades gracefully instead of assuming a healthy
        network: multicast trees are pruned at dead links/brokers and
        stranded interested subscribers are repaired by unicasts over
        the surviving graph; unicast fan-outs pay surviving-path
        prices.  The unicast/ideal reference costs stay fault-free, so
        the repair overhead is visible in the improvement percentage.
        ``degraded`` is :meth:`plan`'s.
        """
        plan = self.plan(event, degraded=degraded)
        record = self._cost(plan, faults)
        if plan.root is not None:
            plan.root.set_attribute("method", record.method.value).finish()
        return record

    def _cost(self, plan: PublishPlan, faults) -> DeliveryRecord:
        """The costing stage of :meth:`publish` (one ``route`` span)."""
        event, match, q, decision, root, _flooded = plan
        if decision.method is DeliveryMethod.NOT_SENT:
            return DeliveryRecord(event, match, decision, 0.0, 0.0, 0.0)

        telemetry = self.telemetry
        if root is not None:
            route_span = telemetry.start_span(
                "route",
                trace_id=event.sequence,
                parent=root,
                method=decision.method.value,
            )
        publisher = event.publisher
        recipients = match.recipients_from(publisher)
        nodes = self.costs.routing.node_array(recipients)
        unicast_cost = self.costs.unicast_cost(publisher, nodes)
        ideal_cost = self.costs.ideal_cost(publisher, nodes)
        unicast = decision.method is DeliveryMethod.UNICAST
        repaired = undeliverable = ()
        if faults is not None:
            dead = {
                "dead_links": faults.dead_links,
                "dead_nodes": faults.dead_nodes,
            }
            if unicast:
                degraded = self.costs.degraded_unicast_cost(
                    publisher, recipients, **dead
                )
            else:
                degraded = self.costs.degraded_multicast_cost(
                    publisher,
                    self.partition.group(q).member_set,
                    interested=recipients,
                    **dead,
                )
            scheme_cost = degraded.cost
            repaired, undeliverable = degraded.repaired, degraded.unreachable
        elif unicast:
            scheme_cost = unicast_cost
        else:
            members = self.partition.group(q).member_set
            scheme_cost = self.costs.multicast_cost(publisher, members)
        record = DeliveryRecord(
            event, match, decision, scheme_cost, unicast_cost, ideal_cost,
            repaired, undeliverable,
        )
        if root is not None:
            telemetry.histogram(
                "broker.scheme_cost", help="edge-cost units per message"
            ).observe(record.scheme_cost)
            route_span.set_attribute(
                "scheme_cost", record.scheme_cost
            ).set_attribute("recipients", len(recipients)).finish()
        return record

    def run(
        self,
        points: np.ndarray,
        publishers: Sequence[int],
        collect_records: bool = False,
    ) -> Tuple[CostTally, List[DeliveryRecord]]:
        """Publish a whole workload and tally the costs.

        Returns the tally and (when ``collect_records``) the
        per-event records for detailed inspection.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] != len(publishers):
            raise ValueError(
                "points must be (m, N) with one publisher per row"
            )
        tally = CostTally()
        records: List[DeliveryRecord] = []
        for sequence, (row, publisher) in enumerate(zip(points, publishers)):
            event = Event.create(sequence, int(publisher), row)
            record = self.publish(event)
            if record.method is DeliveryMethod.NOT_SENT:
                tally.skip()
            else:
                tally.add(
                    scheme_cost=record.scheme_cost,
                    unicast_cost=record.unicast_cost,
                    ideal_cost=record.ideal_cost,
                    recipients=record.match.num_subscribers,
                    used_multicast=(
                        record.method is DeliveryMethod.MULTICAST
                    ),
                )
            if collect_records:
                records.append(record)
        return tally, records

    # -- maintenance ------------------------------------------------------------

    def durable_state(self) -> dict:
        """The broker's durable state, JSON-ready.

        Everything a restarted broker cannot re-derive: the
        subscription table (full id space, tombstones included), the
        withdrawn ids, and the partition's group assignment.  The
        S-tree, the grid's membership lists and the routing caches are
        all recomputed from these on recovery (see
        :mod:`repro.durability`).  ``texts`` holds the canonical JSON of
        ``table`` and ``partition``, so a checkpoint need not encode
        them again; each is shared with the next call until the table
        grows or a group grows, or either is replaced — values, not
        scratch space.
        """
        table, table_text = self._table_encoder.encode(self.table)
        partition, partition_text = self.partition.durable_state()
        state = {
            "table": table,
            "removed": list(self.engine.removed),
            "partition": partition,
            "texts": {"table": table_text, "partition": partition_text},
        }
        if self.sessions is not None:
            state["sessions"] = self.sessions.to_state()
        return state

    def attach_sessions(self, manager) -> None:
        """Attach a :class:`~repro.sessions.session.SessionManager`.

        Every subsequent :meth:`publish` hands its match result to the
        manager (retained-log append + per-session outstanding
        tracking) before routing, and :meth:`durable_state` includes
        the cursor table so checkpoints cover sessions too.
        """
        self.sessions = manager

    def with_policy(self, policy: DistributionPolicy) -> PubSubBroker:
        """A sibling broker sharing all state except the threshold.

        Threshold sweeps (Figure 6) reuse the expensive pieces — the
        index, the partition, the routing tables and the memoized
        group trees — and vary only the decision rule.
        """
        return PubSubBroker(
            topology=self.topology,
            table=self.table,
            partition=self.partition,
            policy=policy,
            matcher_backend=self.engine.backend,
            cost_model=self.costs,
            telemetry=(
                self.telemetry if self.telemetry.enabled else None
            ),
        )
