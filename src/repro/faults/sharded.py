"""The sharding half of the full-stack chaos harness.

:class:`ShardedChaosSimulation` holds what a run over K shard brokers
needs whether or not the shards are replicated: every publication
resolves to its owning shard via the
:class:`~repro.sharding.router.ShardRouter` (after a routing hop of
``route_delay``, so a publication can be *in flight* when ownership
changes under it), gets matched by the shard's scattered subscription
slice, and rides the reliable transport from the shard's home node.
:class:`~repro.faults.cluster.FullStackChaosSimulation` runs it: that
harness publishes, schedules the faults, and decides through its
membership detector when a home is dead.  One rule answers a dead
home: a standby succeeds it, or else the shard is excluded and
rebalanced here.  The defenses under test:

- **epoch fencing** — a publication stamped with a stale shard-map
  epoch that reaches the old owner after a cutover bounces and
  re-routes to the current owner;
- **rebalancing** — an excluded shard's subsets migrate to the
  survivors (durability snapshot handoff + journaled cutover), its
  catchall cells redistribute by consistent-hash exclusion, and
  deferred publications flush to the new owners; planned live
  migrations use the same journaled protocol, and a kill landing
  mid-copy rolls the cutover forward or back;
- **re-hand** — unacked in-flight deliveries whose sending shard died
  are re-published by the new owner; receiver dedup keeps the wire
  exactly-once.

Every published event lands in exactly one outcome bucket —
**delivered** (serviced by a live owner), **shed** (defer queue full),
or **expired** (TTL lapsed / never found an owner) — and
``delivered + shed + expired == published`` must hold with **zero
duplicate deliveries**.  On top of the ledger, the run proves
*determinism*: each serviced event's shard-local
:class:`~repro.core.matching.MatchResult` must equal the unsharded
broker's, pinned by a BLAKE2b digest over the per-event results
(compare against :func:`unsharded_match_digest`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from ..core.event import Event
from ..io import canonical_json
from ..sharding.map import ShardMap
from ..sharding.rebalance import MigrationPhase, MigrationTicket, Rebalancer
from ..sharding.router import ShardRouter
from ..telemetry.base import Telemetry
from .plan import FaultPlan
from .reliable import RetryConfig
from .verifier import (
    ChaosReport,
    ChaosSimulation,
    DeferQueue,
    EventOutcomeStats,
    OutcomeLedger,
)

__all__ = [
    "PlannedMigration",
    "ShardedStats",
    "ShardedReport",
    "ShardedChaosSimulation",
    "unsharded_match_digest",
]


@dataclass(frozen=True)
class PlannedMigration:
    """One scheduled live migration: begin at ``at``, cut over after
    ``copy_time`` (the window mid-migration crashes aim for)."""

    at: float
    q: int
    dest: int
    copy_time: float = 20.0


@dataclass
class ShardedStats(EventOutcomeStats):
    """Per-event outcome accounting plus scale-out bookkeeping."""

    #: Stale-epoch publications bounced by a live old owner.
    fenced_publishes: int = 0
    #: Publications re-routed after arriving at a non-owner.
    rerouted: int = 0
    #: In-flight (event, target) deliveries wiped at a shard kill (or,
    #: in the cluster harness, at a home crash).
    wiped_inflight: int = 0
    #: (event, target) deliveries re-handed by a new owner.
    redelivered: int = 0
    #: Dead-shard rebalances executed.
    rebalances: int = 0
    shard_kills: int = 0
    #: Live shards evacuated because a kill partitioned them away.
    stranded_shards: int = 0
    migrations_completed: int = 0
    migrations_aborted: int = 0
    #: max/mean planned shard load at run end.
    imbalance: float = 0.0
    #: Missing deliveries whose target is physically unreachable — its
    #: only attachment to the network died with a shard home.  Killing
    #: a transit node disconnects its stub domains; no protocol can
    #: deliver to them, so these misses are *explained* losses.
    stranded_misses: int = 0
    #: Missing deliveries to targets still reachable from a live home —
    #: always a protocol bug; must be zero.
    unexplained_misses: int = 0
    #: Every serviced event matched exactly as the unsharded broker.
    match_parity: bool = True
    #: BLAKE2b digest over per-event MatchResults (determinism pin).
    match_digest: str = ""


@dataclass
class ShardedReport(ChaosReport):
    """A chaos report plus the sharding ledger of the run."""

    sharded: ShardedStats = field(default_factory=ShardedStats)
    num_shards: int = 0
    final_epoch: int = 0
    routed_per_shard: Dict[int, int] = field(default_factory=dict)

    def summary_rows(self) -> List[Tuple[str, object]]:
        rows = super().summary_rows()
        s = self.sharded
        rows.extend(
            [
                ("shards", self.num_shards),
                ("final map epoch", self.final_epoch),
                (
                    "routed per shard",
                    " ".join(
                        f"{k}:{self.routed_per_shard.get(k, 0)}"
                        for k in range(self.num_shards)
                    ),
                ),
                ("shard imbalance", f"{s.imbalance:.3f}"),
                ("events delivered", s.delivered_events),
                ("events shed", s.shed_events),
                ("events expired", s.expired_events),
                ("outcome ledger balanced", "yes" if s.accounted else "NO"),
                ("fenced stale publishes", s.fenced_publishes),
                ("rerouted publishes", s.rerouted),
                ("shard kills", s.shard_kills),
                ("shards stranded by partition", s.stranded_shards),
                ("rebalances", s.rebalances),
                ("migrations completed", s.migrations_completed),
                ("migrations aborted", s.migrations_aborted),
                ("in-flight wiped at kill", s.wiped_inflight),
                ("redelivered by new owner", s.redelivered),
                ("misses to stranded nodes", s.stranded_misses),
                ("unexplained misses", s.unexplained_misses),
                ("match parity vs unsharded", "yes" if s.match_parity else "NO"),
                ("match digest", s.match_digest),
            ]
        )
        return rows


def _digest_items(items: List[List[object]]) -> str:
    body = canonical_json(items)
    return hashlib.blake2b(body.encode("utf-8"), digest_size=16).hexdigest()


def unsharded_match_digest(
    broker,
    points: np.ndarray,
    sequences: Sequence[int],
) -> str:
    """The digest a single unsharded broker produces for ``sequences``.

    Matches :attr:`ShardedStats.match_digest` exactly when every
    shard-local MatchResult equals the global one — the acceptance
    criterion for routing + scatter correctness.
    """
    points = np.asarray(points, dtype=np.float64)
    items: List[List[object]] = []
    for sequence in sorted(int(s) for s in sequences):
        event = Event.create(sequence, 0, points[sequence])
        match = broker.engine.match(event)
        q = broker.partition.locate(event.point)
        items.append(
            [
                sequence,
                sorted(int(i) for i in match.subscription_ids),
                [int(n) for n in match.subscribers],
                int(q),
            ]
        )
    return _digest_items(items)


class ShardedChaosSimulation(ChaosSimulation):
    """A chaos run over K shard brokers with live rebalancing.

    ``shard_homes`` places shard ``k`` on node ``shard_homes[k]``;
    :meth:`_kill_shard` excludes a shard whose home is gone for good.
    ``migrations`` schedules live subset migrations (see
    :class:`PlannedMigration`); kills landing between a migration's
    begin and cutover exercise the journal's roll-forward/roll-back
    semantics.  The publish path and the fault schedule belong to the
    subclass that runs it.
    """

    def __init__(
        self,
        broker,
        plan: FaultPlan,
        num_shards: int,
        shard_homes: Sequence[int],
        migrations: Sequence[PlannedMigration] = (),
        route_delay: float = 0.5,
        defer_capacity: int = 256,
        defer_ttl: float = 250.0,
        rebalance_delay: float = 30.0,
        virtual_nodes: int = 64,
        retry: Optional[RetryConfig] = None,
        transmission_time: float = 0.25,
        propagation_scale: float = 1.0,
        hop_retries: int = 4,
        telemetry: Optional[Telemetry] = None,
    ):
        self._defer = DeferQueue(int(defer_capacity), defer_ttl)
        super().__init__(
            broker,
            plan,
            reliable=True,
            retry=retry,
            transmission_time=transmission_time,
            propagation_scale=propagation_scale,
            hop_retries=hop_retries,
            telemetry=telemetry,
        )
        if len(shard_homes) != num_shards:
            raise ValueError("one home node per shard required")
        self.homes: Dict[int, int] = {
            k: int(shard_homes[k]) for k in range(num_shards)
        }
        self.map = ShardMap.plan(
            broker.partition, num_shards, virtual_nodes=virtual_nodes
        )
        self.router = ShardRouter(
            broker, self.map, homes=self.homes, telemetry=telemetry
        )
        self.rebalancer = Rebalancer(
            self.router,
            clock=lambda: self.simulator.now,
            telemetry=telemetry,
        )
        self.planned = tuple(migrations)
        self.route_delay = float(route_delay)
        self.rebalance_delay = float(rebalance_delay)
        self.sstats = ShardedStats()
        self.routed_per_shard: Dict[int, int] = {
            k: 0 for k in range(num_shards)
        }
        self.outcomes = OutcomeLedger(
            ("delivered", "shed", "expired"),
            telemetry,
            "sharding.outcomes",
            help="per-event outcomes under sharded chaos",
        )
        self._dead: Set[int] = set()
        #: sequence -> (global ids, subscribers, q, shard) at service.
        self._records: Dict[
            int, Tuple[Tuple[int, ...], Tuple[int, ...], int, int]
        ] = {}
        #: sequence -> (q, catchall cell or None) for owner recomputation.
        self._routing: Dict[int, Tuple[int, Optional[Tuple[int, ...]]]] = {}
        self._sender_shard: Dict[int, int] = {}
        self._pending_of: Dict[int, Set[int]] = {}
        self._orphans: Dict[int, Set[int]] = {}
        self.transport.on_ack = self._on_ack

    # -- bookkeeping ---------------------------------------------------------

    def _on_ack(self, target: int, key: int, time: float) -> None:
        pending = self._pending_of.get(key)
        if pending is not None:
            pending.discard(int(target))

    # -- hook overrides ------------------------------------------------------

    def _arm(self, arrival_times: Sequence[float]) -> None:
        for planned in self.planned:
            self.simulator.schedule_at(
                float(planned.at),
                lambda p=planned: self._begin_planned(p),
            )

    # -- arrival, fencing, service -------------------------------------------

    def _owner(self, sequence: int) -> int:
        """The shard the current map routes event ``sequence`` to."""
        return self.router.resolve(self._points[sequence])[1]

    def _unserviceable(self, shard: int) -> bool:
        """Whether ``shard`` cannot serve right now (the base harness
        only knows dead; the cluster adds "home down, not failed over")."""
        return shard in self._dead

    def _arrive(self, sequence: int, shard: int) -> None:
        current = self._owner(sequence)
        if current != shard:
            # Stale routing: ownership moved while the publication was
            # in flight.  A live old owner fences it (the stamped epoch
            # is below the map's); either way it re-routes.
            if shard not in self._dead:
                self.sstats.fenced_publishes += 1
                if self.telemetry.enabled:
                    self.telemetry.counter(
                        "sharding.fenced",
                        help="stale-epoch publishes bounced by old owners",
                    ).inc()
            self.sstats.rerouted += 1
            self._arrive(sequence, current)
        elif not self._unserviceable(shard):
            self.outcomes.finish(sequence, "delivered")
            self._serve(sequence, shard)
        elif self._defer.offer(sequence, self.simulator.now):
            self.sstats.deferred_events += 1
        else:
            self.outcomes.finish(sequence, "shed")

    def _serve(self, sequence: int, shard: int) -> None:
        plan = self._plan(sequence, matcher=self.router.shards[shard])
        match, q = plan.match, plan.q
        self._records[sequence] = (
            match.subscription_ids,
            match.subscribers,
            q,
            shard,
        )
        cell = (
            self.router.catchall_cell(self._points[sequence])
            if q == 0
            else None
        )
        self._routing[sequence] = (q, cell)
        self.routed_per_shard[shard] += 1
        # Who sent it and who still owes an ack: what a kill re-hands.
        self._sender_shard[sequence] = shard
        self._pending_of[sequence] = set(plan.recipients)
        self._deliver(plan, sender=self.homes[shard])

    # -- kills, rebalance, re-hand -------------------------------------------

    def _kill_shard(self, shard: int) -> None:
        shard = int(shard)
        if shard in self._dead:
            return
        self._dead.add(shard)
        self.sstats.shard_kills += 1
        if self.telemetry.enabled:
            self.telemetry.event("shard-kill", shard=shard)
        # A kill can partition the network: a *live* shard whose home
        # ends up cut off from the majority component can no longer
        # reach most subscribers, so the failure detector declares it
        # stranded and it gets evacuated exactly like a dead one.
        newly = [shard] + self._cascade_stranded()
        self._wipe_senders(lambda s: s in self._dead)
        for dead in newly:
            self.simulator.schedule_at(
                self.simulator.now + self.rebalance_delay,
                lambda s=dead: self._rebalance_away(s),
            )

    def _wipe_senders(self, stopped: Callable[[int], bool]) -> None:
        """The shards ``stopped`` names lost their volatile sender-side
        retry state: wipe the transport, count their share of it, and
        re-arm every other owner's in-flight deliveries (the durable
        intent survives on a running home).  A dead shard's become
        orphans for its heir to re-hand; a stopped live shard's wait
        for its takeover or its restart."""
        wiped = self.transport.wipe_pending()
        senders = [self._sender_shard.get(key) for key, _target in wiped]
        self.sstats.wiped_inflight += sum(
            1 for owner in senders if owner is not None and stopped(owner)
        )
        for key in sorted(self._pending_of):
            pending = self._pending_of[key]
            owner = self._sender_shard.get(key)
            if not pending or owner is None:
                continue
            if owner in self._dead:
                self._orphans[key] = set(pending)
            elif not stopped(owner):
                self.transport.publish(key, self.homes[owner], sorted(pending))

    def _cascade_stranded(self) -> List[int]:
        """Live shards partitioned away from the majority component.

        The surviving graph (dead homes removed) splits into
        components; the one holding the most live shard homes (ties:
        larger, then lowest node) is the majority.  Live shards outside
        it are marked dead and returned for evacuation.
        """
        live = [
            s for s in range(self.map.num_shards) if s not in self._dead
        ]
        if not live:
            return []
        components = list(
            nx.connected_components(
                self.transport.surviving.without(
                    {self.homes[s] for s in self._dead}, ()
                )
            )
        )
        if not components:
            return []
        majority = max(
            components,
            key=lambda c: (
                sum(1 for s in live if self.homes[s] in c),
                len(c),
                -min(c),
            ),
        )
        stranded = [s for s in live if self.homes[s] not in majority]
        for s in stranded:
            self._dead.add(s)
            self.sstats.stranded_shards += 1
            if self.telemetry.enabled:
                self.telemetry.event("shard-stranded", shard=s)
        return stranded

    def _rebalance_away(self, shard: int) -> None:
        live = [
            s for s in range(self.map.num_shards) if s not in self._dead
        ]
        if not live:
            return  # nothing to inherit; everything defers until expiry
        # Catchall cells redistribute by ring exclusion; the survivors
        # re-scatter so their matching stays exact for inherited cells.
        self.router.mark_down(shard)
        # Subsets leave through the journaled migration protocol.  The
        # handoff snapshot comes from the dead shard's durable
        # checkpoint (its in-memory copy stands in for it here).
        while True:
            pick = self.rebalancer.propose(shard, exclude=self._dead)
            if pick is None:
                break
            q, dest = pick
            self.rebalancer.migrate(q, dest)
        self.sstats.rebalances += 1
        self._rehand_orphans()
        self._flush_deferred()

    def _owner_now(self, sequence: int) -> Optional[int]:
        q, cell = self._routing[sequence]
        if q > 0:
            return self.map.owner_of_subset(q)
        try:
            return self.map.owner_of_cell(cell, exclude=self.router.down)
        except ValueError:
            return None

    def _rehand_orphans(self) -> None:
        remaining: Dict[int, Set[int]] = {}
        for key in sorted(self._orphans):
            pending = self._pending_of.get(key, set())
            if not pending:
                continue
            owner = self._owner_now(key)
            if owner is None or owner in self._dead:
                remaining[key] = set(pending)
                continue
            # Receivers that got the data before the kill dedup and
            # re-ack, so the exactly-once ledger holds across re-hand.
            self._sender_shard[key] = owner
            self.transport.publish(key, self.homes[owner], sorted(pending))
            self.sstats.redelivered += len(pending)
            if self.telemetry.enabled:
                self.telemetry.counter(
                    "sharding.redelivered",
                    help="in-flight deliveries re-handed by a new owner",
                ).inc(len(pending))
        self._orphans = remaining

    def _flush_deferred(self) -> None:
        expired, ready = self._defer.drain(
            self.simulator.now,
            lambda sequence: not self._unserviceable(self._owner(sequence)),
        )
        for sequence in expired:
            self.outcomes.finish(sequence, "expired")
        for sequence in ready:
            self.outcomes.finish(sequence, "delivered")
            self._serve(sequence, self._owner(sequence))

    # -- planned migrations ---------------------------------------------------

    def _begin_planned(self, planned: PlannedMigration) -> None:
        try:
            source = self.map.owner_of_subset(planned.q)
        except ValueError:
            return
        if (
            source == planned.dest
            or source in self._dead
            or planned.dest in self._dead
        ):
            return
        ticket = self.rebalancer.begin(planned.q, planned.dest)
        self.simulator.schedule_at(
            self.simulator.now + planned.copy_time,
            lambda t=ticket: self._complete_planned(t),
        )

    def _complete_planned(self, ticket: MigrationTicket) -> None:
        if ticket.phase is not MigrationPhase.COPYING:
            return  # recovery or a rebalance already resolved it
        if (
            ticket.dest in self._dead
            or self.map.owner_of_subset(ticket.q) != ticket.source
        ):
            # Destination died mid-copy, or a dead-shard rebalance
            # already moved the subset: the copy rolls back.
            self.rebalancer.abort(ticket)
            return
        self.rebalancer.cutover(ticket)
        self.rebalancer.finish(ticket)
        self._flush_deferred()

    # -- reporting -----------------------------------------------------------

    def _lost_nodes(self) -> Set[int]:
        """Nodes nothing routes through any more: dead shards' homes."""
        return {self.homes[s] for s in self._dead}

    def _classify_misses(self, missing) -> None:
        """Split delivery misses into stranded and unexplained.

        A target disconnected from every live home by the lost nodes is
        an *explained* loss (its only link died — see
        :attr:`ShardedStats.stranded_misses`); a miss to a
        still-reachable target is a protocol bug.
        """
        reachable: Set[int] = set()
        if missing:
            graph = self.transport.surviving.without(self._lost_nodes(), ())
            for shard, home in self.homes.items():
                if shard not in self._dead and home in graph:
                    reachable |= nx.node_connected_component(graph, home)
        for _sequence, target, _reason in missing:
            if int(target) in reachable:
                self.sstats.unexplained_misses += 1
            else:
                self.sstats.stranded_misses += 1

    def run(
        self,
        points: np.ndarray,
        publishers: Sequence[int],
        arrival_times: Optional[Sequence[float]] = None,
    ) -> ShardedReport:
        base = super().run(points, publishers, arrival_times)
        self.sstats.settle(len(points), self.outcomes, self._defer)
        self.sstats.migrations_completed = self.rebalancer.completed
        self.sstats.migrations_aborted = self.rebalancer.aborted
        self.sstats.imbalance = self.map.imbalance()
        self._classify_misses(base.missing)
        if self.telemetry.enabled:
            self.telemetry.gauge(
                "sharding.imbalance",
                help="max/mean planned shard load",
            ).set(self.sstats.imbalance)
        # Determinism pin: each serviced event's shard-local match must
        # equal the unsharded broker's, digest-for-digest.
        self.sstats.match_digest = _digest_items(
            [
                [
                    int(sequence),
                    [int(i) for i in gids],
                    [int(n) for n in subscribers],
                    int(q),
                ]
                for sequence, (gids, subscribers, q, _shard) in sorted(
                    self._records.items()
                )
            ]
        )
        self.sstats.match_parity = (
            self.sstats.match_digest
            == unsharded_match_digest(
                self.broker, self._points, self._records
            )
        )
        return ShardedReport(
            **vars(base),
            sharded=self.sstats,
            num_shards=self.map.num_shards,
            final_epoch=self.map.epoch,
            routed_per_shard=dict(self.routed_per_shard),
        )

    @property
    def serviced_sequences(self) -> List[int]:
        """Sequences that reached a shard's matcher (digest domain)."""
        return sorted(self._records)

