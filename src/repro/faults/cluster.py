"""Full-stack chaos: replicated shards under combined failures.

:class:`FullStackChaosSimulation` is the one sharded harness.  Every
publication resolves to its owning shard via the
:class:`~repro.sharding.router.ShardRouter` (after a routing hop of
``ROUTE_DELAY``, so a publication can be *in flight* when ownership
changes under it), gets matched by the shard's scattered subscription
slice, and rides the reliable transport from the shard's home node.
Every shard is a :class:`~repro.cluster.shard.ReplicatedShard` (primary
+ ranked standby set, log shipping, epoch fencing), and a cluster-wide
:class:`~repro.cluster.membership.Membership` detector decides when a
shard home is gone.  One rule answers a dead home: it is succeeded by
a standby, or else excluded and rebalanced.  The defenses under test:

- **fenced standby takeover** — the successor replays the shipped WAL
  via :func:`~repro.cluster.journal.recover_shard`, re-homes the
  sub-broker, reconciles its entry set against the authoritative
  scatter, and stamps everything with a cluster epoch so the deposed
  primary's writes bounce;
- **epoch fencing** — a publication stamped with a stale shard-map
  epoch that reaches the old owner after a cutover bounces and
  re-routes to the current owner;
- **rebalancing** — a *killed* home with no standby left is
  ring-excluded once the view confirms it dead (``--standbys 0`` is
  the plain sharded harness): its subsets migrate to the survivors
  (durability snapshot handoff + journaled cutover), its catchall
  cells redistribute by consistent-hash exclusion, and deferred
  publications flush to the new owners; planned live migrations use
  the same journaled protocol, and a kill landing mid-copy rolls the
  cutover forward or back;
- **re-hand** — unacked in-flight deliveries whose sending shard died
  are re-published by the new owner; receiver dedup keeps the wire
  exactly-once;
- **restart** — a home that merely crashes keeps its role and its
  storage, and at the window's end restarts in place from its own
  WAL: the takeover step with the home as its own candidate; a
  partitioned home nobody can succeed is waited for and served again
  once it is heard.

With one shard the harness verifies a whole broker: killed,
partitioned, killed after its first standby fell behind, or crashed
and restarted (``kill`` / ``partition`` / ``catchup`` / ``restart``).

The adversary combines, in one run: planned live migrations, permanent
shard-home kills, network partitions (the deposed primary keeps
running and must be fenced, not killed), mid-copy migration crashes,
home crashes that may damage the home's WAL, and torn-tail WAL
corruption on a standby that is later promoted.  The invariants are
absolute.  Every published event lands in exactly one outcome bucket —
**delivered** (serviced by a live owner), **shed** (defer queue full),
or **expired** (TTL lapsed / never found an owner) — and
``delivered + shed + expired == published`` must hold with zero
duplicate deliveries and zero *unexplained* misses (a miss is
explained only by physical disconnection from every live home).  On
top of the ledger, the run proves *determinism*: each serviced event's
shard-local :class:`~repro.core.matching.MatchResult` must equal the
unsharded broker's, pinned by a BLAKE2b digest over the per-event
results (compare against :func:`unsharded_match_digest`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from ..cluster.membership import MemberState, Membership, MembershipConfig
from ..cluster.shard import ReplicatedShard
from ..core.event import Event
from ..io import canonical_json
from ..overload.breaker import BreakerBoard, BreakerConfig
from ..replication.epoch import EpochDirectory
from ..replication.group import WalFactory
from ..replication.shipping import ShippingConfig, ShippingStats
from ..sharding.map import ShardMap
from ..sharding.rebalance import MigrationPhase, MigrationTicket, Rebalancer
from ..sharding.router import ShardRouter
from ..telemetry.base import Telemetry, tally
from .plan import BrokerCrash, BrokerKill, FaultPlan, LinkOutage, WalCorruption
from .verifier import (
    ChaosReport,
    ChaosSimulation,
    DeferQueue,
    EventOutcomeStats,
    OutcomeLedger,
)

__all__ = [
    "PlannedMigration",
    "StandbyWALCorruption",
    "ShardedStats",
    "ClusterStats",
    "ClusterReport",
    "FullStackChaosSimulation",
    "build_cluster_plan",
    "unsharded_match_digest",
]

#: The combined-chaos scenarios the harness knows how to build.
CLUSTER_SCENARIOS = (
    "migrate",
    "kill",
    "partition",
    "catchup",
    "double-kill",
    "migrate-under-kill",
    "restart",
)

#: Simulated time the cluster tick runs past the last arrival, so
#: retries, takeovers and rebalances finish before the ledger closes.
SETTLE = 250.0
#: The routing hop from an event's arrival to its owning shard: a
#: publication can be in flight when ownership changes under it.
ROUTE_DELAY = 0.5
#: Events whose owner cannot serve wait in one defer queue: shed when
#: it is full, expired after ``DEFER_TTL``.
DEFER_CAPACITY = 256
DEFER_TTL = 250.0
#: Wait from a shard's exclusion to migrating its subsets away.
REBALANCE_DELAY = 30.0
#: A planned migration's copy phase, begin to cutover.
COPY_TIME = 20.0


@dataclass(frozen=True)
class StandbyWALCorruption:
    """Tear ``nbytes`` off the tail of one shard's first live standby
    WAL at ``at`` — the standby must scrub, resync, and still be able
    to take over later."""

    at: float
    shard: int
    nbytes: int = 7


@dataclass
class ClusterStats:
    """What the membership + failover machinery did during one run."""

    #: Fenced standby takeovers completed.
    takeovers: int = tally("shard takeovers completed")
    #: Recovery digest per takeover (the determinism witness).
    takeover_digests: List[str] = field(default_factory=list)
    #: Silence-to-takeover latency per takeover (simulated time).
    takeover_durations: List[float] = field(default_factory=list)
    #: Times the last-resort ring-exclusion path ran (no standby left).
    ring_exclusions: int = tally("shards abandoned to ring exclusion")
    #: Publications that arrived addressed to a deposed primary.
    failover_reroutes: int = tally("publishes re-resolved after a takeover")
    #: Of those, rejected by a live-but-fenced old home's epoch check.
    stale_publish_rejections: int = 0
    #: Post-takeover write probes admitted at the new primary.
    probe_admissions: int = 0
    #: Post-takeover write probes fenced at the old primary.
    probe_rejections: int = 0
    #: Entries added/withdrawn reconciling recovery vs the scatter.
    entries_reconciled: int = 0
    #: (event, target) deliveries re-handed by a fresh primary.
    redelivered_after_takeover: int = 0
    #: Torn-tail corruptions injected on standby WALs.
    wal_corruptions: int = 0
    #: Standby WALs scrubbed (repair + stream invalidation + resync).
    wal_scrubs: int = 0
    #: Stale-epoch replication messages rejected (zombie fencing).
    stale_rejections: int = 0
    #: Writes rejected by per-node epoch fencing.
    fenced_writes: int = 0
    #: Replication heartbeats sent by believing-primaries.
    heartbeats: int = 0
    #: Final membership view epoch (one counter over all changes).
    cluster_epoch: int = 0
    members_alive: int = 0
    members_suspect: int = 0
    members_dead: int = 0
    suspicions: int = 0
    recoveries: int = 0
    confirmed_deaths: int = 0
    #: Heartbeats from nodes the view already confirmed dead.
    stale_heartbeats: int = 0
    #: Crash windows that opened on a shard's acting home.
    home_crashes: int = 0
    #: In-place restarts of a crashed home from its own WAL.
    restarts: int = 0
    #: Recovery digest per restart (the determinism witness).
    restart_digests: List[str] = field(default_factory=list)
    #: (event, target) deliveries a restarted home re-handed.
    redelivered_after_restart: int = 0
    #: WAL bytes the restarts truncated as torn or corrupt.
    restart_truncated: int = 0
    #: Corruptions of a crashed home's own WAL the plan applied.
    home_wal_corruptions: int = 0


@dataclass(frozen=True)
class PlannedMigration:
    """One scheduled live migration: begin at ``at``, cut over after
    ``copy_time`` (the window mid-migration crashes aim for)."""

    at: float
    q: int
    dest: int
    copy_time: float = COPY_TIME


@dataclass
class ShardedStats(EventOutcomeStats):
    """Per-event outcome accounting plus scale-out bookkeeping."""

    #: Stale-epoch publications bounced by a live old owner.
    fenced_publishes: int = tally(
        "stale-epoch publishes bounced by old owners", name="fenced"
    )
    #: Publications re-routed after arriving at a non-owner.
    rerouted: int = 0
    #: In-flight (event, target) deliveries wiped at a shard kill or a
    #: home crash.
    wiped_inflight: int = 0
    #: (event, target) deliveries re-handed by a new owner.
    redelivered: int = tally("in-flight deliveries re-handed by a new owner")
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
class ClusterReport(ChaosReport):
    """A chaos report plus the sharding and the cluster/replication
    ledgers of the run."""

    sharded: ShardedStats = field(default_factory=ShardedStats)
    num_shards: int = 0
    final_epoch: int = 0
    routed_per_shard: Dict[int, int] = field(default_factory=dict)
    cluster: ClusterStats = field(default_factory=ClusterStats)
    shipping: ShippingStats = field(default_factory=ShippingStats)

    def summary_rows(self) -> List[Tuple[str, object]]:
        rows = super().summary_rows()
        s = self.sharded
        c = self.cluster
        durations = (
            " ".join(f"{d:.1f}" for d in c.takeover_durations) or "-"
        )
        digests = (
            " ".join(d[:8] for d in c.takeover_digests) or "-"
        )
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
                ("cluster epoch", c.cluster_epoch),
                (
                    "members alive/suspect/dead",
                    f"{c.members_alive}/{c.members_suspect}/{c.members_dead}",
                ),
                ("suspicions", c.suspicions),
                ("suspect recoveries", c.recoveries),
                ("confirmed deaths", c.confirmed_deaths),
                ("stale membership heartbeats", c.stale_heartbeats),
                ("takeovers", c.takeovers),
                ("takeover durations", durations),
                ("takeover digests", digests),
                ("ring-exclusion fallbacks", c.ring_exclusions),
                ("publishes addressed to deposed primary", c.failover_reroutes),
                ("stale publishes rejected", c.stale_publish_rejections),
                (
                    "write probes admitted/fenced",
                    f"{c.probe_admissions}/{c.probe_rejections}",
                ),
                ("entries reconciled at takeover", c.entries_reconciled),
                ("re-handed after takeover", c.redelivered_after_takeover),
                (
                    "standby WAL corruptions/scrubs",
                    f"{c.wal_corruptions}/{c.wal_scrubs}",
                ),
                ("stale replication messages rejected", c.stale_rejections),
                ("epoch-fenced writes", c.fenced_writes),
                ("replication heartbeats", c.heartbeats),
                ("shipped batches", self.shipping.batches),
                ("shipped ops", self.shipping.ops_shipped),
                ("shipping acks", self.shipping.acks),
                ("anti-entropy catch-ups", self.shipping.catchups),
                ("shipping backpressure skips", self.shipping.backpressure_skips),
            ]
        )
        if c.home_crashes:
            digests = " ".join(d[:8] for d in c.restart_digests) or "-"
            rows += [
                ("home crashes/restarts", f"{c.home_crashes}/{c.restarts}"),
                ("restart digests", digests),
                ("re-handed after restart", c.redelivered_after_restart),
                ("home WAL corruptions", c.home_wal_corruptions),
                ("wal bytes truncated at restart", c.restart_truncated),
            ]
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


class FullStackChaosSimulation(ChaosSimulation):
    """A chaos run over K replicated shard brokers with live rebalancing.

    ``shard_homes`` places shard ``k`` on node ``shard_homes[k]``, and
    ``standby_map`` maps shard id → ranked standby nodes (see
    :func:`build_cluster_plan`); a list may be empty.  ``migrations``
    schedules live subset migrations (see :class:`PlannedMigration`);
    kills landing between a migration's begin and cutover exercise the
    journal's roll-forward/roll-back semantics.  A cluster tick loop
    (cadence ``membership.heartbeat_interval``) feeds the membership
    detector from the fault injector's ground truth — a node is *heard*
    iff it is up and inside the majority network component, a
    deterministic stand-in for gossip — drives per-shard replication
    heartbeats and shipping flushes, and reacts to confirmed deaths: a
    dead standby just leaves the candidate list, a dead acting primary
    triggers :meth:`_fail_over`, which excludes the shard
    (:meth:`_kill_shard`) when nobody can succeed a killed home.  A
    crash window on a shard home is a :meth:`_crash` /
    :meth:`_restart` cycle.
    """

    def __init__(
        self,
        broker,
        plan: FaultPlan,
        standby_map: Dict[int, Sequence[int]],
        num_shards: int,
        shard_homes: Sequence[int],
        migrations: Sequence[PlannedMigration] = (),
        corruptions: Sequence[StandbyWALCorruption] = (),
        shipping: Optional[ShippingConfig] = None,
        checkpoint_every: int = 64,
        wal_factory: Optional[WalFactory] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self._defer = DeferQueue(DEFER_CAPACITY, DEFER_TTL)
        super().__init__(broker, plan, telemetry=telemetry)
        if len(shard_homes) != num_shards:
            raise ValueError("one home node per shard required")
        self.homes: Dict[int, int] = {
            k: int(shard_homes[k]) for k in range(num_shards)
        }
        self.map = ShardMap.plan(broker.partition, num_shards)
        self.router = ShardRouter(
            broker, self.map, homes=self.homes, telemetry=telemetry
        )
        self.rebalancer = Rebalancer(
            self.router,
            clock=lambda: self.simulator.now,
            telemetry=telemetry,
        )
        self.planned = tuple(migrations)
        self.corruptions = tuple(corruptions)
        self.sstats = ShardedStats()
        self.telemetry.expose_tallies("sharding", self.sstats)
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
        self.cstats = ClusterStats()
        self.telemetry.expose_tallies("cluster", self.cstats)
        #: One cluster-wide directory: takeovers chain old → new home.
        self.directory = EpochDirectory()
        self.transport.directory = self.directory
        self.shipping_breakers = BreakerBoard(
            BreakerConfig(failure_threshold=3, reset_timeout=120.0)
        )
        alive = lambda node, time: not self.injector.node_down(node, time)
        self.replicated: Dict[int, ReplicatedShard] = {}
        for k in range(num_shards):
            self.replicated[k] = ReplicatedShard(
                self.router.shards[k],
                self.homes[k],
                [int(s) for s in standby_map[k]],
                self.simulator,
                send=self._ship,
                wal_factory=wal_factory,
                shipping=shipping,
                alive=alive,
                checkpoint_every=checkpoint_every,
                breakers=self.shipping_breakers,
                telemetry=telemetry,
            )
            # Bootstrap: the scatter that populated the shard predates
            # the journal taps, so seed every standby with a snapshot.
            self.replicated[k].journal.checkpoint()
        nodes = sorted(
            {int(h) for h in self.homes.values()}
            | {int(s) for k in range(num_shards) for s in standby_map[k]}
        )
        self.membership = Membership(
            nodes, MembershipConfig(), now=0.0
        )
        #: ``(dead_nodes, dead_links)`` -> the majority component.
        self._majority: Dict[tuple, FrozenSet[int]] = {}
        #: Homes confirmed dead that nobody could succeed: waited for.
        self._awaited: Set[int] = set()

    # -- replication wire ----------------------------------------------------

    def _ship(self, source: int, target: int, payload: Dict) -> None:
        """Replication messages ride the same faulty packet network as
        publications — loss, outages and kills starve a zombie primary
        of exactly the acks that would have told it the truth."""
        self.network.send_unicast(
            source,
            target,
            lambda node, time, p=payload: self._deliver_replication(
                node, p, time
            ),
        )

    def _deliver_replication(
        self, node: int, payload: Dict, time: float
    ) -> None:
        shard = self.replicated.get(int(payload.get("shard", -1)))
        if shard is not None:
            shard.deliver(node, payload, time)

    # -- scheduling ----------------------------------------------------------

    def _arm(self, arrival_times: Sequence[float]) -> None:
        for kill in self.plan.broker_kills:
            self.simulator.schedule_at(
                float(kill.at),
                lambda n=int(kill.node): self._node_killed(n),
            )
        for index, crash in enumerate(self.plan.crashes):
            node = int(crash.node)
            self.simulator.schedule_at(
                float(crash.start), lambda n=node, i=index: self._crash(n, i)
            )
            self.simulator.schedule_at(
                float(crash.end), lambda n=node: self._restart(n)
            )
        for planned in self.planned:
            self.simulator.schedule_at(
                float(planned.at),
                lambda p=planned: self._begin_planned(p),
            )
        for corruption in self.corruptions:
            self.simulator.schedule_at(
                float(corruption.at),
                lambda c=corruption: self._corrupt_standby(c),
            )
        end = (
            float(arrival_times[-1]) if len(arrival_times) else 0.0
        ) + SETTLE
        interval = self.membership.config.heartbeat_interval
        t = interval
        while t <= end:
            self.simulator.schedule_at(t, self._cluster_tick)
            t += interval

    # -- the cluster clock ---------------------------------------------------

    def _majority_component(self, state) -> FrozenSet[int]:
        """Largest surviving network component, weighted by how many
        cluster members it holds (ties: size, then lowest node).

        A function of the fault state alone — the member list is fixed
        — so it is worked out once per state, on the surviving graph
        the transport's detours already use.
        """
        key = (state.dead_nodes, state.dead_links)
        majority = self._majority.get(key)
        if majority is None:
            members = set(self.membership.nodes)
            majority = self._majority[key] = frozenset(
                max(
                    nx.connected_components(
                        self.transport.surviving.without(*key)
                    ),
                    key=lambda c: (len(c & members), len(c), -min(c)),
                    default=(),
                )
            )
        return majority

    def _cluster_tick(self) -> None:
        now = self.simulator.now
        state = self.injector.state_at(now)
        component = None if state.clear else self._majority_component(state)
        # Logical gossip: a member is heard iff it is up and can reach
        # the majority of the cluster.  A partitioned-away node goes
        # silent here while still running (and shipping) — exactly the
        # zombie the epoch fencing must catch later.
        for node in self.membership.nodes:
            up = not self.injector.node_down(node, now)
            if up and (component is None or node in component):
                dead = self.membership.state_of(node) is MemberState.DEAD
                if dead and node in self._awaited:
                    # Confirmed dead, yet nobody deposed it: the
                    # partition healed, and the home is no zombie.
                    self._awaited.discard(node)
                    self.membership.rejoin(node, now)
                else:
                    self.membership.heard(node, now)
        for shard in self.replicated.values():
            shard.tick(now)
        for node, mstate in self.membership.tick(now):
            if mstate is MemberState.DEAD:
                self._member_dead(node, now)
        if len(self._defer):
            # A healed partition raises no other signal: serve what
            # waited for a home that is reachable again.
            self._flush_deferred()
        if self.telemetry.enabled:
            self.telemetry.gauge(
                "cluster.epoch", help="membership view epoch"
            ).set(self.membership.epoch)
            for k, shard in sorted(self.replicated.items()):
                for standby in shard.ranked:
                    if standby in shard.replicas:
                        self.telemetry.gauge(
                            "cluster.shard_lag",
                            help="ops a standby is behind its shard primary",
                            shard=k,
                            standby=standby,
                        ).set(shard.lag_of(standby))

    def _member_dead(self, node: int, now: float) -> None:
        """The view confirmed ``node`` dead; react per shard.

        Only a ground-truth kill marks the replica role DEAD — a node
        confirmed dead by silence may be a partitioned zombie that
        must keep believing it is primary until fencing corrects it.
        """
        killed = self.injector.node_killed(node, now)
        for k in sorted(self.replicated):
            shard = self.replicated[k]
            if node not in shard.members:
                continue
            if killed:
                shard.mark_dead(node)
            if shard.primary == int(node) and k not in self._dead:
                self._fail_over(k, now)

    # -- failover ------------------------------------------------------------

    def _fail_over(self, shard_id: int, now: float) -> None:
        shard = self.replicated[shard_id]
        state = self.injector.state_at(now)
        component = None if state.clear else self._majority_component(state)
        eligible = (
            None if component is None else (lambda node: node in component)
        )
        old = shard.primary
        if not self.injector.node_killed(old, now) and (
            shard.candidate(now, eligible) is None
        ):
            # Nobody to promote, but the home was not killed: a crash
            # restarts it, a partition heals.  The shard waits for it
            # (its events defer until the tick hears it again) instead
            # of giving its subsets away.
            self._awaited.add(old)
            return
        with self.telemetry.span(
            "cluster.takeover", shard=shard_id, old_home=old
        ):
            epoch = self.membership.advance_epoch()
            result = shard.takeover(
                now, epoch, directory=self.directory, eligible=eligible
            )
            if result is None:
                # A killed primary and no standby left: the shard is
                # ring-excluded and the survivors rebalance its subsets.
                self.cstats.ring_exclusions += 1
                self._kill_shard(shard_id)
                return
            self._awaited.discard(old)
            self.homes[shard_id] = result.new_home
            duration = now - self.membership.last_heard(old)
            self.cstats.takeovers += 1
            self.cstats.takeover_digests.append(result.digest)
            self.cstats.takeover_durations.append(duration)
            # The shipped log can be a mutation or two behind the
            # authoritative scatter (async tail lost with the primary);
            # reconcile against the global table, journaling the fixes.
            added = 0
            for subscription in self.broker.table:
                if shard_id in self.router.shards_of_rectangle(
                    subscription.rectangle
                ):
                    if self.router.shards[shard_id].register(subscription):
                        added += 1
            stale = self.router.refresh_shard(shard_id)
            self.cstats.entries_reconciled += added + stale
            # Split-brain probes: the fresh primary admits writes at
            # the new epoch, the deposed one is fenced.
            if shard.write_allowed(result.new_home):
                self.cstats.probe_admissions += 1
            if not shard.write_allowed(old):
                self.cstats.probe_rejections += 1
            # Re-hand in-flight deliveries whose sender died with the
            # old home; receiver dedup keeps the wire exactly-once.
            for key in sorted(self._pending_of):
                pending = self._pending_of[key]
                if not pending or self._sender_shard.get(key) != shard_id:
                    continue
                self.transport.publish(
                    key, result.new_home, sorted(pending)
                )
                self.cstats.redelivered_after_takeover += len(pending)
                self.sstats.redelivered += len(pending)
            if self.telemetry.enabled:
                self.telemetry.histogram(
                    "cluster.takeover_duration",
                    help="silence-to-takeover latency",
                ).observe(duration)
                self.telemetry.event(
                    "takeover",
                    shard=shard_id,
                    old_home=old,
                    new_home=result.new_home,
                    epoch=result.epoch,
                )
        self._flush_deferred()

    # -- kills & corruption --------------------------------------------------

    def _node_killed(self, node: int) -> None:
        """Ground truth at the instant of a fail-stop kill.

        Membership still detects the death through hysteresis; here we
        only do what physics does: mark replica roles dead and wipe
        the node's volatile sender-side retry state.
        """
        node = int(node)
        if self.telemetry.enabled:
            self.telemetry.event("node-kill", node=node)
        for k in sorted(self.replicated):
            shard = self.replicated[k]
            if node in shard.members:
                shard.mark_dead(node)
        self._wipe_senders(self._home_down)
        self._evacuate(self._cascade_stranded())

    def _home_down(self, shard: int) -> bool:
        return self.injector.node_down(self.homes[shard], self.simulator.now)

    def _homed(self, node: int) -> List[int]:
        """Live shards whose acting home is ``node``."""
        return [
            k
            for k, home in sorted(self.homes.items())
            if home == node and k not in self._dead
        ]

    def _crash(self, node: int, index: int) -> None:
        """Crash window ``index`` opens on ``node``: a home loses its
        volatile sender state but keeps its roles and its storage,
        which the window's :class:`~repro.faults.plan.WalCorruption`
        may damage."""
        homed = self._homed(node)
        if not homed:
            return  # not a shard home: the injector's downtime is all
        if self.telemetry.enabled:
            self.telemetry.event("broker-crash", node=node)
        self._wipe_senders(self._home_down)
        for k in homed:
            self.cstats.home_crashes += 1
            wal = self.replicated[k].wals[node]
            for corruption in self.plan.wal_corruptions:
                if corruption.crash_index == index and corruption.apply(wal):
                    self.cstats.home_wal_corruptions += 1

    def _restart(self, node: int) -> None:
        """The crash window on ``node`` closes: every shard it still
        homes recovers in place from the home's own WAL, re-hands what
        that WAL says was in flight (receiver dedup keeps the wire
        exactly-once), and serves what waited."""
        homed = self._homed(node)
        if not homed:
            return
        now = self.simulator.now
        self.membership.rejoin(node, now)
        for k in homed:
            result = self.replicated[k].restart(
                self.membership.advance_epoch(), self.directory
            )
            self.cstats.restarts += 1
            self.cstats.restart_digests.append(result.digest)
            self.cstats.restart_truncated += result.truncated_bytes
            for entry in result.inflight.values():
                self.transport.publish(
                    entry.sequence, node, list(entry.targets)
                )
                self.cstats.redelivered_after_restart += len(entry.targets)
            if self.telemetry.enabled:
                self.telemetry.event(
                    "restart", shard=k, home=node, epoch=result.epoch
                )
        if self.telemetry.enabled:
            self.telemetry.counter(
                "broker.deferred",
                help="events a crashed home found waiting at its restart",
            ).inc(len(self._defer))
        self._flush_deferred()

    def _corrupt_standby(self, corruption: StandbyWALCorruption) -> None:
        """Tear the first live standby's WAL tail, then scrub it.

        The scrub (scan + repair + stream invalidation) models the
        standby noticing the damage on its own: its next batch draws a
        ``resync`` and an anti-entropy catch-up re-bases it, so it can
        still be promoted later.
        """
        rshard = self.replicated.get(int(corruption.shard))
        if rshard is None:
            return
        now = self.simulator.now
        for standby in rshard.ranked:
            replica = rshard.replicas.get(standby)
            if replica is None or self.injector.node_down(standby, now):
                continue
            wal = rshard.wals[standby]
            try:
                wal.tear_tail(int(corruption.nbytes))
            except ValueError:
                continue  # log too short to tear; try the next standby
            self.cstats.wal_corruptions += 1
            scan = wal.scan()
            if not scan.clean:
                wal.repair()
            replica.invalidate_stream()
            self.cstats.wal_scrubs += 1
            if self.telemetry.enabled:
                self.telemetry.event(
                    "wal-corruption",
                    shard=int(corruption.shard),
                    standby=standby,
                )
            return

    # -- exclusion, rebalance, re-hand ---------------------------------------

    def _kill_shard(self, shard: int) -> None:
        shard = int(shard)
        if shard in self._dead:
            return
        self._dead.add(shard)
        self.sstats.shard_kills += 1
        if self.telemetry.enabled:
            self.telemetry.event("shard-kill", shard=shard)
        self._evacuate([shard] + self._cascade_stranded())

    def _evacuate(self, newly: List[int]) -> None:
        """Shards ``newly`` marked dead stop sending; each is
        rebalanced away after ``REBALANCE_DELAY``."""
        if not newly:
            return
        self._wipe_senders(lambda s: s in self._dead)
        for dead in newly:
            self.simulator.schedule_at(
                self.simulator.now + REBALANCE_DELAY,
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
        """Live shards a kill cut off from the majority component.

        Any kill can strand a shard, its home's or another node's: a
        live shard whose home is outside the fault state's majority
        component (:meth:`_majority_component`, one per state) can no
        longer reach most subscribers, so it is marked dead and
        returned for evacuation exactly like a dead one.  A home that
        is itself lost is failover's business, not stranding's.
        """
        majority = self._majority_component(
            self.injector.state_at(self.simulator.now)
        )
        lost = self._lost_nodes()
        stranded = [
            s
            for s in range(self.map.num_shards)
            if s not in self._dead
            and self.homes[s] not in majority
            and self.homes[s] not in lost
        ]
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

    # -- routing, fencing, service ------------------------------------------

    def _owner(self, sequence: int) -> int:
        """The shard the current map routes event ``sequence`` to."""
        return self.router.resolve(self._points[sequence])[1]

    def _unserviceable(self, shard: int) -> bool:
        """Whether ``shard`` cannot serve right now: it was excluded, or
        its acting home is down but not failed over yet (the membership
        detection window).  Its events defer instead of being served
        from a dead node; the post-takeover flush drains them."""
        return shard in self._dead or self._isolated(
            self.homes[shard], self.simulator.now
        )

    def _publish_event(self, sequence: int) -> None:
        shard = self._owner(sequence)
        home = self.homes.get(shard)
        rshard = self.replicated.get(shard)
        cluster_epoch = rshard.epoch if rshard is not None else 0
        self.simulator.schedule_at(
            self.simulator.now + ROUTE_DELAY,
            lambda: self._arrive_cluster(
                sequence, shard, home, cluster_epoch
            ),
        )

    def _arrive_cluster(
        self,
        sequence: int,
        shard: int,
        home: Optional[int],
        cluster_epoch: int,
    ) -> None:
        rshard = self.replicated.get(shard)
        if (
            rshard is not None
            and shard not in self._dead
            and (
                self.homes.get(shard) != home
                or rshard.epoch != cluster_epoch
            )
        ):
            # The publication addressed a primary that was deposed
            # while it was in flight; re-resolution retries it against
            # the new one.  A live old home actively rejects it first
            # (its epoch check), which is what the probe counts.
            self.cstats.failover_reroutes += 1
            if home is not None and not rshard.write_allowed(home):
                self.cstats.stale_publish_rejections += 1
        self._arrive(sequence, shard)

    def _arrive(self, sequence: int, shard: int) -> None:
        current = self._owner(sequence)
        if current != shard:
            # Stale routing: ownership moved while the publication was
            # in flight.  A live old owner fences it (the stamped epoch
            # is below the map's); either way it re-routes.
            if shard not in self._dead:
                self.sstats.fenced_publishes += 1
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

    # -- durability taps -----------------------------------------------------

    def _record_intent(
        self,
        sequence: int,
        publisher: int,
        recipients: Sequence[int],
        method: str,
        group: int,
    ) -> None:
        record = self._records.get(sequence)
        if record is None:
            return
        shard = record[3]
        rshard = self.replicated.get(shard)
        if rshard is None or shard in self._dead:
            return
        if self.injector.node_down(
            self.homes.get(shard, -1), self.simulator.now
        ):
            return
        rshard.journal.log_publish(
            sequence, publisher, recipients, method=method, group=group
        )

    def _on_ack(self, target: int, key: int, time: float) -> None:
        pending = self._pending_of.get(key)
        if pending is not None:
            pending.discard(int(target))
        shard = self._sender_shard.get(key)
        if shard is None or shard in self._dead:
            return
        rshard = self.replicated.get(shard)
        if rshard is None:
            return
        if self.injector.node_down(self.homes.get(shard, -1), time):
            return
        rshard.journal.log_delivery(key, target)

    # -- reporting -----------------------------------------------------------

    def _lost_nodes(self) -> Set[int]:
        """Nodes nothing routes through any more: excluded shards'
        homes, and every node a ground-truth kill took."""
        # With failover a killed node usually is not any shard's current
        # home, so ground-truth kills count too: a stub whose only
        # gateway transit node was killed is physically unreachable
        # from any live home — an explained loss, not a protocol bug.
        now = self.simulator.now
        return {self.homes[s] for s in self._dead} | {
            n
            for n in self.broker.topology.graph.nodes
            if self.injector.node_killed(n, now)
        }

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
    ) -> ClusterReport:
        finished_at = self._simulate(points, publishers, arrival_times)
        self.sstats.settle(len(points), self.outcomes, self._defer)
        self.sstats.migrations_completed = self.rebalancer.completed
        self.sstats.migrations_aborted = self.rebalancer.aborted
        self.sstats.imbalance = self.map.imbalance()
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
        shipping = ShippingStats()
        for k in sorted(self.replicated):
            shard = self.replicated[k]
            shipping += shard.shipping_stats()
            stats = shard.finalize_stats()
            self.cstats.heartbeats += stats.sent.heartbeat
            self.cstats.stale_rejections += stats.stale_rejections
            self.cstats.fenced_writes += stats.fenced_writes
        view = self.membership.view()
        self.cstats.cluster_epoch = self.membership.epoch
        self.cstats.members_alive = len(view.alive)
        self.cstats.members_suspect = len(view.suspect)
        self.cstats.members_dead = len(view.dead)
        self.cstats.suspicions = self.membership.suspicions
        self.cstats.recoveries = self.membership.recoveries
        self.cstats.confirmed_deaths = self.membership.confirmed_deaths
        self.cstats.stale_heartbeats = self.membership.stale_heartbeats
        if self.telemetry.enabled:
            self.telemetry.gauge(
                "cluster.epoch", help="membership view epoch"
            ).set(self.membership.epoch)
        report = self._report(
            finished_at,
            ClusterReport,
            sharded=self.sstats,
            num_shards=self.map.num_shards,
            final_epoch=self.map.epoch,
            routed_per_shard=dict(self.routed_per_shard),
            cluster=self.cstats,
            shipping=shipping,
        )
        self._classify_misses(report.missing)
        return report

    @property
    def serviced_sequences(self) -> List[int]:
        """Sequences that reached a shard's matcher (digest domain)."""
        return sorted(self._records)


def build_cluster_plan(
    topology,
    shard_map: ShardMap,
    seed: int = 2003,
    loss: float = 0.05,
    duplicate: float = 0.0,
    scenario: str = "kill",
    horizon: float = 300.0,
    standby_count: int = 2,
    migrations: int = 2,
    crashes: int = 2,
    crash_length: float = 100.0,
    corrupt: Optional[str] = None,
) -> Tuple[
    FaultPlan,
    List[int],
    Dict[int, List[int]],
    List[PlannedMigration],
    Tuple[StandbyWALCorruption, ...],
]:
    """A combined-chaos plan + placement for one cluster scenario.

    Shard homes are the first K transit nodes; each shard's standbys
    are its home's topology-ranked replica candidates
    (:meth:`~repro.network.topology.Topology.replica_candidates`),
    preferring transit nodes that host no shard home.  Every scenario
    additionally tears the tail of the target shard's first standby
    WAL at 25% of the horizon — the promoted standby must have scrubbed
    and caught back up by the time it is needed.  A killed home is
    succeeded by its first live standby or, with none, ring-excluded
    and rebalanced onto the survivors.  ``scenario``:

    - ``"migrate"`` — no kill: ``migrations`` live subset migrations
      spread over the horizon (heaviest subsets first, each to the
      initially least-loaded other shard).
    - ``"kill"`` — the busiest shard's home is permanently killed at
      40% of the horizon; its first standby takes over.
    - ``"partition"`` — every incident link of the busiest shard's
      home is dead during ``[0.35, 0.7)`` of the horizon; the cluster
      confirms it dead and fails over, and the *still-running* old
      primary must be fenced when the partition heals.
    - ``"catchup"`` — the busiest shard's first standby is isolated
      during ``[0.2, 0.5)`` of the horizon (falling behind the shipping
      stream) and that shard's home is killed at 60%.  Pair with a
      small ``ShippingConfig.retain_ops`` so the laggard can only come
      back through an anti-entropy catch-up.
    - ``"double-kill"`` — the two busiest shards' homes are killed at
      40% and 55% of the horizon (two independent takeovers).
    - ``"migrate-under-kill"`` — the busiest shard's heaviest subset
      starts migrating at 35% of the horizon and the *source* home is
      killed halfway through the copy: the journaled cutover completes
      onto the destination while the shard's successor takes what
      remains.
    - ``"restart"`` — ``crashes`` windows of ``crash_length``, spread
      evenly over the horizon, crash the busiest shard's home; each
      restarts it in place from its own WAL.  ``corrupt``
      (``"torn-tail"`` or ``"bit-flip"``) damages that WAL at every
      crash, so each restart must also repair the log.

    Returns ``(plan, homes, standby_map, planned_migrations,
    corruptions)``.
    """
    if scenario not in CLUSTER_SCENARIOS:
        raise ValueError(
            f"scenario must be one of {', '.join(CLUSTER_SCENARIOS)} "
            f"(got {scenario!r})"
        )
    if standby_count < 0:
        raise ValueError(
            f"standby_count must be >= 0 (got {standby_count})"
        )
    transit = sorted(int(n) for n in topology.all_transit_nodes())
    num_shards = shard_map.num_shards
    if num_shards > len(transit):
        raise ValueError(
            f"cannot place {num_shards} shards on a topology with "
            f"{len(transit)} transit nodes"
        )
    if len(transit) < 2:
        raise ValueError(
            "a replicated cluster needs at least two transit nodes "
            f"(got {len(transit)})"
        )
    homes = transit[:num_shards]
    home_set = set(homes)
    standby_map: Dict[int, List[int]] = {}
    for k, home in enumerate(homes):
        ranked = topology.replica_candidates(home, len(transit) - 1)
        preferred = [n for n in ranked if n not in home_set]
        fallback = [n for n in ranked if n in home_set]
        if preferred:
            # Rotate by shard id so co-ranked shards spread their
            # first-choice standby instead of all promoting onto the
            # same node after a correlated failure.
            shift = k % len(preferred)
            preferred = preferred[shift:] + preferred[:shift]
        standby_map[k] = (preferred + fallback)[:standby_count]
    loads = shard_map.shard_loads()
    busiest = max(range(num_shards), key=lambda s: (loads[s], -s))
    kills: Tuple[BrokerKill, ...] = ()
    outages: Tuple[LinkOutage, ...] = ()
    windows: Tuple[BrokerCrash, ...] = ()
    planned: List[PlannedMigration] = []

    def isolated(node: int, start: float, end: float) -> Tuple[LinkOutage, ...]:
        """Every link of ``node`` dead during ``[start, end)`` x horizon."""
        return tuple(
            LinkOutage(node, int(n), start * horizon, end * horizon)
            for n in sorted(topology.graph.neighbors(node))
        )

    def migration(q: int, at: float) -> PlannedMigration:
        """Subset ``q`` to the initially least-loaded other shard."""
        owner = shard_map.owner_of_subset(q)
        others = [s for s in range(num_shards) if s != owner]
        dest = min(others, key=lambda s: (loads[s], s))
        return PlannedMigration(at=at, q=q, dest=dest)

    if scenario == "migrate":
        ranked = sorted(
            (q for s in range(num_shards) for q in shard_map.subsets_of(s)),
            key=lambda q: (-shard_map.load_of_subset(q), q),
        )
        count = min(migrations, len(ranked)) if num_shards > 1 else 0
        planned = [
            migration(ranked[i], horizon * (i + 1) / (migrations + 1))
            for i in range(count)
        ]
    elif scenario == "kill":
        kills = (BrokerKill(node=homes[busiest], at=0.4 * horizon),)
    elif scenario == "partition":
        outages = isolated(homes[busiest], 0.35, 0.7)
    elif scenario == "catchup":
        if not standby_map[busiest]:
            raise ValueError("catchup needs at least one standby")
        outages = isolated(standby_map[busiest][0], 0.2, 0.5)
        kills = (BrokerKill(node=homes[busiest], at=0.6 * horizon),)
    elif scenario == "double-kill":
        ranked_shards = sorted(
            range(num_shards), key=lambda s: (-loads[s], s)
        )
        if len(ranked_shards) < 2:
            raise ValueError(
                "double-kill needs at least two shards "
                f"(got {num_shards})"
            )
        kills = (
            BrokerKill(node=homes[ranked_shards[0]], at=0.4 * horizon),
            BrokerKill(node=homes[ranked_shards[1]], at=0.55 * horizon),
        )
    elif scenario == "restart":
        if crashes < 1:
            raise ValueError(f"crashes must be >= 1 (got {crashes})")
        span = horizon / (crashes + 1)
        if crash_length >= span:
            raise ValueError(
                f"crash_length {crash_length} leaves no up-time between "
                f"windows spaced {span:.1f} apart; shorten the crashes or "
                "stretch the horizon"
            )
        windows = tuple(
            BrokerCrash(
                node=homes[busiest],
                start=span * (index + 1),
                end=span * (index + 1) + crash_length,
            )
            for index in range(crashes)
        )
    else:  # migrate-under-kill
        subsets = shard_map.subsets_of(busiest)
        q = max(subsets, key=lambda s: (shard_map.load_of_subset(s), -s))
        if num_shards < 2:
            raise ValueError(
                "migrate-under-kill needs at least two shards "
                f"(got {num_shards})"
            )
        at = 0.35 * horizon
        planned = [migration(q, at)]
        kills = (
            BrokerKill(node=homes[busiest], at=at + COPY_TIME / 2.0),
        )
    corruptions = (StandbyWALCorruption(at=0.25 * horizon, shard=busiest),)
    plan = FaultPlan(
        seed=seed,
        default_loss=loss,
        default_duplicate=duplicate,
        outages=outages,
        crashes=windows,
        broker_kills=kills,
        wal_corruptions=tuple(
            WalCorruption(crash_index=index, kind=corrupt)
            for index in range(len(windows))
            if corrupt is not None
        ),
    )
    return plan, homes, standby_map, planned, corruptions
