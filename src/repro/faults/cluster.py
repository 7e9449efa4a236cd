"""Full-stack chaos: replicated shards under combined failures.

:class:`FullStackChaosSimulation` is the one sharded harness: it runs
the sharding half of :class:`~repro.faults.sharded.
ShardedChaosSimulation` with every shard upgraded to a
:class:`~repro.cluster.shard.ReplicatedShard` (primary + ranked
standby set, log shipping, epoch fencing) and a cluster-wide
:class:`~repro.cluster.membership.Membership` detector deciding when a
shard home is gone.  One rule answers a dead home: it is succeeded by
a standby, or else excluded and rebalanced.  A **fenced standby
takeover** replays the shipped WAL via
:func:`~repro.cluster.journal.recover_shard`, re-homes the sub-broker,
reconciles its entry set against the authoritative scatter, re-hands
unacked in-flight deliveries, and stamps everything with a cluster
epoch so the deposed primary's writes bounce.  A *killed* home with no
standby left is ring-excluded once the view confirms it dead, and the
survivors inherit its subsets (``--standbys 0`` is the plain sharded
harness).  A home that merely crashes keeps its role and its storage,
and at the window's end restarts in place from its own WAL: the
takeover step with the home as its own candidate; a partitioned home
nobody can succeed is waited for and served again once it is heard.
With one shard the harness verifies a whole broker: killed,
partitioned, killed after its first standby fell behind, or crashed
and restarted (``kill`` / ``partition`` / ``catchup`` / ``restart``).

The adversary combines, in one run: planned live migrations, permanent
shard-home kills, network partitions (the deposed primary keeps
running and must be fenced, not killed), mid-copy migration crashes,
home crashes that may
damage the home's WAL, and torn-tail WAL corruption on a standby that
is later promoted.  The invariants are
unchanged and absolute: ``delivered + shed + expired == published``
with zero duplicates, zero *unexplained* misses (a miss is explained
only by physical disconnection from every live home), and per-event
:class:`~repro.core.matching.MatchResult` digests byte-identical to an
unsharded broker that never failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from ..cluster.membership import MemberState, Membership, MembershipConfig
from ..cluster.shard import ReplicatedShard
from ..overload.breaker import BreakerBoard, BreakerConfig
from ..replication.epoch import EpochDirectory
from ..replication.group import WalFactory
from ..replication.shipping import ShippingConfig, ShippingStats
from ..sharding.map import ShardMap
from ..telemetry.base import Telemetry, tally
from .plan import BrokerCrash, BrokerKill, FaultPlan, LinkOutage, WalCorruption
from .reliable import RetryConfig
from .sharded import (
    PlannedMigration,
    ShardedChaosSimulation,
    ShardedReport,
)

__all__ = [
    "StandbyWALCorruption",
    "ClusterStats",
    "ClusterReport",
    "FullStackChaosSimulation",
    "build_cluster_plan",
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


@dataclass
class ClusterReport(ShardedReport):
    """A sharded chaos report plus the cluster/replication ledger."""

    cluster: ClusterStats = field(default_factory=ClusterStats)
    shipping: ShippingStats = field(default_factory=ShippingStats)

    def summary_rows(self) -> List[Tuple[str, object]]:
        rows = super().summary_rows()
        c = self.cluster
        durations = (
            " ".join(f"{d:.1f}" for d in c.takeover_durations) or "-"
        )
        digests = (
            " ".join(d[:8] for d in c.takeover_digests) or "-"
        )
        rows.extend(
            [
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


class FullStackChaosSimulation(ShardedChaosSimulation):
    """Sharded chaos where every shard is a replicated group.

    ``standby_map`` maps shard id → ranked standby nodes (see
    :func:`build_cluster_plan`); a list may be empty.  A cluster tick
    loop (cadence ``membership.heartbeat_interval``) feeds the
    membership detector from the fault injector's ground truth — a
    node is *heard* iff it is up and inside the majority network
    component, a deterministic stand-in for gossip — drives per-shard
    replication heartbeats and shipping flushes, and reacts to
    confirmed deaths: a dead standby just leaves the candidate list, a
    dead acting primary triggers :meth:`_fail_over`.  A crash window on
    a shard home is a :meth:`_crash` / :meth:`_restart` cycle.
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
        membership: Optional[MembershipConfig] = None,
        shipping: Optional[ShippingConfig] = None,
        checkpoint_every: int = 64,
        wal_factory: Optional[WalFactory] = None,
        settle: float = 250.0,
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
        super().__init__(
            broker,
            plan,
            num_shards=num_shards,
            shard_homes=shard_homes,
            migrations=migrations,
            route_delay=route_delay,
            defer_capacity=defer_capacity,
            defer_ttl=defer_ttl,
            rebalance_delay=rebalance_delay,
            virtual_nodes=virtual_nodes,
            retry=retry,
            transmission_time=transmission_time,
            propagation_scale=propagation_scale,
            hop_retries=hop_retries,
            telemetry=telemetry,
        )
        self.settle = float(settle)
        self.corruptions = tuple(corruptions)
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
            nodes, membership or MembershipConfig(), now=0.0
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
        super()._arm(arrival_times)
        for corruption in self.corruptions:
            self.simulator.schedule_at(
                float(corruption.at),
                lambda c=corruption: self._corrupt_standby(c),
            )
        end = (
            float(arrival_times[-1]) if len(arrival_times) else 0.0
        ) + self.settle
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

    # -- routing under failover ----------------------------------------------

    def _unserviceable(self, shard: int) -> bool:
        # A shard whose acting home is down-but-not-failed-over yet (the
        # membership detection window) defers instead of serving from a
        # dead node; the post-takeover flush drains it.
        return super()._unserviceable(shard) or self._isolated(
            self.homes[shard], self.simulator.now
        )

    def _publish_event(self, sequence: int) -> None:
        shard = self._owner(sequence)
        home = self.homes.get(shard)
        rshard = self.replicated.get(shard)
        cluster_epoch = rshard.epoch if rshard is not None else 0
        self.simulator.schedule_at(
            self.simulator.now + self.route_delay,
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
        super()._on_ack(target, key, time)
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

    def run(
        self,
        points: np.ndarray,
        publishers: Sequence[int],
        arrival_times: Optional[Sequence[float]] = None,
    ) -> ClusterReport:
        base = super().run(points, publishers, arrival_times)
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
        return ClusterReport(
            **vars(base), cluster=self.cstats, shipping=shipping
        )

    def _lost_nodes(self) -> Set[int]:
        # With failover a killed node usually is not any shard's current
        # home, so ground-truth kills count too: a stub whose only
        # gateway transit node was killed is physically unreachable
        # from any live home — an explained loss, not a protocol bug.
        now = self.simulator.now
        return super()._lost_nodes() | {
            n
            for n in self.broker.topology.graph.nodes
            if self.injector.node_killed(n, now)
        }


def build_cluster_plan(
    topology,
    shard_map: ShardMap,
    seed: int = 2003,
    loss: float = 0.05,
    duplicate: float = 0.0,
    delay: float = 0.0,
    scenario: str = "kill",
    horizon: float = 300.0,
    standby_count: int = 2,
    copy_time: float = 20.0,
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
        return PlannedMigration(at=at, q=q, dest=dest, copy_time=copy_time)

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
            BrokerKill(node=homes[busiest], at=at + copy_time / 2.0),
        )
    corruptions = (StandbyWALCorruption(at=0.25 * horizon, shard=busiest),)
    plan = FaultPlan(
        seed=seed,
        default_loss=loss,
        default_duplicate=duplicate,
        default_delay=delay,
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
