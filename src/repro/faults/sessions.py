"""Chaos harness for durable subscriber sessions.

:class:`SessionChaosSimulation` is the session-layer counterpart of
:class:`~repro.faults.verifier.ChaosSimulation`: one home broker
serving a handful of **durable sessions** at deterministic stub
subscriber nodes, publishing a workload while the scenario abuses the
subscriber side — crashes, connection flaps, a slow consumer shedding
its outbound queue, or a poison consumer rejecting every offer of
certain events.

The ledger this harness verifies is per-(event, session): every event
a *durable* session matched must end in **exactly one** of three
terminal buckets —

- ``delivered``: acked by the subscriber application (live or via
  catch-up replay after a reconnect);
- ``deadlettered``: quarantined to the
  :class:`~repro.sessions.dlq.DeadLetterQueue` after retry exhaustion,
  with a structured reason code;
- ``expired``: owed to a session whose lease ran out while detached
  (the *expired-ephemeral* leg — the one case where the guarantee is
  deliberately released, and loudly).

so ``delivered + deadlettered + expired == matched`` with **zero**
application-level duplicates, on every run, byte-identically per seed.

The harness is a :class:`~repro.faults.verifier.ChaosSimulation`: it
replays the workload through the base loop, and every event is
planned by :meth:`~repro.core.broker.PubSubBroker.plan` (match,
locate, decide, metered and traced like every other harness's).  The
plan's match charges the sessions; delivery is then per-session
unicast from the home broker through the ordinary
:class:`~repro.faults.reliable.ReliableTransport` (acks, retries,
dedup, breakers), and catch-up replay rides the same transport under a
token-bucket budget, keyed by the event's sequence, so a replayed
``deliver`` span lands in the event's trace.  A timed-out delivery
self-heals: the session demotes to CATCHING_UP and the replayer
re-derives it from the retained log — after :data:`MAX_REPLAY_REQUEUES`
such cycles the event is declared poison and dead-lettered with a
``timeout`` reason, so nothing retries forever.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.broker import PubSubBroker
from ..core.event import Event
from ..io import canonical_json
from ..overload import BoundedQueue, BreakerBoard, TokenBucket
from ..sessions import (
    DeadLetterQueue,
    RetainedEventLog,
    RetentionPolicy,
    SessionManager,
    SessionState,
    SubscriberSession,
)
from ..sessions.replay import CatchupReplayer
from ..simulation.delivery import LatencyStats
from ..telemetry.base import Telemetry
from ..telemetry.tracing import Span
from ..workload import PublicationGenerator
from .plan import BrokerCrash, FaultPlan, FaultStats
from .reliable import ReliabilityStats, RetryConfig
from .verifier import ChaosSimulation, OutcomeLedger, build_chaos_testbed

__all__ = [
    "SESSION_SCENARIOS",
    "SessionOutcome",
    "SessionReport",
    "SessionChaosSimulation",
    "select_session_nodes",
    "build_session_chaos",
]

#: The scripted subscriber-abuse scenarios the harness understands.
SESSION_SCENARIOS = ("crash", "flap", "slow-consumer", "poison")

#: Terminal buckets of the per-(event, session) ledger.
SessionOutcome = str  # "delivered" | "deadlettered" | "expired"

#: The home broker's retained log keeps at most this many events (the
#: cursor low-water mark always wins).
RETENTION = RetentionPolicy(max_events=192)
#: A retention pass runs every this many publishes (and once at the end).
RETENTION_INTERVAL = 25
#: Catch-up replay's token-bucket burst, and events read per pump.
REPLAY_BURST = 4.0
REPLAY_BATCH = 4
#: Timed-out replay cycles after which a delivery is dead-lettered.
MAX_REPLAY_REQUEUES = 3
#: The poison scenario's victim rejects every this-many-th event charged
#: to it.
POISON_EVERY = 5


@dataclass
class SessionReport:
    """Everything one session-chaos run proved about the guarantee."""

    scenario: str
    events: int
    #: Total (event, session) obligations charged to durable sessions.
    matched: int
    delivered: int
    deadlettered: int
    expired_ephemeral: int
    #: Application-level deliveries of an already-settled obligation.
    duplicates: int
    #: Obligations with no terminal bucket at simulation end.
    unsettled: List[Tuple[int, str]]
    replay_sends: int
    replay_throttled: int
    convergences: int
    demotions: int
    #: Slow-consumer events shed from the outbound queue but retained
    #: (they must reappear via replay, never be lost).
    shed_retained: int
    lease_expirations: int
    cancelled: int
    dlq_size: int
    dlq_by_reason: Dict[str, int]
    retained_events: int
    retention_truncated_bytes: int
    #: (session_id, state, durability, cursor, matched, delivered,
    #: deadlettered, expired) per session, sorted by id.
    sessions: List[Tuple[str, str, str, int, int, int, int, int]]
    latency: LatencyStats
    finished_at: float
    fault_stats: FaultStats
    #: BLAKE2b over the full outcome map + cursor table: two runs of
    #: the same seed must produce the same digest.
    digest: str
    reliability: Optional[ReliabilityStats] = None

    @property
    def accounted(self) -> bool:
        """The ledger invariant every run must satisfy."""
        return (
            not self.unsettled
            and self.delivered + self.deadlettered + self.expired_ephemeral
            == self.matched
        )

    @property
    def at_least_once(self) -> bool:
        """Accounted, and nobody saw the same event twice."""
        return self.accounted and self.duplicates == 0

    def summary_rows(self) -> List[Tuple[str, object]]:
        """(metric, value) rows for the CLI report table."""
        rows: List[Tuple[str, object]] = [
            ("scenario", self.scenario),
            ("events", self.events),
            ("matched obligations", self.matched),
            ("delivered", self.delivered),
            ("dead-lettered", self.deadlettered),
            ("expired (ephemeral demotion)", self.expired_ephemeral),
            ("unsettled", len(self.unsettled)),
            ("ledger accounted", "yes" if self.accounted else "NO"),
            ("app-level duplicates", self.duplicates),
            ("at-least-once", "yes" if self.at_least_once else "NO"),
            ("replay sends", self.replay_sends),
            ("replay throttled", self.replay_throttled),
            ("replay convergences", self.convergences),
            ("session demotions", self.demotions),
            ("shed but retained", self.shed_retained),
            ("lease expirations", self.lease_expirations),
            ("deliveries cancelled on detach", self.cancelled),
            ("dead-letter entries", self.dlq_size),
        ]
        for code in sorted(self.dlq_by_reason):
            rows.append((f"dlq: {code}", self.dlq_by_reason[code]))
        rows.extend(
            [
                ("retained events (end)", self.retained_events),
                (
                    "retention reclaimed (bytes)",
                    self.retention_truncated_bytes,
                ),
            ]
        )
        if self.reliability is not None:
            rows.extend(
                [
                    ("retries", self.reliability.retries),
                    ("gave up", self.reliability.gave_up),
                    ("nacks received", self.reliability.nacks_received),
                ]
            )
        rows.append(("p95 latency", f"{self.latency.p95:.2f}"))
        rows.append(("finished at", f"{self.finished_at:.2f}"))
        rows.append(("digest", self.digest))
        return rows


class SessionChaosSimulation(ChaosSimulation):
    """Scripted subscriber abuse against the durable-session stack.

    ``session_nodes`` are the stub nodes that hold durable sessions;
    the **first** is the scenario victim (crashed / flapped / slowed /
    poisoned) and the **last** is the *ghost* — it detaches early,
    never resumes, and must be demoted to ephemeral by lease expiry
    (the ledger's ``expired`` leg).  Every other session is a control:
    it must see exactly its matched set, exactly once, as if nothing
    happened.
    """

    def __init__(
        self,
        broker: PubSubBroker,
        plan: FaultPlan,
        scenario: str = "crash",
        session_nodes: Optional[Sequence[int]] = None,
        lease: float = 150.0,
        replay_rate: float = 2.0,
        slow_queue_capacity: int = 4,
        slow_service_time: float = 10.0,
        slow_ttl: float = 15.0,
        retry: Optional[RetryConfig] = None,
        transmission_time: float = 0.25,
        propagation_scale: float = 1.0,
        hop_retries: int = 4,
        telemetry: Optional[Telemetry] = None,
    ):
        if scenario not in SESSION_SCENARIOS:
            raise ValueError(
                f"unknown session scenario {scenario!r}; "
                f"expected one of {', '.join(SESSION_SCENARIOS)}"
            )
        # Read by the base constructor when it builds the transport.
        self.breakers = BreakerBoard()
        super().__init__(
            broker,
            plan,
            retry=retry,
            transmission_time=transmission_time,
            propagation_scale=propagation_scale,
            hop_retries=hop_retries,
            telemetry=telemetry,
        )
        if retry is None:
            # Four attempts, not six: a delivery that keeps timing out
            # is re-derived by catch-up replay rather than retried.
            self.transport.config = RetryConfig.for_network(
                self.network, max_attempts=4
            )
        self.transport.acceptor = self._accept
        self.scenario = scenario
        self.home = int(broker.topology.all_transit_nodes()[0])
        clock = lambda: self.simulator.now
        self.log = RetainedEventLog(
            clock=clock, policy=RETENTION, telemetry=telemetry
        )
        self.manager = SessionManager(
            self.log, clock=clock, default_lease=lease, telemetry=telemetry
        )
        self.dlq = DeadLetterQueue(clock=clock, telemetry=telemetry)
        self.replayer = CatchupReplayer(
            self.manager,
            self.transport,
            self.home,
            self.simulator,
            rematch=self._rematch,
            bucket=TokenBucket(replay_rate, REPLAY_BURST),
            batch=REPLAY_BATCH,
            pump_interval=2.0,
            telemetry=telemetry,
        )
        if session_nodes is None:
            session_nodes = select_session_nodes(broker, 6)
        if len(session_nodes) < 2:
            raise ValueError(
                "need at least 2 session nodes (a victim and a ghost); "
                f"got {len(session_nodes)}"
            )
        sids_by_node = _subscriptions_by_node(broker)
        self._session_by_node: Dict[int, SubscriberSession] = {}
        for node in session_nodes:
            node = int(node)
            if node not in sids_by_node:
                raise ValueError(
                    f"node {node} holds no subscriptions; it cannot "
                    "anchor a durable session"
                )
            session = self.manager.register(
                f"sess-{node}", node, sids_by_node[node]
            )
            self._session_by_node[node] = session
        self.victim = self._session_by_node[int(session_nodes[0])]
        self.ghost = self._session_by_node[int(session_nodes[-1])]
        self.slow_ttl = float(slow_ttl)
        self.slow_service_time = float(slow_service_time)
        self._victim_queue: Optional[BoundedQueue] = None
        self._victim_serving = False
        if scenario == "slow-consumer":
            self._victim_queue = BoundedQueue(
                slow_queue_capacity, policy="ttl-priority"
            )
        # -- the ledger ------------------------------------------------------
        #: (sequence, session_id) -> terminal bucket, exactly once.
        self.outcomes = OutcomeLedger(
            ("delivered", "deadlettered", "expired")
        )
        self.matched_at: Dict[Tuple[int, str], float] = {}
        self.matched_seqs: Dict[str, Set[int]] = {
            s.session_id: set() for s in self._session_by_node.values()
        }
        self.delivered_seqs: Dict[str, Set[int]] = {
            s.session_id: set() for s in self._session_by_node.values()
        }
        self.session_latencies: Dict[str, List[float]] = {
            s.session_id: [] for s in self._session_by_node.values()
        }
        self._expired_counts: Dict[str, int] = {}
        self._timeout_giveups: Dict[Tuple[int, str], int] = {}
        self._poison: Set[int] = set()
        self._victim_charges = 0
        self.duplicates = 0
        self.demotions = 0
        self.shed_retained = 0
        self.telemetry.expose(
            "sessions.shed_retained", self, "shed_retained",
            help="slow-consumer sheds recovered via replay",
        )
        self._published = 0

    # -- matching helpers ----------------------------------------------------

    def _rematch(self, retained) -> Set[int]:
        """Replay-side re-match: same engine, current table."""
        event = Event.create(
            retained.sequence, retained.publisher, retained.point
        )
        return set(self.broker.engine.match(event).subscription_ids)

    def _accept(self, target: int, key: int, time: float) -> bool:
        """The receiver-side application: is anyone there to consume?

        A detached (or lease-expired) session has no application
        behind it, so late network stragglers addressed to it are
        *nacked*, not consumed — crucially, a nack does not mark the
        event seen, so the catch-up replayer's re-send after resume is
        still accepted (rejecting via dedup instead would silently
        swallow the redelivery).  The poison scenario's victim
        additionally rejects its poison events forever.
        """
        session = self._session_by_node.get(target)
        if session is None:
            return True
        if session.state is SessionState.DETACHED or not session.durable:
            return False
        if session is self.victim and key in self._poison:
            return False
        return True

    # -- the publish path ----------------------------------------------------

    def _publish_event(self, sequence: int) -> None:
        """Plan the event, charge the sessions it matched, send live.

        The ``event`` root closes with the ``method`` the live path
        used — one unicast per LIVE session matched, or ``not_sent`` —
        not the broker's decision, which is metered but never sent.
        """
        plan = self._plan(sequence)
        now = self.simulator.now
        _lsn, charged, live = self.manager.on_publish(plan.event, plan.match)
        for session in charged:
            pair = (sequence, session.session_id)
            self.matched_at[pair] = now
            self.matched_seqs[session.session_id].add(sequence)
            if (
                self.scenario == "poison"
                and session is self.victim
            ):
                self._victim_charges += 1
                if self._victim_charges % POISON_EVERY == 0:
                    self._poison.add(sequence)
        route = None
        if plan.root is not None and live:
            route = self.telemetry.start_span(
                "route", parent=plan.root, method="unicast", targets=len(live)
            )
        for session in live:
            self._dispatch(session, sequence, route)
        if route is not None:
            route.finish()
        if plan.root is not None:
            plan.root.set_attribute(
                "method", "unicast" if live else "not_sent"
            ).finish()
        self._published += 1
        if self._published % RETENTION_INTERVAL == 0:
            self.log.enforce_retention(now, self.manager.low_water())

    def _dispatch(
        self, session: SubscriberSession, sequence: int, route: Optional[Span]
    ) -> None:
        """Send one live-path delivery (through the victim's queue if slow)."""
        if (
            self._victim_queue is not None
            and session is self.victim
        ):
            now = self.simulator.now
            victims = self._victim_queue.offer(
                sequence, now, now + self.slow_ttl
            )
            for seq in self._victim_queue.expired_in_last_offer():
                self._shed_retained(seq)
            for seq in victims:
                self._shed_retained(seq)
                if seq == sequence:
                    return
            self._ensure_victim_serving()
            return
        self.transport.publish(
            sequence, self.home, [session.subscriber], parent_span=route
        )

    # -- the slow consumer ---------------------------------------------------

    def _ensure_victim_serving(self) -> None:
        if (
            self._victim_serving
            or self._victim_queue is None
            or self._victim_queue.depth == 0
        ):
            return
        self._victim_serving = True
        self.simulator.schedule(self.slow_service_time, self._serve_victim)

    def _serve_victim(self) -> None:
        """Drain the slow consumer's outbound queue, one event at a time."""
        now = self.simulator.now
        sequence, expired = self._victim_queue.poll(now)
        for seq in expired:
            self._shed_retained(seq)
        if sequence is not None:
            session = self.victim
            if (
                session.state is SessionState.LIVE
                and session.is_outstanding(sequence)
            ):
                self.transport.publish(
                    sequence, self.home, [session.subscriber]
                )
            # Demoted mid-queue: the replayer owns the backlog now.
        if self._victim_queue.depth > 0:
            self.simulator.schedule(
                self.slow_service_time, self._serve_victim
            )
        else:
            self._victim_serving = False

    def _shed_retained(self, sequence: int) -> None:
        """One queued delivery was shed — but the event stays retained.

        The obligation survives in the session's outstanding set, so
        demoting the session to CATCHING_UP makes the replayer
        re-derive it from the retained log: shed-but-retained events
        *reappear*, they are never lost.
        """
        if not self.victim.is_outstanding(sequence):
            return
        self.shed_retained += 1
        self._demote(self.victim, sequence)

    # -- session lifecycle hooks ---------------------------------------------

    def _demote(
        self, session: SubscriberSession, sequence: Optional[int] = None
    ) -> None:
        """Drop a session out of the live path and let replay heal it."""
        if not session.durable or session.state is SessionState.DETACHED:
            return
        if session.state is SessionState.LIVE:
            session.state = SessionState.CATCHING_UP
            session.replay_pos = session.cursor
            self.demotions += 1
        elif sequence is not None:
            session.rewind_to(sequence)
        self.replayer.start(session)

    def _detach(self, session: SubscriberSession) -> None:
        self.manager.detach(session.session_id)
        self.transport.cancel_target(session.subscriber)

    def _resume(self, session: SubscriberSession) -> None:
        if not session.durable:
            return
        self.manager.resume(session.session_id)
        self.replayer.start(session)

    def _expire_leases(self) -> None:
        now = self.simulator.now
        for session, sequences in self.manager.expire_leases(now):
            self._expired_counts[session.session_id] = len(sequences)
            for sequence in sequences:
                self.outcomes.finish(
                    (sequence, session.session_id), "expired"
                )

    # -- transport callbacks -------------------------------------------------

    def _on_deliver(self, target: int, key: int, time: float) -> None:
        session = self._session_by_node.get(target)
        if session is None:
            return
        pair = (key, session.session_id)
        if pair not in self.matched_at:
            return
        if pair in self.outcomes:
            self.duplicates += 1
            return
        self.outcomes.finish(pair, "delivered")
        self.delivered_seqs[session.session_id].add(key)
        latency = time - self.matched_at[pair]
        self.session_latencies[session.session_id].append(latency)
        self.manager.ack(session.session_id, key)

    def _on_give_up(self, target: int, key: int, reason) -> None:
        session = self._session_by_node.get(target)
        if session is None:
            return
        pair = (key, session.session_id)
        if pair in self.outcomes or not session.is_outstanding(key):
            return
        code = str(getattr(reason, "code", "timeout"))
        if code == "timeout":
            # Transient failure: self-heal through the retained log.
            # Only a delivery that keeps dying across several full
            # replay cycles is declared poison.
            cycles = self._timeout_giveups.get(pair, 0) + 1
            self._timeout_giveups[pair] = cycles
            if cycles < MAX_REPLAY_REQUEUES:
                self._demote(session, key)
                return
        self.dlq.quarantine(key, session.session_id, target, reason)
        self.manager.discard(session.session_id, key)
        self.outcomes.finish(pair, "deadlettered")

    # -- the scenario script -------------------------------------------------

    def _arm(self, arrival_times: Sequence[float]) -> None:
        """Schedule the scripted abuse before the publishes.

        Same-time actions therefore win the engine's FIFO tie (a
        detach at ``t`` precedes an event published at ``t``).  Every
        scenario includes the ghost leg: detach at ``0.2·horizon``,
        never resume, demote by lease.
        """
        horizon = float(arrival_times[-1]) if len(arrival_times) else 0.0
        schedule: List[Tuple[float, Callable[[], None]]] = [
            (0.2 * horizon, lambda: self._detach(self.ghost)),
            (0.2 * horizon + self.ghost.lease + 1.0, self._expire_leases),
        ]
        if self.scenario == "crash":
            schedule.append(
                (0.35 * horizon, lambda: self._detach(self.victim))
            )
            schedule.append(
                (0.65 * horizon, lambda: self._resume(self.victim))
            )
        elif self.scenario == "flap":
            for start, end in (
                (0.2, 0.3),
                (0.45, 0.55),
                (0.7, 0.78),
            ):
                schedule.append(
                    (start * horizon, lambda: self._detach(self.victim))
                )
                schedule.append(
                    (end * horizon, lambda: self._resume(self.victim))
                )
        # slow-consumer and poison leave the victim attached; their
        # abuse lives in the dispatch queue / acceptor instead.
        for time, action in sorted(schedule, key=lambda entry: entry[0]):
            self.simulator.schedule_at(float(time), action)

    # -- the run -------------------------------------------------------------

    def _digest(self) -> str:
        body = {
            "scenario": self.scenario,
            "outcomes": sorted(
                [seq, sid, outcome]
                for (seq, sid), outcome in self.outcomes.items()
            ),
            "cursors": {
                session.session_id: session.cursor
                for session in self._session_by_node.values()
            },
            "dlq": [
                [entry.sequence, entry.session_id, entry.reason_code]
                for entry in self.dlq.entries()
            ],
        }
        canonical = canonical_json(body)
        return hashlib.blake2b(
            canonical.encode("utf-8"), digest_size=16
        ).hexdigest()

    def run(
        self,
        points: np.ndarray,
        publishers: Sequence[int],
        arrival_times: Optional[Sequence[float]] = None,
    ) -> SessionReport:
        """Publish the workload under the scenario; verify the ledger."""
        finished_at = self._simulate(points, publishers, arrival_times)
        # One final retention pass with the end-state low-water mark,
        # so the report's retained count reflects steady state.
        self.log.enforce_retention(finished_at, self.manager.low_water())

        counts = self.outcomes.counts
        unsettled = sorted(
            pair for pair in self.matched_at if pair not in self.outcomes
        )
        session_rows = []
        for session_id in sorted(self.matched_seqs):
            session = self.manager.sessions[session_id]
            session_rows.append(
                (
                    session_id,
                    session.state.value,
                    "durable" if session.durable else "ephemeral",
                    session.cursor,
                    len(self.matched_seqs[session_id]),
                    session.delivered,
                    session.deadlettered,
                    self._expired_counts.get(session_id, 0),
                )
            )
        latencies = [
            sample
            for samples in self.session_latencies.values()
            for sample in samples
        ]
        return SessionReport(
            scenario=self.scenario,
            events=len(self._points),
            matched=len(self.matched_at),
            delivered=counts["delivered"],
            deadlettered=counts["deadlettered"],
            expired_ephemeral=counts["expired"],
            duplicates=self.duplicates,
            unsettled=unsettled,
            replay_sends=self.replayer.replay_sends,
            replay_throttled=self.replayer.throttled,
            convergences=self.replayer.convergences,
            demotions=self.demotions,
            shed_retained=self.shed_retained,
            lease_expirations=self.manager.lease_expirations,
            cancelled=self.transport.stats.cancelled,
            dlq_size=len(self.dlq),
            dlq_by_reason=self.dlq.by_reason(),
            retained_events=self.log.retained(),
            retention_truncated_bytes=self.log.truncated_bytes,
            sessions=session_rows,
            latency=LatencyStats.from_samples(sorted(latencies)),
            finished_at=finished_at,
            fault_stats=self.injector.stats,
            digest=self._digest(),
            reliability=self.transport.stats,
        )


# -- canned builders (shared by the CLI and tests) ---------------------------


def _subscriptions_by_node(broker: PubSubBroker) -> Dict[int, List[int]]:
    out: Dict[int, List[int]] = {}
    for subscription_id in range(len(broker.table)):
        subscriber = int(broker.table[subscription_id].subscriber)
        out.setdefault(subscriber, []).append(subscription_id)
    return out


def select_session_nodes(
    broker: PubSubBroker, count: int = 6
) -> List[int]:
    """The ``count`` stub nodes holding the most subscriptions.

    Deterministic (ties broken by node id), so the victim (first) and
    ghost (last) are stable per testbed seed — and every chosen node
    matches enough traffic for the scenario to bite.
    """
    by_node = _subscriptions_by_node(broker)
    if count > len(by_node):
        raise ValueError(
            f"cannot place {count} sessions; only {len(by_node)} nodes "
            "hold subscriptions"
        )
    ranked = sorted(by_node, key=lambda node: (-len(by_node[node]), node))
    return [int(node) for node in ranked[:count]]


def build_session_chaos(
    scenario: str,
    seed: int = 2003,
    events: int = 160,
    subscriptions: int = 300,
    num_sessions: int = 6,
    loss: float = 0.05,
    telemetry: Optional[Telemetry] = None,
    **overrides,
):
    """Assemble a ready-to-run session chaos scenario.

    Returns ``(simulation, points, publishers, arrival_times)`` — call
    ``simulation.run(points, publishers, arrival_times)`` for the
    report.  The crash scenario's fault plan crashes the victim *node*
    for the same window the session is detached, so in-flight packets
    at the moment of the crash die realistically.
    """
    broker, density = build_chaos_testbed(
        seed=seed, subscriptions=subscriptions
    )
    nodes = select_session_nodes(broker, num_sessions)
    horizon = float(events)
    crashes = ()
    if scenario == "crash":
        crashes = (
            BrokerCrash(
                node=nodes[0],
                start=0.35 * horizon,
                end=0.65 * horizon,
            ),
        )
    plan = FaultPlan(seed=seed, default_loss=loss, crashes=crashes)
    simulation = SessionChaosSimulation(
        broker,
        plan,
        scenario=scenario,
        session_nodes=nodes,
        lease=overrides.pop("lease", 0.35 * horizon),
        telemetry=telemetry,
        **overrides,
    )
    points, publishers = PublicationGenerator(
        density, broker.topology.all_stub_nodes(), seed=seed + 7
    ).generate(events)
    arrival_times = [float(i) for i in range(events)]
    return simulation, points, publishers, arrival_times
