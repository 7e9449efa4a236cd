"""Chaos-test harness and delivery-guarantee verifier.

:class:`ChaosSimulation` replays a pub-sub workload through the
packet-level simulator with a :class:`~repro.faults.plan.FaultPlan`
active, using the broker's real per-event decisions (unicast fan-out
vs multicast tree) and — unless disabled — the reliable ack/retry
protocol of :mod:`repro.faults.reliable`.

A :class:`DeliveryLedger` records the ground truth on both sides:
what *should* arrive (every matched subscriber of every sent event)
and what the application layer actually received.  The resulting
:class:`ChaosReport` then states the guarantee precisely:

- **exactly-once** holds when every expected (event, subscriber) pair
  was delivered to the application exactly one time;
- otherwise the report lists each missing delivery with a reason
  (retry budget exhausted / still unacknowledged at simulation end /
  lost with reliability disabled) and counts application-level
  duplicates.

Running the same plan with ``reliable=False`` shows what the raw
substrate does to the workload — the delta is the whole argument for
the protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..clustering import ForgyKMeansClustering
from ..core.broker import PublishPlan, PubSubBroker
from ..core.distribution import DeliveryMethod
from ..core.event import Event
from ..core.subscription import SubscriptionTable
from ..network.topology import TransitStubGenerator, TransitStubParams
from ..simulation.delivery import LatencyStats
from ..simulation.engine import DiscreteEventSimulator
from ..simulation.packet_network import PacketNetwork
from ..telemetry.base import Telemetry, or_null
from ..workload import (
    PublicationGenerator,
    StockSubscriptionGenerator,
    publication_distribution,
)
from .plan import BrokerCrash, FaultInjector, FaultPlan, FaultStats, LinkFault
from .reliable import ReliabilityStats, ReliableTransport, RetryConfig

__all__ = [
    "DeliveryLedger",
    "ChaosReport",
    "OutcomeLedger",
    "EventOutcomeStats",
    "DeferQueue",
    "dispatch",
    "ChaosSimulation",
    "build_chaos_testbed",
    "build_chaos_plan",
    "build_burst_storm_times",
    "build_slow_subscriber_plan",
    "build_resubscribe_storm",
]


class DeliveryLedger:
    """Ground-truth bookkeeping: expected vs observed app deliveries."""

    def __init__(self) -> None:
        self._expected: Dict[int, Set[int]] = {}
        self._counts: Dict[Tuple[int, int], int] = {}
        self._latencies: List[float] = []
        self._published_at: Dict[int, float] = {}
        self.fail_reasons: Dict[Tuple[int, int], str] = {}

    def expect(
        self, sequence: int, subscribers: Sequence[int], published_at: float
    ) -> None:
        self._expected[sequence] = {int(s) for s in subscribers}
        self._published_at[sequence] = published_at

    def record(self, sequence: int, subscriber: int, time: float) -> None:
        """One application-level delivery (post-dedup if reliable)."""
        key = (sequence, int(subscriber))
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        if count == 1:
            self._latencies.append(time - self._published_at[sequence])

    @property
    def expected_total(self) -> int:
        return sum(len(s) for s in self._expected.values())

    @property
    def delivered_distinct(self) -> int:
        return sum(
            1
            for (sequence, subscriber), count in self._counts.items()
            if count >= 1 and subscriber in self._expected.get(sequence, ())
        )

    @property
    def duplicate_deliveries(self) -> int:
        """Application-level deliveries beyond the first per pair."""
        return sum(count - 1 for count in self._counts.values() if count > 1)

    @property
    def latencies(self) -> List[float]:
        return self._latencies

    def missing(self, default_reason: str) -> List[Tuple[int, int, str]]:
        """Every expected (event, subscriber) that never arrived, with why."""
        out: List[Tuple[int, int, str]] = []
        for sequence in sorted(self._expected):
            for subscriber in sorted(self._expected[sequence]):
                if self._counts.get((sequence, subscriber), 0) == 0:
                    reason = self.fail_reasons.get(
                        (sequence, subscriber), default_reason
                    )
                    out.append((sequence, subscriber, reason))
        return out


@dataclass
class ChaosReport:
    """Everything one chaos run proved (or disproved)."""

    events: int
    reliable: bool
    expected: int
    delivered: int
    duplicate_deliveries: int
    missing: List[Tuple[int, int, str]]
    latency: LatencyStats
    transmissions: int
    link_retransmissions: int
    queueing_delay: float
    multicasts: int
    unicasts: int
    not_sent: int
    finished_at: float
    fault_stats: FaultStats
    reliability: Optional[ReliabilityStats] = None

    @property
    def delivered_fraction(self) -> float:
        if self.expected == 0:
            return 1.0
        return self.delivered / self.expected

    @property
    def exactly_once(self) -> bool:
        """The delivery guarantee: everyone expected, nobody twice."""
        return not self.missing and self.duplicate_deliveries == 0

    def summary_rows(self) -> List[Tuple[str, object]]:
        """(metric, value) rows for the CLI report table."""
        rows: List[Tuple[str, object]] = [
            ("events", self.events),
            ("protocol", "reliable" if self.reliable else "fire-and-forget"),
            ("expected deliveries", self.expected),
            ("delivered", self.delivered),
            ("delivered fraction", f"{self.delivered_fraction:.4f}"),
            ("missing", len(self.missing)),
            ("app-level duplicates", self.duplicate_deliveries),
            ("exactly-once", "yes" if self.exactly_once else "NO"),
            ("link transmissions", self.transmissions),
            ("link retransmissions", self.link_retransmissions),
            ("faults: random drops", self.fault_stats.random_drops),
            ("faults: outage drops", self.fault_stats.outage_drops),
            (
                "faults: crash drops",
                self.fault_stats.sender_down_drops
                + self.fault_stats.receiver_down_drops,
            ),
            ("faults: duplicates injected", self.fault_stats.duplicates_injected),
        ]
        if self.reliability is not None:
            rows.extend(
                [
                    ("retries", self.reliability.retries),
                    ("reroutes", self.reliability.reroutes),
                    ("acks sent", self.reliability.acks_sent),
                    (
                        "duplicates suppressed",
                        self.reliability.duplicates_suppressed,
                    ),
                    ("gave up", self.reliability.gave_up),
                ]
            )
        rows.append(("p95 latency", f"{self.latency.p95:.2f}"))
        rows.append(("finished at", f"{self.finished_at:.2f}"))
        return rows


class OutcomeLedger(dict):
    """``key -> terminal bucket``, assigned exactly once.

    The conservation law every harness proves — each published event
    (or each session obligation) ends in exactly one bucket — rests on
    :meth:`finish` refusing a second verdict for a key and a bucket
    the ledger was not built with.  With a ``metric``, every verdict
    also counts into ``telemetry`` under an ``outcome`` label.
    """

    def __init__(
        self,
        buckets: Sequence[str],
        telemetry: Optional[Telemetry] = None,
        metric: Optional[str] = None,
        help: str = "",
    ):
        super().__init__()
        self.buckets = tuple(buckets)
        self.telemetry = or_null(telemetry)
        self.metric = metric
        self.help = help

    def finish(self, key, outcome: str) -> None:
        """Give ``key`` its terminal bucket; a second verdict raises."""
        if outcome not in self.buckets:
            raise ValueError(f"unknown outcome {outcome!r}")
        if key in self:
            raise RuntimeError(
                f"{key!r} accounted twice: {self[key]} then {outcome}"
            )
        self[key] = outcome
        if self.metric is not None and self.telemetry.enabled:
            self.telemetry.counter(
                self.metric, help=self.help, outcome=outcome
            ).inc()

    @property
    def counts(self) -> Dict[str, int]:
        """Keys per bucket (every bucket present, empty ones at 0)."""
        counts = dict.fromkeys(self.buckets, 0)
        for outcome in self.values():
            counts[outcome] += 1
        return counts


@dataclass
class EventOutcomeStats:
    """The per-event ledger of a harness that can defer, shed or expire."""

    published: int = 0
    delivered_events: int = 0
    shed_events: int = 0
    expired_events: int = 0
    #: Events that spent time in the defer queue (any outcome).
    deferred_events: int = 0

    def settle(
        self, published: int, outcomes: OutcomeLedger, waiting: DeferQueue
    ) -> None:
        """Close the books at the end of a run: what still waits never
        found a serviceable owner, and expires."""
        for sequence in waiting.drain(math.inf)[0]:
            outcomes.finish(sequence, "expired")
        counts = outcomes.counts
        self.published = published
        self.delivered_events = counts["delivered"]
        self.shed_events = counts["shed"]
        self.expired_events = counts["expired"]

    @property
    def accounted(self) -> bool:
        """The conservation law: every event in exactly one bucket."""
        return (
            self.delivered_events + self.shed_events + self.expired_events
            == self.published
        )


class DeferQueue:
    """Events waiting for a serviceable owner: bounded, and not forever.

    ``offer`` refuses (the caller sheds) once ``capacity`` events wait;
    ``drain`` hands back, in arrival order, what waited longer than
    ``ttl`` and what is ready now, and keeps the rest.
    """

    def __init__(self, capacity: float, ttl: float):
        if capacity < 0:
            raise ValueError(f"defer_capacity must be >= 0 (got {capacity})")
        if ttl <= 0.0:
            raise ValueError(f"defer_ttl must be positive (got {ttl})")
        self.capacity = capacity
        self.ttl = float(ttl)
        self._waiting: List[Tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._waiting)

    def offer(self, sequence: int, now: float) -> bool:
        """Queue ``sequence``; False when the queue is full."""
        if len(self._waiting) >= self.capacity:
            return False
        self._waiting.append((now, sequence))
        return True

    def drain(
        self, now: float, ready: Callable[[int], bool] = lambda sequence: True
    ) -> Tuple[List[int], List[int]]:
        """``(expired, ready)`` sequences; the others keep waiting.

        ``now = inf`` expires everything: the end-of-run drain.
        """
        expired: List[int] = []
        served: List[int] = []
        keep: List[Tuple[float, int]] = []
        for at, sequence in self._waiting:
            if now - at > self.ttl:
                expired.append(sequence)
            elif ready(sequence):
                served.append(sequence)
            else:
                keep.append((at, sequence))
        self._waiting = keep
        return expired, served


def dispatch(
    broker: PubSubBroker,
    plan: PublishPlan,
    network: PacketNetwork,
    on_arrival: Callable[[int, float], None],
    transport: Optional[ReliableTransport] = None,
    sender: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
) -> str:
    """Put one publish plan on the wire; return what was done.

    Nothing for ``not_sent`` / ``self_only``; one message per
    recipient for ``unicast``; one tree flood of ``M_q`` — through the
    group's rendezvous point under a sparse-mode cost model — for
    ``multicast``.  Group members outside the interested set filter
    the message out at the application layer, so only interested
    arrivals reach ``on_arrival`` (or enter the reliable protocol);
    a flooded plan does not know who is interested, so every member
    receives and the receivers run the subscription filter.

    With a ``transport`` the first pass rides
    :meth:`ReliableTransport.publish` and retries are its business;
    without one, arrivals go straight to ``on_arrival(node, time)``.
    ``sender`` is the node the messages leave from when that is not
    the publisher (a shard's home).  The ``route`` span opens here —
    the transport hangs ``deliver`` → ``retry`` / ``ack`` off it — and
    the plan's ``event`` root closes here.
    """
    event, _match, q, decision, root, flooded = plan
    recipients = plan.recipients
    if decision.method is DeliveryMethod.NOT_SENT:
        done = "not_sent"
    elif not recipients:
        done = "self_only"
    else:
        done = "degraded-multicast" if flooded else decision.method.value
        source = event.publisher if sender is None else sender
        route_span = None
        if root is not None:
            route_span = telemetry.start_span(
                "route",
                parent=root,
                method=decision.method.value,
                targets=len(recipients),
            )
        if decision.method is DeliveryMethod.UNICAST:
            if transport is not None:
                transport.publish(
                    event.sequence, source, recipients, parent_span=route_span
                )
            else:
                for node in recipients:
                    network.send_unicast(source, node, on_arrival)
        else:
            members = broker.partition.group(q).members
            via = None
            if broker.costs.multicast_mode == "sparse":
                via = broker.costs.rendezvous_point(members)
            interested = frozenset(recipients)

            def first_pass(receive):
                network.send_multicast(
                    source,
                    members,
                    receive
                    if flooded
                    else lambda node, time: (
                        receive(node, time) if node in interested else None
                    ),
                    via=via,
                )

            if transport is not None:
                transport.publish(
                    event.sequence,
                    source,
                    recipients,
                    first_pass,
                    parent_span=route_span,
                )
            else:
                first_pass(on_arrival)
            if route_span is not None:
                route_span.set_attribute("group", q).set_attribute(
                    "group_size", len(members)
                )
        if route_span is not None:
            route_span.finish()
    if root is not None:
        root.set_attribute("method", done).finish()
    return done


class ChaosSimulation:
    """Packet-level workload replay under an active fault plan."""

    #: Per-target circuit breakers for the reliable transport; the
    #: overload harness sets a board before the base constructor runs.
    breakers = None

    def __init__(
        self,
        broker: PubSubBroker,
        plan: FaultPlan,
        reliable: bool = True,
        retry: Optional[RetryConfig] = None,
        transmission_time: float = 0.25,
        propagation_scale: float = 1.0,
        hop_retries: int = 4,
        telemetry: Optional[Telemetry] = None,
    ):
        self.broker = broker
        self.plan = plan
        self.reliable = reliable
        self.simulator = DiscreteEventSimulator()
        self.injector = FaultInjector(plan)
        # Telemetry runs on simulated time: span timestamps come from
        # the engine clock, so instrumented chaos runs stay
        # deterministic (and NullTelemetry keeps this a no-op).
        self.telemetry = or_null(telemetry)
        self.telemetry.bind_clock(lambda: self.simulator.now)
        # Reliable mode layers link-level ARQ (masks random loss)
        # under the end-to-end ack/retry protocol (recovers from
        # outages and crashes); fire-and-forget mode gets neither.
        self.network = PacketNetwork(
            broker.topology,
            self.simulator,
            transmission_time=transmission_time,
            propagation_scale=propagation_scale,
            injector=self.injector,
            hop_retries=hop_retries if reliable else 0,
            telemetry=telemetry,
        )
        self.ledger = DeliveryLedger()
        self.transport: Optional[ReliableTransport] = None
        if reliable:
            self.transport = ReliableTransport(
                self.network,
                config=retry or RetryConfig.for_network(self.network),
                seed=plan.seed + 1,
                detector=self.injector,
                on_deliver=self._on_deliver,
                on_give_up=lambda target, key, reason: (
                    self.ledger.fail_reasons.__setitem__(
                        (key, target), reason
                    )
                ),
                telemetry=telemetry,
                breakers=self.breakers,
            )

    # -- subclass hooks ------------------------------------------------------

    def _arm(self, arrival_times: Sequence[float]) -> None:
        """Schedule harness-side callbacks before the workload.

        Called once per :meth:`run`, before any publish is scheduled —
        so at equal times, harness callbacks win the engine's FIFO tie
        (a crash at ``t`` takes effect before an event arriving at
        ``t``).  The base harness schedules nothing.
        """

    def _record_intent(
        self,
        sequence: int,
        publisher: int,
        recipients: Sequence[int],
        method: str,
        group: int,
    ) -> None:
        """Observe one publish intent (called right after ``expect``).

        The durability harness journals the intent here; the base
        harness does nothing.
        """

    def _on_deliver(self, target: int, key: int, time: float) -> None:
        """One application-level arrival (post-dedup if reliable)."""
        self.ledger.record(key, target, time)

    def _publish_event(self, sequence: int) -> None:
        """Event ``sequence`` arrives at the broker (the per-event path)."""
        self._deliver(self._plan(sequence))

    # -- the pipeline --------------------------------------------------------

    def _plan(self, sequence: int, matcher=None) -> PublishPlan:
        """The broker's plan for workload event ``sequence``, metered
        into this harness's (simulated-clock) telemetry."""
        event = Event.create(
            sequence, self._publishers[sequence], self._points[sequence]
        )
        return self.broker.plan(
            event, matcher=matcher, telemetry=self.telemetry
        )

    def _deliver(self, plan: PublishPlan, sender: Optional[int] = None) -> None:
        """Expect the plan's deliveries, note the intent, send it.

        The span tree mirrors the lifecycle: ``event`` (root) →
        ``match`` / ``distribution-decision`` / ``route``; the
        reliable transport hangs ``deliver`` (→ ``retry`` / ``ack``)
        spans off ``route``.  Synchronous spans close at publish
        time (simulated clock); deliver spans close at
        application arrival.
        """
        event = plan.event
        sequence = event.sequence
        if plan.decision.method is not DeliveryMethod.NOT_SENT:
            recipients = plan.recipients
            self.ledger.expect(sequence, recipients, self.simulator.now)
            self._record_intent(
                sequence,
                event.publisher,
                recipients,
                plan.decision.method.value,
                plan.q,
            )
        done = dispatch(
            self.broker,
            plan,
            self.network,
            lambda node, time: self._on_deliver(node, sequence, time),
            self.transport,
            sender,
            self.telemetry,
        )
        self._counters[done] += 1

    def _isolated(self, node: int, now: float) -> bool:
        """Whether ``node`` cannot serve right now — killed, crashed,
        or cut off on every incident link."""
        if self.injector.node_down(node, now):
            return True
        state = self.injector.state_at(now)
        if state.clear:
            return False
        neighbors = list(self.broker.topology.graph.neighbors(node))
        return bool(neighbors) and all(
            state.link_dead(node, n) for n in neighbors
        )

    def _load(
        self,
        points: np.ndarray,
        publishers: Sequence[int],
        arrival_times: Sequence[float],
    ) -> None:
        """Validate the workload and keep it for the length of the run."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] != len(publishers):
            raise ValueError(
                "points must be (m, N) with one publisher per row"
            )
        if len(arrival_times) != len(points):
            raise ValueError("one arrival time per event required")
        self._points = points
        self._publishers = [int(p) for p in publishers]
        self._counters = dict.fromkeys(
            ("multicast", "unicast", "not_sent", "self_only"), 0
        )

    def run(
        self,
        points: np.ndarray,
        publishers: Sequence[int],
        inter_arrival: float = 1.0,
        arrival_times: Optional[Sequence[float]] = None,
    ) -> ChaosReport:
        """Publish the workload under faults and verify the guarantee."""
        if arrival_times is None:
            arrival_times = [i * inter_arrival for i in range(len(points))]
        self._load(points, publishers, arrival_times)
        self._arm(arrival_times)
        for sequence, time in enumerate(arrival_times):
            self.simulator.schedule_at(
                float(time), lambda s=sequence: self._publish_event(s)
            )
        finished_at = self.simulator.run()

        default_reason = (
            "unacknowledged at simulation end"
            if self.reliable
            else "lost (no retransmission)"
        )
        return ChaosReport(
            events=len(self._points),
            reliable=self.reliable,
            expected=self.ledger.expected_total,
            delivered=self.ledger.delivered_distinct,
            duplicate_deliveries=self.ledger.duplicate_deliveries,
            missing=self.ledger.missing(default_reason),
            latency=LatencyStats.from_samples(self.ledger.latencies),
            transmissions=self.network.log.transmissions,
            link_retransmissions=self.network.log.retransmissions,
            queueing_delay=self.network.log.queueing_delay,
            multicasts=self._counters["multicast"],
            unicasts=self._counters["unicast"],
            not_sent=self._counters["not_sent"],
            finished_at=finished_at,
            fault_stats=self.injector.stats,
            reliability=(
                self.transport.stats if self.transport is not None else None
            ),
        )


# -- canned chaos scenario builders (used by the CLI and tests) -------------


def build_chaos_testbed(
    seed: int = 2003,
    subscriptions: int = 300,
    num_groups: int = 11,
    modes: int = 9,
    params: Optional[TransitStubParams] = None,
    dynamic: bool = False,
):
    """A ~100-node broker testbed sized for chaos experiments.

    Returns ``(broker, density)``; pair with
    :class:`~repro.workload.publications.PublicationGenerator` for the
    event stream.  ``dynamic=True`` builds a
    :class:`~repro.core.dynamic.DynamicPubSubBroker` instead (required
    by churn scenarios such as :func:`build_resubscribe_storm`).
    """
    params = params or TransitStubParams(
        transit_blocks=3,
        transit_nodes_per_block=3,
        stubs_per_transit_node=2,
        nodes_per_stub=5,
        size_spread=1,
    )
    topology = TransitStubGenerator(params, seed=seed).generate()
    placed = StockSubscriptionGenerator(topology, seed=seed + 1).generate(
        subscriptions
    )
    table = SubscriptionTable.from_placed(placed)
    density = publication_distribution(modes)
    if dynamic:
        from ..core.dynamic import DynamicPubSubBroker

        broker = DynamicPubSubBroker.preprocess_dynamic(
            topology,
            table,
            ForgyKMeansClustering(),
            num_groups=num_groups,
            density=density,
        )
    else:
        broker = PubSubBroker.preprocess(
            topology,
            table,
            ForgyKMeansClustering(),
            num_groups=num_groups,
            density=density,
        )
    return broker, density


def build_chaos_plan(
    topology,
    seed: int = 2003,
    loss: float = 0.1,
    duplicate: float = 0.0,
    delay: float = 0.0,
    crashes: int = 2,
    crash_length: float = 150.0,
    horizon: float = 500.0,
) -> FaultPlan:
    """Uniform link loss plus evenly-spaced broker crash/restart windows.

    Crash victims are transit nodes (the brokers/relays of the
    testbed), drawn deterministically from ``seed``; windows are spread
    across the publication horizon so multicasts are in flight when
    brokers die.
    """
    rng = np.random.default_rng(seed)
    transit = topology.all_transit_nodes()
    crash_windows = []
    if crashes > 0:
        if crashes > len(transit):
            raise ValueError(
                f"cannot crash {crashes} brokers on a topology with "
                f"{len(transit)} transit nodes"
            )
        victims = rng.choice(len(transit), size=crashes, replace=False)
        for index, victim in enumerate(victims):
            start = horizon * (index + 1) / (crashes + 1)
            crash_windows.append(
                BrokerCrash(
                    node=int(transit[int(victim)]),
                    start=float(start),
                    end=float(start + crash_length),
                )
            )
    return FaultPlan(
        seed=seed,
        default_loss=loss,
        default_duplicate=duplicate,
        default_delay=delay,
        crashes=tuple(crash_windows),
    )


# -- overload chaos scenarios ------------------------------------------------


def build_burst_storm_times(
    events: int,
    base_interval: float = 1.0,
    bursts: int = 3,
    burst_fraction: float = 0.5,
    burst_interval: float = 0.02,
) -> List[float]:
    """Arrival times for a bursty storm: calm baseline, violent spikes.

    A ``burst_fraction`` share of the events is concentrated into
    ``bursts`` near-instantaneous volleys (``burst_interval`` apart —
    far faster than any broker's service rate) spread evenly through
    an otherwise steady ``base_interval`` stream.  Deterministic: the
    times are a pure function of the arguments.
    """
    if events < 1:
        raise ValueError(f"events must be >= 1 (got {events})")
    if not 0.0 <= burst_fraction <= 1.0:
        raise ValueError(
            f"burst_fraction must lie in [0, 1] (got {burst_fraction})"
        )
    burst_events = int(events * burst_fraction)
    calm_events = events - burst_events
    times: List[float] = [i * base_interval for i in range(calm_events)]
    horizon = max(calm_events * base_interval, 1.0)
    if bursts > 0 and burst_events > 0:
        per_burst = burst_events // bursts
        extra = burst_events - per_burst * bursts
        for index in range(bursts):
            start = horizon * (index + 1) / (bursts + 1)
            count = per_burst + (1 if index < extra else 0)
            times.extend(
                start + k * burst_interval for k in range(count)
            )
    times.sort()
    return times[:events]


def build_slow_subscriber_plan(
    topology,
    seed: int = 2003,
    horizon: float = 500.0,
    slow_delay: float = 40.0,
    slow_loss: float = 0.5,
    dead: bool = False,
) -> Tuple[FaultPlan, int]:
    """A plan where one deterministic stub subscriber is slow — or dead.

    The victim (a stub node drawn from ``seed``) either answers over a
    high-delay, lossy access path (``dead=False``: the slow-subscriber
    scenario, which stalls `ReliableTransport` retries) or is crashed
    for the entire horizon (``dead=True``: the permanently-dead
    subscriber the circuit breakers must isolate).  Returns
    ``(plan, victim_node)``.
    """
    rng = np.random.default_rng(seed + 17)
    stubs = topology.all_stub_nodes()
    victim = int(stubs[int(rng.integers(len(stubs)))])
    if dead:
        plan = FaultPlan(
            seed=seed,
            crashes=(BrokerCrash(node=victim, start=0.0, end=horizon),),
        )
        return plan, victim
    faults = tuple(
        LinkFault(
            u=victim, v=int(neighbor), loss=slow_loss, delay=slow_delay
        )
        for neighbor in topology.graph.neighbors(victim)
    )
    return FaultPlan(seed=seed, link_faults=faults), victim


def build_resubscribe_storm(
    broker,
    at: float,
    count: int = 50,
    spacing: float = 0.05,
    seed: int = 2003,
) -> List[Tuple[float, object]]:
    """A thundering-resubscribe schedule for a dynamic broker.

    At time ``at`` a herd of subscribers unsubscribes and immediately
    resubscribes with the same rectangles (the classic reconnect storm
    after a broker restart) — ``count`` churn pairs, ``spacing`` time
    units apart, forcing overflow-index growth and possibly a full
    repack mid-storm.  Returns ``(time, action)`` pairs for
    :meth:`~repro.faults.overload.OverloadChaosSimulation.run`'s
    ``churn`` argument.  Requires a broker with ``subscribe`` /
    ``unsubscribe`` (a :class:`~repro.core.dynamic.DynamicPubSubBroker`).
    """
    rng = np.random.default_rng(seed + 29)
    total = len(broker.table)
    if count > total:
        raise ValueError(
            f"cannot churn {count} subscriptions; table holds {total}"
        )
    victims = sorted(
        int(v) for v in rng.choice(total, size=count, replace=False)
    )
    schedule: List[Tuple[float, object]] = []
    for index, subscription_id in enumerate(victims):
        subscription = broker.table[subscription_id]
        subscriber = subscription.subscriber
        rectangle = subscription.rectangle

        def churn(sid=subscription_id, node=subscriber, rect=rectangle):
            broker.unsubscribe(sid)
            broker.subscribe(node, rect)

        schedule.append((at + index * spacing, churn))
    return schedule
