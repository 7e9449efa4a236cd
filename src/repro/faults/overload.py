"""Chaos harness for saturation: the overload-protected event pipeline.

:class:`OverloadChaosSimulation` is the saturated-broker counterpart
of :class:`~repro.faults.verifier.ChaosSimulation`.  Where the plain
chaos harness feeds every published event straight into match → decide
→ route, this one interposes the full overload-protection stack from
:mod:`repro.overload` at the publisher edge:

    publish burst ──▶ token bucket ──▶ bounded ingress queue ──▶ serve loop
                      (admission)       (shed per policy,          │
                                         TTL purge)               ▼
                                                    HealthMonitor decides:
                                                    HEALTHY    exact match + threshold rule
                                                    DEGRADED   flood ``M_q`` (no S-tree query)
                                                    OVERLOADED shed new arrivals outright

and the reliable transport runs with per-subscriber circuit breakers,
so a dead subscriber stops consuming retry budget after its failure
budget trips.

Accounting is strict: every published event lands in **exactly one**
of three buckets — *delivered* (fully processed by the broker, even
if it matched nobody), *shed* (refused by admission control, the
health governor, or the queue policy) or *expired* (its TTL lapsed
inside the broker) — so ``delivered + shed + expired == published``
holds for every run.  Per-(event, subscriber) delivery truth is still
tracked by a :class:`~repro.faults.verifier.DeliveryLedger`; expired
copies are additionally dropped at the *receiver* (counted as late
drops) rather than delivered past their deadline.

Everything — timers, shedding, breaker trips, health transitions —
runs off the simulator clock, so a seeded scenario produces a
byte-identical :class:`OverloadReport` on every rerun.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.broker import PubSubBroker
from ..core.distribution import DeliveryMethod
from ..core.event import Event
from ..overload import BrokerHealth, OverloadConfig
from ..simulation.delivery import LatencyStats
from ..telemetry.base import Telemetry
from .plan import FaultPlan, FaultStats
from .reliable import ReliabilityStats, RetryConfig
from .verifier import ChaosSimulation, OutcomeLedger, dispatch

__all__ = ["EventOutcome", "OverloadReport", "OverloadChaosSimulation"]


#: The per-event terminal buckets of the overload ledger.
EventOutcome = str  # "delivered" | "shed" | "expired"


@dataclass
class OverloadReport:
    """Everything one saturated run proved about the protection stack."""

    # -- the per-event ledger (delivered + shed + expired == published) --
    published: int
    delivered_events: int
    shed_events: int
    expired_events: int
    shed_reasons: Dict[str, int]
    degraded_events: int          # delivered via group flood, match skipped
    # -- load machinery ---------------------------------------------------
    peak_queue_depth: int
    queue_capacity: int
    health_transitions: List[Tuple[float, str]]
    health_samples: Dict[str, int]
    admission_rejected: int
    breaker_opens: int
    breaker_closes: int
    short_circuited: int
    open_targets: List[int]
    # -- per-delivery truth ----------------------------------------------
    expected: int
    delivered: int
    duplicate_deliveries: int
    late_drops: int               # receiver-side deadline drops
    missing: List[Tuple[int, int, str]]
    latency: LatencyStats
    finished_at: float
    fault_stats: FaultStats
    reliability: Optional[ReliabilityStats] = None

    @property
    def accounted(self) -> bool:
        """The ledger invariant every run must satisfy."""
        return (
            self.delivered_events + self.shed_events + self.expired_events
            == self.published
        )

    @property
    def within_capacity(self) -> bool:
        """Whether the ingress queue ever burst its configured bound."""
        return self.peak_queue_depth <= self.queue_capacity

    def summary_rows(self) -> List[Tuple[str, object]]:
        """(metric, value) rows for the CLI report table."""
        rows: List[Tuple[str, object]] = [
            ("published", self.published),
            ("delivered (events)", self.delivered_events),
            ("shed (events)", self.shed_events),
            ("expired (events)", self.expired_events),
            ("ledger accounted", "yes" if self.accounted else "NO"),
            ("degraded (group flood)", self.degraded_events),
            (
                "peak queue depth",
                f"{self.peak_queue_depth}/{self.queue_capacity}",
            ),
            ("within capacity", "yes" if self.within_capacity else "NO"),
            ("admission rejected", self.admission_rejected),
        ]
        for reason in sorted(self.shed_reasons):
            rows.append((f"shed: {reason}", self.shed_reasons[reason]))
        for state in BrokerHealth:
            rows.append(
                (
                    f"health samples: {state.value}",
                    self.health_samples.get(state.value, 0),
                )
            )
        rows.append(
            (
                "health transitions",
                " -> ".join(
                    f"{state}@{time:.1f}"
                    for time, state in self.health_transitions
                )
                or "(none)",
            )
        )
        rows.extend(
            [
                ("breaker opens", self.breaker_opens),
                ("breaker closes", self.breaker_closes),
                ("short-circuited", self.short_circuited),
                (
                    "isolated targets",
                    ",".join(map(str, self.open_targets)) or "(none)",
                ),
                ("expected deliveries", self.expected),
                ("delivered", self.delivered),
                ("app-level duplicates", self.duplicate_deliveries),
                ("late drops (expired at receiver)", self.late_drops),
                ("missing", len(self.missing)),
            ]
        )
        if self.reliability is not None:
            rows.extend(
                [
                    ("retries", self.reliability.retries),
                    ("gave up", self.reliability.gave_up),
                ]
            )
        rows.append(("p95 latency", f"{self.latency.p95:.2f}"))
        rows.append(("finished at", f"{self.finished_at:.2f}"))
        return rows


class OverloadChaosSimulation(ChaosSimulation):
    """Packet-level replay of a publish storm behind overload protection.

    A :class:`~repro.faults.verifier.ChaosSimulation` whose events
    reach the broker through the protection stack an
    :class:`~repro.overload.OverloadConfig` describes.  ``churn``
    optionally schedules subscription churn mid-run (the
    thundering-resubscribe scenario): a sequence of ``(time,
    callable)`` pairs executed on the simulator clock.
    """

    def __init__(
        self,
        broker: PubSubBroker,
        plan: FaultPlan,
        config: Optional[OverloadConfig] = None,
        reliable: bool = True,
        retry: Optional[RetryConfig] = None,
        transmission_time: float = 0.25,
        propagation_scale: float = 1.0,
        hop_retries: int = 4,
        telemetry: Optional[Telemetry] = None,
    ):
        self.config = config or OverloadConfig()
        # Read by the base constructor when it builds the transport.
        self.breakers = self.config.build_breakers()
        super().__init__(
            broker,
            plan,
            reliable=reliable,
            retry=retry,
            transmission_time=transmission_time,
            propagation_scale=propagation_scale,
            hop_retries=hop_retries,
            telemetry=telemetry,
        )
        self.queue = self.config.build_queue()
        self.bucket = self.config.build_bucket()
        self.monitor = self.config.build_monitor()
        #: sequence -> terminal bucket ("delivered" / "shed" / "expired").
        self.outcomes = OutcomeLedger(("delivered", "shed", "expired"))
        self.shed_reasons: Dict[str, int] = {}
        self.degraded_events = 0
        self.late_drops = 0
        self.telemetry.expose(
            "overload.late_drops", self, "late_drops",
            help="arrivals discarded at the receiver past deadline",
        )
        self._interested: Dict[int, frozenset] = {}
        self._deadlines: Dict[int, Optional[float]] = {}
        self._serving = False

    # -- accounting helpers --------------------------------------------------

    def _shed(self, sequence: int, reason: str) -> None:
        self.outcomes.finish(sequence, "shed")
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1
        if self.telemetry.enabled:
            self.telemetry.counter(
                "overload.shed",
                help="events shed at the broker edge, by reason",
                reason=reason,
            ).inc()

    def _expire(self, sequence: int) -> None:
        self.outcomes.finish(sequence, "expired")
        if self.telemetry.enabled:
            self.telemetry.counter(
                "overload.expired",
                help="events dropped past their deadline inside the broker",
            ).inc()

    def _on_deliver(self, target: int, key: int, time: float) -> None:
        """Application arrival: filter interest + deadline, then record."""
        deadline = self._deadlines.get(key)
        if deadline is not None and time >= deadline:
            self.late_drops += 1
            return
        if target in self._interested.get(key, ()):
            self.ledger.record(key, target, time)

    # -- the protected pipeline ----------------------------------------------

    def _load_signal(self, now: float) -> float:
        """The monitor's scalar: worst of queue-fill and head latency."""
        fill = self.queue.fill_fraction
        wait = self.queue.head_wait(now)
        return max(fill, wait / self.config.effective_latency_budget)

    def _observe(self, now: float) -> BrokerHealth:
        """Feed the monitor one sample, metering any state change."""
        before = self.monitor.state
        state = self.monitor.observe(now, self._load_signal(now))
        if state is not before and self.telemetry.enabled:
            self.telemetry.counter(
                "overload.health_transitions",
                help="health state entries, by state",
                state=state.value,
            ).inc()
            self.telemetry.event("health-transition", state=state.value)
        return state

    def _ingress(self, sequence: int) -> None:
        """The publisher edge: admission control + bounded queueing."""
        now = self.simulator.now
        config = self.config
        deadline = now + config.ttl if config.ttl is not None else None
        self._deadlines[sequence] = deadline
        state = self._observe(now)
        if self.telemetry.enabled:
            self.telemetry.gauge(
                "overload.queue_depth", help="ingress queue depth"
            ).set(self.queue.depth)
        if state is BrokerHealth.OVERLOADED:
            self._shed(sequence, "overloaded")
            return
        if self.bucket is not None and not self.bucket.try_acquire(now):
            self._shed(sequence, "admission")
            return
        victims = self.queue.offer(sequence, now, deadline)
        for victim in self.queue.expired_in_last_offer():
            self._expire(victim)
        for victim in victims:
            self._shed(
                victim,
                "queue-full"
                if victim == sequence
                else f"evicted ({self.queue.policy})",
            )
            if victim == sequence:
                return
        self._ensure_serving()

    def _ensure_serving(self) -> None:
        if self._serving or self.queue.depth == 0:
            return
        self._serving = True
        self.simulator.schedule(self.config.service_time, self._serve)

    def _serve(self) -> None:
        """Drain one event from the ingress queue and publish it."""
        now = self.simulator.now
        sequence, expired = self.queue.poll(now)
        for victim in expired:
            self._expire(victim)
        if sequence is None:
            self._serving = False
            return
        deadline = self._deadlines.get(sequence)
        if deadline is not None and now >= deadline:
            self._expire(sequence)
        else:
            state = self._observe(now)
            self._publish(sequence, degraded=state is not BrokerHealth.HEALTHY)
        if self.queue.depth > 0:
            self.simulator.schedule(self.config.service_time, self._serve)
        else:
            self._serving = False

    def _publish(self, sequence: int, degraded: bool) -> None:
        """Plan (flooding ``M_q`` when degraded) and hand off to the network."""
        event = Event.create(
            sequence,
            self._publishers[sequence],
            self._points[sequence],
            deadline=self._deadlines.get(sequence),
        )
        plan = self.broker.plan(
            event, degraded=degraded, telemetry=self.telemetry
        )
        recipients = plan.recipients
        if plan.flooded:
            # The paper's S_q fallback skipped the match as *broker
            # work*.  Ground truth for the delivery ledger (and the
            # receivers' local subscription filter) is still the exact
            # interested set, so the verifier computes it on the side.
            self.degraded_events += 1
            exact = self.broker.engine.match(event)
            recipients = list(exact.recipients_from(event.publisher))
        self._interested[sequence] = frozenset(recipients)
        self.outcomes.finish(sequence, "delivered")
        if plan.decision.method is not DeliveryMethod.NOT_SENT:
            self.ledger.expect(sequence, recipients, self.simulator.now)
        dispatch(
            self.broker,
            plan,
            self.network,
            lambda node, time: self._on_deliver(node, sequence, time),
            self.transport,
            telemetry=self.telemetry,
        )

    # -- the run -------------------------------------------------------------

    def run(
        self,
        points: np.ndarray,
        publishers: Sequence[int],
        arrival_times: Sequence[float],
        churn: Sequence[Tuple[float, Callable[[], None]]] = (),
    ) -> OverloadReport:
        """Replay the storm and report what the protection stack did."""
        self._load(points, publishers, arrival_times)
        for sequence, time in enumerate(arrival_times):
            self.simulator.schedule_at(
                float(time), lambda s=sequence: self._ingress(s)
            )
        for time, action in churn:
            self.simulator.schedule_at(float(time), action)
        finished_at = self.simulator.run()

        # Anything still queued at simulation end was never served:
        # account it so the ledger closes.
        while True:
            sequence, expired = self.queue.poll(finished_at)
            for victim in expired:
                self._expire(victim)
            if sequence is None:
                break
            self._shed(sequence, "unserved at simulation end")

        counts = self.outcomes.counts
        default_reason = (
            "unacknowledged at simulation end"
            if self.reliable
            else "lost (no retransmission)"
        )
        return OverloadReport(
            published=len(self._points),
            delivered_events=counts["delivered"],
            shed_events=counts["shed"],
            expired_events=counts["expired"],
            shed_reasons=dict(sorted(self.shed_reasons.items())),
            degraded_events=self.degraded_events,
            peak_queue_depth=self.queue.stats.peak_depth,
            queue_capacity=self.queue.capacity,
            health_transitions=[
                (time, state.value) for time, state in self.monitor.transitions
            ],
            health_samples={
                state.value: count
                for state, count in self.monitor.samples.items()
            },
            admission_rejected=(
                self.bucket.stats.rejected if self.bucket is not None else 0
            ),
            breaker_opens=self.breakers.stats.opens,
            breaker_closes=self.breakers.stats.closes,
            short_circuited=self.breakers.stats.short_circuits,
            open_targets=self.breakers.open_targets(),
            expected=self.ledger.expected_total,
            delivered=self.ledger.delivered_distinct,
            duplicate_deliveries=self.ledger.duplicate_deliveries,
            late_drops=self.late_drops,
            missing=self.ledger.missing(default_reason),
            latency=LatencyStats.from_samples(self.ledger.latencies),
            finished_at=finished_at,
            fault_stats=self.injector.stats,
            reliability=(
                self.transport.stats if self.transport is not None else None
            ),
        )
