"""Packet-level replay of a pub-sub workload.

Takes a preprocessed :class:`~repro.core.broker.PubSubBroker`, a
publication workload and an arrival schedule, and plays the broker's
per-event decisions (unicast fan-out vs dense-mode multicast tree)
through the store-and-forward :class:`~repro.simulation.packet_network.
PacketNetwork`.  The output adds the dimension the paper's cost units
cannot show: per-recipient latency (including queueing) and link-level
transmission counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.broker import PubSubBroker
from ..core.distribution import DeliveryMethod
from ..core.event import Event
from .engine import DiscreteEventSimulator
from .packet_network import PacketNetwork

__all__ = ["LatencyStats", "SimulationReport", "DeliverySimulation"]


@dataclass(frozen=True)
class LatencyStats:
    """Summary of a latency sample."""

    count: int
    mean: float
    p50: float
    p95: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> LatencyStats:
        data = np.asarray(samples, dtype=np.float64)
        if data.size == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            count=len(data),
            mean=float(data.mean()),
            p50=float(np.percentile(data, 50)),
            p95=float(np.percentile(data, 95)),
            maximum=float(data.max()),
        )


@dataclass
class SimulationReport:
    """Everything measured during one packet-level replay."""

    latency: LatencyStats
    deliveries: int
    transmissions: int
    queueing_delay: float
    max_link_queue: float
    multicasts: int
    unicasts: int
    not_sent: int
    finished_at: float

    @property
    def transmissions_per_delivery(self) -> float:
        """Link copies spent per successful delivery (lower = better)."""
        if self.deliveries == 0:
            return 0.0
        return self.transmissions / self.deliveries


class DeliverySimulation:
    """Replays a workload through the packet network."""

    def __init__(self, broker: PubSubBroker):
        self.broker = broker
        self.simulator = DiscreteEventSimulator()
        self.network = PacketNetwork(broker.topology, self.simulator)

    def run(
        self,
        points: np.ndarray,
        publishers: Sequence[int],
        inter_arrival: float = 1.0,
        arrival_times: Optional[Sequence[float]] = None,
    ) -> SimulationReport:
        """Publish the workload on a schedule and measure transport.

        Events arrive every ``inter_arrival`` time units by default;
        pass ``arrival_times`` for an explicit schedule (e.g. a burst
        of zeros to model a market-open storm).  Latency is measured
        from an event's publication instant to each recipient's
        delivery instant.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] != len(publishers):
            raise ValueError(
                "points must be (m, N) with one publisher per row"
            )
        if arrival_times is None:
            arrival_times = [i * inter_arrival for i in range(len(points))]
        if len(arrival_times) != len(points):
            raise ValueError("one arrival time per event required")

        latencies: List[float] = []
        counters = {"multicast": 0, "unicast": 0, "not_sent": 0}

        def publish(sequence: int) -> None:
            event, match, q, decision, root, _flooded = self.broker.plan(
                Event.create(
                    sequence, int(publishers[sequence]), points[sequence]
                )
            )
            if root is not None:
                root.set_attribute("method", decision.method.value).finish()
            if decision.method is DeliveryMethod.NOT_SENT:
                counters["not_sent"] += 1
                return
            published_at = self.simulator.now
            interested = set(match.subscribers)

            def delivered(node: int, time: float) -> None:
                # Only interested recipients count toward latency;
                # uninterested group members filter the message out.
                if node in interested:
                    latencies.append(time - published_at)

            if decision.method is DeliveryMethod.UNICAST:
                counters["unicast"] += 1
                for node in match.subscribers:
                    if node != event.publisher:
                        self.network.send_unicast(
                            event.publisher, node, delivered
                        )
                    else:
                        latencies.append(0.0)
            else:
                counters["multicast"] += 1
                members = self.broker.partition.group(q).members
                # Honor the broker's router mode: sparse-mode cost
                # models flow packets via the group's rendezvous point.
                via = None
                if self.broker.costs.multicast_mode == "sparse":
                    via = self.broker.costs.rendezvous_point(members)
                self.network.send_multicast(
                    event.publisher, members, delivered, via=via
                )
                if (
                    event.publisher in interested
                    and event.publisher not in members
                ):
                    latencies.append(0.0)

        for sequence, time in enumerate(arrival_times):
            self.simulator.schedule_at(
                float(time), lambda s=sequence: publish(s)
            )
        finished_at = self.simulator.run()

        return SimulationReport(
            latency=LatencyStats.from_samples(latencies),
            deliveries=len(latencies),
            transmissions=self.network.log.transmissions,
            queueing_delay=self.network.log.queueing_delay,
            max_link_queue=self.network.log.max_link_queue,
            multicasts=counters["multicast"],
            unicasts=counters["unicast"],
            not_sent=counters["not_sent"],
            finished_at=finished_at,
        )
