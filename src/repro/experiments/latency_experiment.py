"""Packet-level latency/congestion study (extension experiment).

The paper scores delivery schemes in summed edge-cost units.  This
experiment replays the same workloads through the store-and-forward
simulator (:mod:`repro.simulation`) and reports what cost units hide:
per-recipient latency percentiles, link transmission counts, and
queueing under bursty publication.

The shape to expect: as the threshold moves from always-multicast
(t=0) through the tuned region to always-unicast (t→1), transmissions
per delivery change with the amount of group waste vs path sharing,
and under a burst the unicast storm pays visibly more queueing delay
on the publishers' access links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..clustering.kmeans import ForgyKMeansClustering
from ..core.distribution import ThresholdPolicy
from ..simulation.delivery import DeliverySimulation, SimulationReport
from .config import ExperimentConfig
from .testbed import Testbed, build_testbed

__all__ = ["LatencyRow", "run_latency_experiment"]


@dataclass(frozen=True)
class LatencyRow:
    """One threshold x arrival-pattern measurement."""

    threshold: float
    arrival: str  # "burst" or "paced"
    report: SimulationReport

    @property
    def label(self) -> str:
        return f"t={self.threshold:.2f}/{self.arrival}"


def run_latency_experiment(
    config: ExperimentConfig,
    testbed: Optional[Testbed] = None,
    modes: int = 9,
    num_groups: int = 11,
    thresholds: Sequence[float] = (0.0, 0.10, 1.0),
    num_events: int = 200,
) -> List[LatencyRow]:
    """Replay one scenario through the packet simulator."""
    if testbed is None:
        testbed = build_testbed(config)
    broker = testbed.make_broker(
        ForgyKMeansClustering(), num_groups=num_groups, modes=modes
    )
    points, publishers = testbed.publications(modes, count=num_events)

    rows: List[LatencyRow] = []
    for threshold in thresholds:
        sibling = broker.with_policy(ThresholdPolicy(threshold))
        for arrival, schedule in (
            ("burst", [0.0] * num_events),
            ("paced", None),
        ):
            simulation = DeliverySimulation(sibling)
            if schedule is None:
                report = simulation.run(
                    points, publishers, inter_arrival=10.0
                )
            else:
                report = simulation.run(
                    points, publishers, arrival_times=schedule
                )
            rows.append(
                LatencyRow(
                    threshold=float(threshold),
                    arrival=arrival,
                    report=report,
                )
            )
    return rows
