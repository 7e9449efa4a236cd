"""Group-efficiency measures and threshold tuning (paper Section 6).

The paper closes with an open question:

    "It would be nice to have some theoretical and practical measures
    which could help determine how efficient a multicast group has to
    be in order to actually employ it. ... The question is where to
    draw the line on this.  We leave this for future work."

This module draws that line empirically.  Given a preprocessed broker
and a training workload it:

- collects, per multicast group, the joint samples the decision
  actually trades off — the interested ratio ``|s|/|M_q|``, the
  unicast cost to exactly the interested subscribers, and the group's
  multicast tree cost;
- computes the **oracle** delivery cost (per event, the cheaper of the
  two options) — the unbeatable bound for any threshold-type rule;
- for every group, picks the threshold that minimizes realized cost on
  the training sample, yielding a
  :class:`~repro.core.distribution.PerGroupThresholdPolicy`;
- reports per-group efficiency statistics (how often multicast wins,
  expected waste per multicast, the break-even ratio).

The resulting per-group policy can only improve on the best single
global threshold *on the training workload*; the generalization gap to
a held-out workload is measured by the extension benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..network.multicast import CostTally
from .broker import PubSubBroker
from .distribution import PerGroupThresholdPolicy
from .event import Event

__all__ = [
    "GroupSample",
    "GroupEfficiency",
    "TuningReport",
    "ThresholdTuner",
    "oracle_tally",
]

#: Candidate thresholds evaluated per group by default.
DEFAULT_CANDIDATES = (
    0.0, 0.02, 0.05, 0.08, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50, 0.75, 1.01,
)


@dataclass(frozen=True)
class GroupSample:
    """One training event that landed in a given group."""

    interested: int
    group_size: int
    unicast_cost: float
    multicast_cost: float

    @property
    def ratio(self) -> float:
        """The interested proportion the threshold rule thresholds."""
        if self.group_size <= 0:
            return 0.0
        return self.interested / self.group_size

    @property
    def oracle_cost(self) -> float:
        """Cost of the per-event optimal choice."""
        return min(self.unicast_cost, self.multicast_cost)


@dataclass(frozen=True)
class GroupEfficiency:
    """Empirical efficiency measures for one multicast group."""

    group: int
    group_size: int
    events: int
    multicast_win_rate: float  # fraction of events where multicast wins
    mean_ratio: float
    best_threshold: float
    cost_at_best: float
    cost_at_oracle: float


@dataclass
class TuningReport:
    """Everything the tuner learned from the training workload."""

    policy: PerGroupThresholdPolicy
    per_group: List[GroupEfficiency]
    catchall_events: int
    unmatched_events: int


class ThresholdTuner:
    """Learns per-group thresholds from a training workload."""

    def __init__(
        self,
        broker: PubSubBroker,
        candidates: Sequence[float] = DEFAULT_CANDIDATES,
        default_threshold: float = 0.15,
    ):
        if not candidates:
            raise ValueError("need at least one candidate threshold")
        self.broker = broker
        self.candidates = tuple(sorted(candidates))
        self.default_threshold = default_threshold

    def collect(
        self, points: np.ndarray, publishers: Sequence[int]
    ) -> Tuple[Dict[int, List[GroupSample]], int, int]:
        """Gather per-group decision samples from a workload.

        Returns ``(samples_by_group, catchall_events, unmatched)``.
        """
        broker = self.broker
        samples: Dict[int, List[GroupSample]] = {}
        catchall = 0
        unmatched = 0
        points = np.asarray(points, dtype=np.float64)
        for sequence, (row, publisher) in enumerate(zip(points, publishers)):
            event = Event.create(sequence, int(publisher), row)
            match = broker.engine.match(event)
            if match.is_empty:
                unmatched += 1
                continue
            q = broker.partition.locate(event.point)
            if q == 0:
                catchall += 1
                continue
            group = broker.partition.group(q)
            recipients = match.recipients_from(event.publisher)
            samples.setdefault(q, []).append(
                GroupSample(
                    interested=match.num_subscribers,
                    group_size=group.size,
                    unicast_cost=broker.costs.unicast_cost(
                        event.publisher, recipients
                    ),
                    multicast_cost=broker.costs.multicast_cost(
                        event.publisher, group.member_set
                    ),
                )
            )
        return samples, catchall, unmatched

    def tune(
        self, points: np.ndarray, publishers: Sequence[int]
    ) -> TuningReport:
        """Pick the cost-minimizing threshold for every group."""
        samples, catchall, unmatched = self.collect(points, publishers)
        per_group: List[GroupEfficiency] = []
        thresholds: Dict[int, float] = {}
        for q in sorted(samples):
            group_samples = samples[q]
            best_threshold, best_cost = self._best_threshold(group_samples)
            thresholds[q] = min(best_threshold, 1.0)
            oracle = sum(s.oracle_cost for s in group_samples)
            wins = sum(
                1
                for s in group_samples
                if s.multicast_cost < s.unicast_cost
            )
            per_group.append(
                GroupEfficiency(
                    group=q,
                    group_size=group_samples[0].group_size,
                    events=len(group_samples),
                    multicast_win_rate=wins / len(group_samples),
                    mean_ratio=float(
                        np.mean([s.ratio for s in group_samples])
                    ),
                    best_threshold=min(best_threshold, 1.0),
                    cost_at_best=best_cost,
                    cost_at_oracle=oracle,
                )
            )
        policy = PerGroupThresholdPolicy(
            default_threshold=self.default_threshold,
            per_group=thresholds,
        )
        return TuningReport(
            policy=policy,
            per_group=per_group,
            catchall_events=catchall,
            unmatched_events=unmatched,
        )

    def _best_threshold(
        self, group_samples: List[GroupSample]
    ) -> Tuple[float, float]:
        """Cost-minimizing candidate (ties -> smallest threshold)."""
        best_threshold = self.candidates[0]
        best_cost = float("inf")
        for candidate in self.candidates:
            cost = sum(
                s.unicast_cost
                if s.ratio < candidate
                else s.multicast_cost
                for s in group_samples
            )
            if cost < best_cost - 1e-12:
                best_cost = cost
                best_threshold = candidate
        return best_threshold, best_cost


def oracle_tally(
    broker: PubSubBroker,
    points: np.ndarray,
    publishers: Sequence[int],
) -> CostTally:
    """Run a workload with per-event *optimal* unicast/multicast choices.

    This is the tightest bound any threshold-style rule can approach
    while restricted to the precomputed groups; the remaining gap to
    100% improvement is the price of the groups themselves.
    """
    tally = CostTally()
    points = np.asarray(points, dtype=np.float64)
    for sequence, (row, publisher) in enumerate(zip(points, publishers)):
        event = Event.create(sequence, int(publisher), row)
        match = broker.engine.match(event)
        if match.is_empty:
            tally.skip()
            continue
        recipients = match.recipients_from(event.publisher)
        unicast = broker.costs.unicast_cost(event.publisher, recipients)
        ideal = broker.costs.ideal_cost(event.publisher, recipients)
        q = broker.partition.locate(event.point)
        if q == 0:
            scheme, used_multicast = unicast, False
        else:
            members = broker.partition.group(q).member_set
            multicast = broker.costs.multicast_cost(
                event.publisher, members
            )
            if multicast < unicast:
                scheme, used_multicast = multicast, True
            else:
                scheme, used_multicast = unicast, False
        tally.add(
            scheme_cost=scheme,
            unicast_cost=unicast,
            ideal_cost=ideal,
            recipients=match.num_subscribers,
            used_multicast=used_multicast,
        )
    return tally
