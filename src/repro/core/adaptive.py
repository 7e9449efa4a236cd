"""Online (adaptive) threshold control.

The offline :class:`~repro.core.tuning.ThresholdTuner` needs a
training workload and a sweep; this module learns the same per-group
thresholds *while operating*, from the feedback each delivery already
produces.  For every group it maintains running cost averages for the
two actions as a function of the observed interested ratio, and sets
its threshold to the empirical break-even point.

The estimator is deliberately simple and deterministic: per group it
keeps ratio-bucketed averages of the unicast cost of the interested
set and of the group's multicast cost, explores both actions while a
bucket is cold, and places the threshold at the lowest bucket boundary
where multicast's estimated cost drops below unicast's.  The extension
benchmark shows it converging toward the offline-tuned policy within a
few hundred events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from .distribution import DeliveryMethod, DistributionDecision

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.multicast import CostTally
    from .broker import PubSubBroker

__all__ = ["AdaptiveThresholdPolicy", "run_adaptive"]

#: Default ratio-bucket boundaries (upper edges).
DEFAULT_BUCKETS = (0.02, 0.05, 0.10, 0.15, 0.25, 0.40, 0.60, 1.01)


@dataclass
class _Bucket:
    """Running averages for one (group, ratio-bucket) pair."""

    unicast_total: float = 0.0
    unicast_count: int = 0
    multicast_total: float = 0.0
    multicast_count: int = 0

    def unicast_mean(self) -> float:
        if self.unicast_count == 0:
            return float("inf")
        return self.unicast_total / self.unicast_count

    def multicast_mean(self) -> float:
        if self.multicast_count == 0:
            return float("inf")
        return self.multicast_total / self.multicast_count

    @property
    def warm(self) -> bool:
        return self.unicast_count >= 1 and self.multicast_count >= 1


class AdaptiveThresholdPolicy:
    """A distribution policy that learns thresholds from feedback.

    Usage pattern (see
    :meth:`~repro.core.broker.PubSubBroker.publish`): the broker calls
    :meth:`decide` like any policy; the *caller* then reports what the
    delivery cost via :meth:`observe` — both the realized action's
    cost and (when cheaply available) the counterfactual's.  The
    simulation harness knows both, which makes the feedback loop exact;
    a live system would estimate the counterfactual from its routing
    tables exactly as the cost model here does.
    """

    def __init__(
        self,
        initial_threshold: float = 0.15,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        exploration: int = 3,
    ):
        if not 0.0 <= initial_threshold <= 1.0:
            raise ValueError("initial_threshold must lie in [0, 1]")
        if sorted(buckets) != list(buckets) or len(buckets) < 2:
            raise ValueError("buckets must be a sorted tuple (>= 2 edges)")
        if exploration < 1:
            raise ValueError("exploration must be positive")
        self.initial_threshold = initial_threshold
        self.buckets = buckets
        self.exploration = exploration
        self._stats: Dict[int, List[_Bucket]] = {}
        self._thresholds: Dict[int, float] = {}
        self._flip = 0  # deterministic explore alternator

    # -- policy interface ------------------------------------------------------

    def threshold_for(self, group: int) -> float:
        """The group's current learned threshold."""
        return self._thresholds.get(group, self.initial_threshold)

    def decide(
        self, interested: int, group_size: int, group: int
    ) -> DistributionDecision:
        """Same contract as the static policies."""
        if interested < 0 or group_size < 0:
            raise ValueError("counts must be non-negative")
        if interested == 0:
            return DistributionDecision(
                DeliveryMethod.NOT_SENT, 0, group_size, group
            )
        if group == 0 or group_size == 0:
            return DistributionDecision(
                DeliveryMethod.UNICAST, interested, group_size, group
            )
        ratio = interested / group_size
        bucket = self._bucket_of(group, ratio)
        if not bucket.warm or (
            bucket.unicast_count + bucket.multicast_count
            < self.exploration * 2
        ):
            # Cold bucket: alternate actions deterministically so both
            # arms collect samples.
            self._flip ^= 1
            method = (
                DeliveryMethod.MULTICAST
                if self._flip
                else DeliveryMethod.UNICAST
            )
        elif ratio < self.threshold_for(group):
            method = DeliveryMethod.UNICAST
        else:
            method = DeliveryMethod.MULTICAST
        return DistributionDecision(method, interested, group_size, group)

    # -- learning -----------------------------------------------------------------

    def observe(
        self,
        group: int,
        interested: int,
        group_size: int,
        unicast_cost: float,
        multicast_cost: float,
    ) -> None:
        """Feed one event's cost pair back into the estimator."""
        if group <= 0 or group_size <= 0 or interested <= 0:
            return
        ratio = interested / group_size
        bucket = self._bucket_of(group, ratio)
        bucket.unicast_total += unicast_cost
        bucket.unicast_count += 1
        bucket.multicast_total += multicast_cost
        bucket.multicast_count += 1
        self._refresh_threshold(group)

    def _bucket_of(self, group: int, ratio: float) -> _Bucket:
        buckets = self._stats.get(group)
        if buckets is None:
            buckets = [_Bucket() for _ in self.buckets]
            self._stats[group] = buckets
        return buckets[self._bucket_index(ratio)]

    def _bucket_index(self, ratio: float) -> int:
        for i, edge in enumerate(self.buckets):
            if ratio < edge:
                return i
        return len(self.buckets) - 1

    def _refresh_threshold(self, group: int) -> None:
        """Threshold = lower edge of the first warm bucket where
        multicast wins on average (buckets above stay multicast)."""
        buckets = self._stats[group]
        threshold = 1.0
        for i in range(len(buckets) - 1, -1, -1):
            bucket = buckets[i]
            if not bucket.warm:
                continue
            if bucket.multicast_mean() <= bucket.unicast_mean():
                threshold = 0.0 if i == 0 else self.buckets[i - 1]
            else:
                break
        self._thresholds[group] = min(threshold, 1.0)


def run_adaptive(
    broker: PubSubBroker,
    points: np.ndarray,
    publishers: Sequence[int],
    policy: Optional[AdaptiveThresholdPolicy] = None,
) -> tuple[CostTally, AdaptiveThresholdPolicy]:
    """Run a workload under an adaptive policy with exact feedback.

    Like :meth:`PubSubBroker.run`, but after each event the realized
    and counterfactual delivery costs are fed back into the policy so
    its per-group thresholds converge while the workload runs.
    """
    from ..network.multicast import CostTally
    from .event import Event

    if policy is None:
        policy = AdaptiveThresholdPolicy()
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] != len(publishers):
        raise ValueError("points must be (m, N) with one publisher per row")
    tally = CostTally()
    for sequence, (row, publisher) in enumerate(zip(points, publishers)):
        event = Event.create(sequence, int(publisher), row)
        match = broker.engine.match(event)
        q = broker.partition.locate(event.point)
        group_size = broker.partition.group(q).size if q > 0 else 0
        decision = policy.decide(
            interested=match.num_subscribers,
            group_size=group_size,
            group=q,
        )
        if decision.method is DeliveryMethod.NOT_SENT:
            tally.skip()
            continue
        recipients = match.recipients_from(event.publisher)
        unicast_cost = broker.costs.unicast_cost(
            event.publisher, recipients
        )
        ideal_cost = broker.costs.ideal_cost(event.publisher, recipients)
        if q > 0:
            members = broker.partition.group(q).member_set
            multicast_cost = broker.costs.multicast_cost(
                event.publisher, members
            )
            policy.observe(
                group=q,
                interested=match.num_subscribers,
                group_size=group_size,
                unicast_cost=unicast_cost,
                multicast_cost=multicast_cost,
            )
        else:
            multicast_cost = unicast_cost
        used_multicast = decision.method is DeliveryMethod.MULTICAST
        tally.add(
            scheme_cost=multicast_cost if used_multicast else unicast_cost,
            unicast_cost=unicast_cost,
            ideal_cost=ideal_cost,
            recipients=match.num_subscribers,
            used_multicast=used_multicast,
        )
    return tally, policy
