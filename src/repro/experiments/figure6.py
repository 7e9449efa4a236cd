"""Figure 6 — the headline experiment: threshold sweeps.

For each clustering algorithm (Forgy k-means, pairwise grouping,
minimum spanning tree), group count (11 and 61) and publication
scenario (1, 4 and 9 modes), sweep the distribution-method threshold
``t`` over [0, 1] and record the improvement percentage over pure
unicast delivery.  ``t = 0`` reproduces the static scheme (no dynamic
decision); the paper finds an interior optimum around ``t ≈ 0.15``.

Expected shape (what the paper's Figure 6 shows, and what the
benchmark asserts): the curve rises from its ``t = 0`` value to an
interior maximum and then decays toward 0% as ``t → 1`` (everything
unicast); 61 groups dominate 11 groups; Forgy is the consistently
strong algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..clustering.base import CellClusteringAlgorithm
from ..clustering.kmeans import ForgyKMeansClustering
from ..clustering.mst import MinimumSpanningTreeClustering
from ..clustering.pairwise import PairwiseGroupingClustering
from ..core.broker import PubSubBroker
from ..core.distribution import ThresholdPolicy
from .config import ExperimentConfig
from .testbed import Testbed, build_testbed

__all__ = [
    "ThresholdPoint",
    "SweepResult",
    "sweep_thresholds",
    "run_figure6",
    "default_algorithms",
]


@dataclass(frozen=True)
class ThresholdPoint:
    """One point on a Figure 6 curve."""

    threshold: float
    improvement_percent: float
    multicasts: int
    unicasts: int
    not_sent: int


@dataclass(frozen=True)
class SweepResult:
    """One full curve: an algorithm/groups/modes combination."""

    algorithm: str
    num_groups: int
    modes: int
    points: Tuple[ThresholdPoint, ...]

    def best(self) -> ThresholdPoint:
        """The sweep's maximum-improvement point."""
        return max(self.points, key=lambda p: p.improvement_percent)

    def at(self, threshold: float) -> ThresholdPoint:
        """The point for an exact threshold value."""
        for point in self.points:
            if abs(point.threshold - threshold) < 1e-12:
                return point
        raise KeyError(f"threshold {threshold} not in sweep")

    @property
    def static_improvement(self) -> float:
        """Improvement of the no-dynamic-decision baseline (t = 0)."""
        return self.at(0.0).improvement_percent

    @property
    def dynamic_gain(self) -> float:
        """How much the dynamic scheme adds over the static one."""
        return self.best().improvement_percent - self.static_improvement


def default_algorithms() -> List[CellClusteringAlgorithm]:
    """The paper's three clustering algorithms."""
    return [
        ForgyKMeansClustering(),
        PairwiseGroupingClustering(),
        MinimumSpanningTreeClustering(),
    ]


def sweep_thresholds(
    broker: PubSubBroker,
    points: np.ndarray,
    publishers: Sequence[int],
    thresholds: Sequence[float],
) -> List[ThresholdPoint]:
    """Evaluate one broker across threshold values.

    The expensive state (index, partition, routing, memoized group
    trees) is shared across the sweep; only the decision rule varies.
    """
    curve: List[ThresholdPoint] = []
    for threshold in thresholds:
        sibling = broker.with_policy(ThresholdPolicy(threshold))
        tally, _ = sibling.run(points, publishers)
        curve.append(
            ThresholdPoint(
                threshold=float(threshold),
                improvement_percent=tally.improvement_percent,
                multicasts=tally.multicasts_sent,
                unicasts=tally.unicasts_sent,
                not_sent=tally.messages
                - tally.multicasts_sent
                - tally.unicasts_sent,
            )
        )
    return curve


def run_figure6(
    config: ExperimentConfig,
    testbed: Optional[Testbed] = None,
) -> List[SweepResult]:
    """Run the full Figure 6 campaign over the :func:`default_algorithms`."""
    if testbed is None:
        testbed = build_testbed(config)
    algorithms = default_algorithms()
    results: List[SweepResult] = []
    for modes in config.mode_counts:
        points, publishers = testbed.publications(modes)
        for num_groups in config.group_counts:
            for algorithm in algorithms:
                broker = testbed.make_broker(
                    algorithm, num_groups=num_groups, modes=modes
                )
                curve = sweep_thresholds(
                    broker, points, publishers, config.thresholds
                )
                results.append(
                    SweepResult(
                        algorithm=algorithm.name,
                        num_groups=num_groups,
                        modes=modes,
                        points=tuple(curve),
                    )
                )
    return results
