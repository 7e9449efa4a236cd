"""Multi-seed replication of the headline result.

A reproduction's conclusions should not hinge on one lucky random
testbed.  This experiment regenerates the *entire* stack — topology,
subscriptions, publications — under several independent seeds and
re-runs the Figure 6 scenario (Forgy, 11 groups, 9 modes) on each,
reporting the distribution of the static improvement, the best
dynamic improvement and the optimal threshold across replicates.

The shape claims that must survive every replicate: positive
improvement, dynamic ≥ static, and a small optimal threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..clustering.kmeans import ForgyKMeansClustering
from .config import ExperimentConfig
from .figure6 import SweepResult, sweep_thresholds
from .testbed import build_testbed

__all__ = ["Replicate", "ReplicationSummary", "run_replication"]


@dataclass(frozen=True)
class Replicate:
    """One seed's outcome."""

    seed: int
    static_improvement: float
    best_improvement: float
    best_threshold: float

    @property
    def dynamic_gain(self) -> float:
        return self.best_improvement - self.static_improvement


@dataclass(frozen=True)
class ReplicationSummary:
    """Across-seed statistics."""

    replicates: Tuple[Replicate, ...]

    def all_shapes_hold(self) -> bool:
        """The reproduction's qualitative claims, on every seed."""
        return all(
            r.best_improvement > 0.0
            and r.dynamic_gain >= -1e-9
            and r.best_threshold <= 0.5
            for r in self.replicates
        )


def run_replication(
    base_config: ExperimentConfig,
    seeds: Sequence[int] = (11, 23, 47, 89, 151),
    num_groups: int = 11,
    modes: int = 9,
) -> ReplicationSummary:
    """Re-run the headline scenario under independent seeds."""
    replicates: List[Replicate] = []
    for seed in seeds:
        config = ExperimentConfig(
            seed=int(seed),
            num_subscriptions=base_config.num_subscriptions,
            num_events=base_config.num_events,
            cells_per_dim=base_config.cells_per_dim,
            max_cells=base_config.max_cells,
            group_counts=(num_groups,),
            mode_counts=(modes,),
            thresholds=base_config.thresholds,
        )
        testbed = build_testbed(config)
        broker = testbed.make_broker(
            ForgyKMeansClustering(), num_groups=num_groups, modes=modes
        )
        points, publishers = testbed.publications(modes)
        curve = sweep_thresholds(
            broker, points, publishers, config.thresholds
        )
        sweep = SweepResult(
            algorithm="forgy",
            num_groups=num_groups,
            modes=modes,
            points=tuple(curve),
        )
        best = sweep.best()
        replicates.append(
            Replicate(
                seed=int(seed),
                static_improvement=sweep.static_improvement,
                best_improvement=best.improvement_percent,
                best_threshold=best.threshold,
            )
        )
    return ReplicationSummary(replicates=tuple(replicates))
