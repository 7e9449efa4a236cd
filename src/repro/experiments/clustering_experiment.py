"""Clustering-algorithm comparison (paper Appendix / Section 5.2).

The paper's qualitative claims, which this experiment quantifies on
the reproduction testbed:

- Forgy k-means "performs the best in most of the experiments" and
  "has the shortest running time on a fixed set of input data";
- pairwise grouping "can achieve better performance than k-means
  [but] its running time characteristics are significantly worse";
- minimum spanning tree "did not perform as well as the others...
  but its running time characteristics are much better than those of
  pairwise grouping".

Reported per algorithm and group count: preprocessing runtime, the
expected-waste objective, catchall coverage, and the realized
improvement percentage at the static (t=0) and recommended (t=0.15)
thresholds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from ..clustering.grid import EventGrid
from ..clustering.groups import SpacePartition
from .config import ExperimentConfig
from .figure6 import default_algorithms, sweep_thresholds
from .testbed import Testbed, build_testbed

__all__ = ["ClusteringRow", "run_clustering_comparison"]


@dataclass(frozen=True)
class ClusteringRow:
    """One algorithm × group-count measurement."""

    algorithm: str
    num_groups: int
    cluster_seconds: float
    expected_waste: float
    covered_probability: float
    improvement_static: float
    improvement_at_15: float


def run_clustering_comparison(
    config: ExperimentConfig,
    testbed: Optional[Testbed] = None,
    modes: int = 9,
) -> List[ClusteringRow]:
    """Compare the :func:`default_algorithms` on one scenario."""
    if testbed is None:
        testbed = build_testbed(config)
    algorithms = default_algorithms()
    density = testbed.density(modes)
    grid = EventGrid(
        testbed.table.rectangles(),
        [s.subscriber for s in testbed.table],
        density=density,
        cells_per_dim=config.cells_per_dim,
    )
    points, publishers = testbed.publications(modes)

    rows: List[ClusteringRow] = []
    for num_groups in config.group_counts:
        for algorithm in algorithms:
            start = time.perf_counter()
            result = algorithm.cluster(
                grid, num_groups, max_cells=config.max_cells
            )
            cluster_seconds = time.perf_counter() - start
            partition = SpacePartition(grid, result)

            from ..core.broker import PubSubBroker

            broker = PubSubBroker(
                testbed.topology,
                testbed.table,
                partition,
                matcher_backend=config.matcher_backend,
                cost_model=testbed.cost_model,
            )
            curve = sweep_thresholds(
                broker, points, publishers, (0.0, 0.15)
            )
            rows.append(
                ClusteringRow(
                    algorithm=algorithm.name,
                    num_groups=num_groups,
                    cluster_seconds=cluster_seconds,
                    expected_waste=result.total_expected_waste(),
                    covered_probability=partition.covered_probability(),
                    improvement_static=curve[0].improvement_percent,
                    improvement_at_15=curve[1].improvement_percent,
                )
            )
    return rows
