"""Matching-index comparison (paper Section 3).

The paper presents the S-tree as its matching structure and defers a
full index bake-off to "a subsequent paper"; this experiment provides
that comparison on the reproduction testbed: for each index backend
and subscription count, build time, per-query latency, node accesses
per query and entries tested per query.

The shape to expect: the trees examine far fewer entries than the
linear scan for large ``k``, and the S-tree's packed, possibly
unbalanced layout keeps its node accesses competitive with the
Hilbert-packed R-tree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.matching import MATCHER_BACKENDS
from ..core.subscription import SubscriptionTable
from .config import ExperimentConfig
from .testbed import Testbed, build_testbed

__all__ = ["MatchingRow", "run_matching_comparison"]


@dataclass(frozen=True)
class MatchingRow:
    """One backend × subscription-count measurement."""

    backend: str
    num_subscriptions: int
    build_seconds: float
    query_microseconds: float
    nodes_per_query: float
    entries_per_query: float
    mean_matches: float


def run_matching_comparison(
    config: ExperimentConfig,
    testbed: Optional[Testbed] = None,
    subscription_counts: Sequence[int] = (250, 1000, 4000),
    num_queries: int = 200,
) -> List[MatchingRow]:
    """Measure every backend at several subscription scales.

    Subscription sets beyond the testbed's size are generated by
    cycling the generator with fresh seeds, so all scales share the
    same distributional shape.
    """
    if testbed is None:
        testbed = build_testbed(config)
    from ..workload.subscriptions import StockSubscriptionGenerator

    max_count = max(subscription_counts)
    generator = StockSubscriptionGenerator(
        testbed.topology, seed=config.seed + 99
    )
    placed = generator.generate(max_count)
    points, _ = testbed.publications(9, count=num_queries)

    rows: List[MatchingRow] = []
    for count in subscription_counts:
        table = SubscriptionTable.from_placed(placed[:count])
        lows, highs = table.to_arrays()
        for backend in ("stree", "rtree", "grid", "counting", "linear"):
            matcher_cls = MATCHER_BACKENDS[backend]
            start = time.perf_counter()
            matcher = matcher_cls.build(lows, highs)
            build_seconds = time.perf_counter() - start

            matcher.stats.reset()
            total_matches = 0
            start = time.perf_counter()
            for point in points:
                total_matches += len(matcher.match(point))
            elapsed = time.perf_counter() - start

            rows.append(
                MatchingRow(
                    backend=backend,
                    num_subscriptions=count,
                    build_seconds=build_seconds,
                    query_microseconds=elapsed / num_queries * 1e6,
                    nodes_per_query=matcher.stats.nodes_per_query,
                    entries_per_query=matcher.stats.entries_per_query,
                    mean_matches=total_matches / num_queries,
                )
            )
    return rows
