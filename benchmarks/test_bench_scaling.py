"""Scalability — the paper's Section 2 claim.

"The sizes of the problems is defined by values of k and N, and we are
interested in algorithms that scale well with respect to these
values."  This benchmark measures exactly that:

- matching cost vs the number of subscriptions ``k`` (the S-tree's
  scanned *fraction* must fall as k grows);
- matching cost vs the dimensionality ``N`` (trees famously degrade
  with dimension; the bench records where);
- preprocessing (grid + clustering) cost vs ``k``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis import format_table
from repro.clustering import EventGrid, ForgyKMeansClustering
from repro.core import SubscriptionTable
from repro.spatial import LinearScanMatcher, STree
from repro.workload import StockSubscriptionGenerator


def synthetic_rectangles(rng, k, ndim):
    """Stock-like mixtures generalized to N dimensions."""
    centers = rng.normal(9.0, 2.0, size=(k, ndim))
    lengths = rng.pareto(1.0, size=(k, ndim)).clip(0.2, 40.0)
    lows = centers - lengths / 2
    highs = centers + lengths / 2
    # Sprinkle rays/wildcards like the paper's parametric distribution.
    for dim in range(ndim):
        rays = rng.random(k)
        lows[rays < 0.10, dim] = -np.inf
        highs[(rays >= 0.10) & (rays < 0.20), dim] = np.inf
    return lows, highs


def test_bench_scaling_with_subscriptions(benchmark, config, testbed):
    rows = []

    def run():
        rows.clear()
        generator = StockSubscriptionGenerator(
            testbed.topology, seed=config.seed + 99
        )
        placed = generator.generate(8000)
        points, _ = testbed.publications(9, count=150)
        for k in (500, 1000, 2000, 4000, 8000):
            table = SubscriptionTable.from_placed(placed[:k])
            lows, highs = table.to_arrays()
            tree = STree.build(lows, highs)
            for point in points:
                tree.match(point)
            rows.append(
                (
                    k,
                    f"{tree.stats.entries_per_query:.0f}",
                    f"{tree.stats.entries_per_query / k:.3f}",
                )
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nScaling — S-tree matching vs k (stock workload)")
    print(format_table(("k", "entries/query", "scanned fraction"), rows))
    fractions = [float(r[2]) for r in rows]
    # The scalability claim: the scanned fraction falls monotonically
    # (allowing a small tolerance for noise between adjacent sizes).
    assert fractions[-1] < fractions[0] * 0.8
    for earlier, later in zip(fractions, fractions[1:]):
        assert later <= earlier * 1.15


def test_bench_scaling_with_dimensions(benchmark, config):
    rows = []

    def run():
        rows.clear()
        rng = np.random.default_rng(config.seed)
        for ndim in (2, 4, 6, 8):
            lows, highs = synthetic_rectangles(rng, 2000, ndim)
            points = rng.normal(9.0, 3.0, size=(150, ndim))
            tree = STree.build(lows, highs)
            linear = LinearScanMatcher.build(lows, highs)
            start = time.perf_counter()
            tree_results = [tree.match(p).tolist() for p in points]
            tree_seconds = time.perf_counter() - start
            linear_results = [linear.match(p).tolist() for p in points]
            assert tree_results == linear_results
            rows.append(
                (
                    ndim,
                    f"{tree.stats.entries_per_query:.0f}",
                    f"{tree_seconds / len(points) * 1e6:.0f}",
                    f"{np.mean([len(r) for r in tree_results]):.1f}",
                )
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nScaling — S-tree matching vs dimensionality N (k=2000)")
    print(
        format_table(
            ("N", "entries/query", "query us", "matches"), rows
        )
    )
    # Correctness held at every dimensionality (asserted inline); the
    # index keeps pruning even at N=8.
    assert float(rows[-1][1]) < 2000


def test_bench_scaling_preprocessing(benchmark, config, testbed):
    rows = []

    def run():
        rows.clear()
        generator = StockSubscriptionGenerator(
            testbed.topology, seed=config.seed + 99
        )
        placed = generator.generate(4000)
        density = testbed.density(9)
        for k in (1000, 2000, 4000):
            subset = placed[:k]
            start = time.perf_counter()
            grid = EventGrid(
                [s.rectangle for s in subset],
                [s.node for s in subset],
                density=density,
                cells_per_dim=config.cells_per_dim,
            )
            grid_seconds = time.perf_counter() - start
            start = time.perf_counter()
            ForgyKMeansClustering().cluster(
                grid, 11, max_cells=config.max_cells
            )
            cluster_seconds = time.perf_counter() - start
            rows.append(
                (
                    k,
                    grid.num_occupied_cells,
                    f"{grid_seconds:.2f}",
                    f"{cluster_seconds * 1000:.0f}",
                )
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nScaling — preprocessing vs k")
    print(
        format_table(
            ("k", "occupied cells", "grid s", "cluster ms"), rows
        )
    )
    # Clustering cost is governed by T (=200 cells), not k: it must
    # not blow up as subscriptions quadruple.
    cluster_times = [float(r[3]) for r in rows]
    assert cluster_times[-1] < 20 * max(cluster_times[0], 1.0)
