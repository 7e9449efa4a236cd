"""Ablations over the design choices DESIGN.md calls out.

Each ablation varies one knob of the system and reports its effect:

- S-tree skew factor ``p`` (paper: "typically chosen to be about 0.3");
- S-tree branch factor ``M`` (paper: "typically chosen to be about 40");
- binarization sweep increment (paper sweeps "in increments of M");
- split-dimension rule (the ICDCS text's longest-dimension heuristic
  vs the best-dimension sweep this library defaults to);
- grid resolution ``C`` and working-cell budget ``T`` for clustering.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import format_table
from repro.clustering import EventGrid, ForgyKMeansClustering, SpacePartition
from repro.core import SubscriptionTable
from repro.spatial import STree, STreeParams
from repro.workload import StockSubscriptionGenerator


@pytest.fixture(scope="module")
def index_workload(testbed, config):
    placed = StockSubscriptionGenerator(
        testbed.topology, seed=config.seed + 99
    ).generate(4000)
    table = SubscriptionTable.from_placed(placed)
    lows, highs = table.to_arrays()
    points, _ = testbed.publications(9, count=200)
    return lows, highs, points


def _entries_per_query(tree, points):
    tree.stats.reset()
    for point in points:
        tree.match(point)
    return tree.stats.entries_per_query


def test_bench_ablation_stree_skew_factor(benchmark, index_workload):
    lows, highs, points = index_workload
    rows = []

    def sweep():
        rows.clear()
        for p in (0.1, 0.2, 0.3, 0.4, 0.5):
            tree = STree.build(
                lows, highs, params=STreeParams(skew_factor=p)
            )
            shape = tree.shape()
            rows.append(
                (
                    p,
                    shape.height,
                    shape.skewness,
                    f"{_entries_per_query(tree, points):.0f}",
                )
            )
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nAblation — S-tree skew factor p")
    print(
        format_table(("p", "height", "skew", "entries/q"), rows)
    )
    # Every setting must stay a correct, reasonably-pruning index.
    for _, _, _, entries in rows:
        assert float(entries) < len(lows) * 0.5


def test_bench_ablation_stree_branch_factor(benchmark, index_workload):
    lows, highs, points = index_workload
    rows = []

    def sweep():
        rows.clear()
        for m in (8, 20, 40, 80):
            start = time.perf_counter()
            tree = STree.build(
                lows, highs, params=STreeParams(branch_factor=m)
            )
            build = time.perf_counter() - start
            rows.append(
                (
                    m,
                    tree.shape().height,
                    f"{build * 1000:.0f}",
                    f"{_entries_per_query(tree, points):.0f}",
                )
            )
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nAblation — S-tree branch factor M")
    print(format_table(("M", "height", "build ms", "entries/q"), rows))
    # Larger M gives shorter trees.
    heights = [row[1] for row in rows]
    assert heights == sorted(heights, reverse=True)


def test_bench_ablation_stree_sweep_increment(benchmark, index_workload):
    """Paper sweeps splits in strides of M; stride 1 is the exhaustive
    variant.  The payoff of the stride is build speed at nearly equal
    query quality.

    Each variant is timed best of three, the two alternating, so that a
    pause of the machine during one build cannot decide the order.
    """
    lows, highs, points = index_workload
    results = {}
    variants = (("stride M", None), ("stride 1", 1))

    def run():
        builds = {label: [] for label, _ in variants}
        trees = {}
        for _ in range(3):
            for label, increment in variants:
                start = time.perf_counter()
                trees[label] = STree.build(
                    lows,
                    highs,
                    params=STreeParams(sweep_increment=increment),
                )
                builds[label].append(time.perf_counter() - start)
        for label, _ in variants:
            results[label] = (
                min(builds[label]),
                _entries_per_query(trees[label], points),
            )
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nAblation — binarization sweep increment")
    print(
        format_table(
            ("variant", "build s", "entries/q"),
            [
                (label, f"{build:.2f}", f"{entries:.0f}")
                for label, (build, entries) in results.items()
            ],
        )
    )
    coarse_build, coarse_quality = results["stride M"]
    fine_build, fine_quality = results["stride 1"]
    assert coarse_build < fine_build  # the stride is the speedup
    # ...at comparable pruning quality.
    assert coarse_quality < fine_quality * 2.0


def test_bench_ablation_stree_split_dimension(benchmark, index_workload):
    lows, highs, points = index_workload
    results = {}

    def run():
        for rule in ("best", "longest"):
            tree = STree.build(
                lows, highs, params=STreeParams(split_dimension=rule)
            )
            results[rule] = _entries_per_query(tree, points)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nAblation — split dimension rule")
    print(
        format_table(
            ("rule", "entries/q"),
            [(rule, f"{v:.0f}") for rule, v in results.items()],
        )
    )
    # On ray/wildcard-heavy stock workloads the longest-dimension
    # heuristic wastes every level on the widest dimensions; the
    # best-dimension sweep must prune strictly better.
    assert results["best"] < results["longest"]


def test_bench_ablation_grid_resolution(benchmark, testbed, config):
    """Clustering quality and cost as the grid resolution C varies."""
    density = testbed.density(9)
    rows = []

    def sweep():
        rows.clear()
        for c in (4, 8, 10, 14):
            start = time.perf_counter()
            grid = EventGrid(
                testbed.table.rectangles(),
                [s.subscriber for s in testbed.table],
                density=density,
                cells_per_dim=c,
            )
            result = ForgyKMeansClustering().cluster(
                grid, 11, max_cells=config.max_cells
            )
            elapsed = time.perf_counter() - start
            partition = SpacePartition(grid, result)
            rows.append(
                (
                    c,
                    grid.num_occupied_cells,
                    f"{elapsed:.2f}",
                    f"{result.total_expected_waste():.1f}",
                    f"{partition.covered_probability():.3f}",
                )
            )
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nAblation — grid resolution C (Forgy, 11 groups, T=200)")
    print(
        format_table(
            ("C", "cells", "time s", "EW", "coverage"), rows
        )
    )
    assert len(rows) == 4


def test_bench_ablation_forgy_seeding(benchmark, testbed, config):
    """Paper-faithful top-weight seeding vs the spread (k-means++-
    style) extension, under the EW objective and realized improvement."""
    density = testbed.density(9)
    grid = EventGrid(
        testbed.table.rectangles(),
        [s.subscriber for s in testbed.table],
        density=density,
        cells_per_dim=config.cells_per_dim,
    )
    points, publishers = testbed.publications(9)
    rows = []

    def run():
        rows.clear()
        for seeding in ("topweight", "spread"):
            algorithm = ForgyKMeansClustering(seeding=seeding)
            result = algorithm.cluster(
                grid, 11, max_cells=config.max_cells
            )
            partition = SpacePartition(grid, result)
            from repro.core import PubSubBroker, ThresholdPolicy

            broker = PubSubBroker(
                testbed.topology,
                testbed.table,
                partition,
                policy=ThresholdPolicy(0.10),
                cost_model=testbed.cost_model,
            )
            tally, _ = broker.run(points, publishers)
            rows.append(
                (
                    seeding,
                    f"{result.total_expected_waste():.1f}",
                    f"{tally.improvement_percent:.1f}%",
                )
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nAblation — Forgy seeding (11 groups, 9 modes, t=0.10)")
    print(format_table(("seeding", "EW", "improvement"), rows))
    # The spread extension must not lose on the EW objective.
    assert float(rows[1][1]) <= float(rows[0][1]) + 1e-6


def test_bench_ablation_working_cells(benchmark, testbed, config):
    """The paper's constant T (=200): more working cells buy coverage."""
    density = testbed.density(9)
    grid = EventGrid(
        testbed.table.rectangles(),
        [s.subscriber for s in testbed.table],
        density=density,
        cells_per_dim=config.cells_per_dim,
    )
    rows = []

    def sweep():
        rows.clear()
        for t_cells in (50, 100, 200, 400):
            result = ForgyKMeansClustering().cluster(
                grid, 11, max_cells=t_cells
            )
            partition = SpacePartition(grid, result)
            rows.append(
                (
                    t_cells,
                    f"{result.total_expected_waste():.1f}",
                    f"{partition.covered_probability():.3f}",
                )
            )
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nAblation — working-cell budget T (Forgy, 11 groups)")
    print(format_table(("T", "EW", "coverage"), rows))
    # Coverage grows monotonically with T.
    coverages = [float(row[2]) for row in rows]
    assert coverages == sorted(coverages)
