"""The matching problem at paper scale (Sections 2 and 3): pruning
counts, not time.

The figure of merit is the paper's: entries (containment tests) per
query.  The S-tree must test far fewer than a scan and no more than
the Hilbert-packed R-tree it is contrasted with, its scanned fraction
must fall as the table grows, and the design choices DESIGN.md calls
out (skew factor ``p``, branch factor ``M``, the sweep stride, the
split-dimension rule) must keep it pruning.  Wall-clock is measured by
``bench/``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SubscriptionTable
from repro.experiments import run_matching_comparison
from repro.spatial import LinearScanMatcher, STree, STreeParams
from repro.workload import StockSubscriptionGenerator


@pytest.fixture(scope="module")
def index_workload(paper_config, paper_testbed):
    placed = StockSubscriptionGenerator(
        paper_testbed.topology, seed=paper_config.seed + 99
    ).generate(4000)
    lows, highs = SubscriptionTable.from_placed(placed).to_arrays()
    points, _ = paper_testbed.publications(9, count=200)
    return lows, highs, points


def _entries_per_query(tree, points):
    tree.stats.reset()
    for point in points:
        tree.match(point)
    return tree.stats.entries_per_query


def test_stree_prunes_below_the_scan_and_the_rtree(paper_config, paper_testbed):
    rows = run_matching_comparison(
        paper_config,
        paper_testbed,
        subscription_counts=(250, 1000, 4000),
        num_queries=200,
    )
    by_backend = {}
    for row in rows:
        by_backend.setdefault(row.backend, {})[row.num_subscriptions] = row

    for k in (250, 1000, 4000):
        stree = by_backend["stree"][k]
        rtree = by_backend["rtree"][k]
        linear = by_backend["linear"][k]
        # All backends found the same matches.
        assert stree.mean_matches == pytest.approx(linear.mean_matches)
        assert rtree.mean_matches == pytest.approx(linear.mean_matches)
        # The trees prune: far fewer containment tests than brute force.
        assert stree.entries_per_query < 0.5 * linear.entries_per_query
        # The paper's packed S-tree examines no more entries than the
        # Hilbert R-tree baseline on this workload.
        assert stree.entries_per_query <= rtree.entries_per_query * 1.1

    # Pruning improves relatively as k grows (the scalability claim).
    stree_fraction = {
        k: by_backend["stree"][k].entries_per_query / k
        for k in (250, 1000, 4000)
    }
    assert stree_fraction[4000] <= stree_fraction[250]


def test_scanned_fraction_falls_as_subscriptions_grow(
    paper_config, paper_testbed
):
    """Section 2: "The sizes of the problems is defined by values of k
    and N, and we are interested in algorithms that scale well"."""
    placed = StockSubscriptionGenerator(
        paper_testbed.topology, seed=paper_config.seed + 99
    ).generate(8000)
    points, _ = paper_testbed.publications(9, count=150)
    fractions = []
    for k in (500, 1000, 2000, 4000, 8000):
        lows, highs = SubscriptionTable.from_placed(placed[:k]).to_arrays()
        tree = STree.build(lows, highs)
        fractions.append(_entries_per_query(tree, points) / k)
    # The scanned fraction falls monotonically (allowing a small
    # tolerance between adjacent sizes).
    assert fractions[-1] < fractions[0] * 0.8
    for earlier, later in zip(fractions, fractions[1:]):
        assert later <= earlier * 1.15


def _synthetic_rectangles(rng, k, ndim):
    """Stock-like mixtures generalized to N dimensions, with rays and
    wildcards like the paper's parametric distribution."""
    centers = rng.normal(9.0, 2.0, size=(k, ndim))
    lengths = rng.pareto(1.0, size=(k, ndim)).clip(0.2, 40.0)
    lows = centers - lengths / 2
    highs = centers + lengths / 2
    for dim in range(ndim):
        rays = rng.random(k)
        lows[rays < 0.10, dim] = -np.inf
        highs[(rays >= 0.10) & (rays < 0.20), dim] = np.inf
    return lows, highs


def test_stree_is_exact_and_prunes_up_to_eight_dimensions(paper_config):
    rng = np.random.default_rng(paper_config.seed)
    for ndim in (2, 4, 6, 8):
        lows, highs = _synthetic_rectangles(rng, 2000, ndim)
        points = rng.normal(9.0, 3.0, size=(150, ndim))
        tree = STree.build(lows, highs)
        linear = LinearScanMatcher.build(lows, highs)
        tree_results = [tree.match(p).tolist() for p in points]
        assert tree_results == [linear.match(p).tolist() for p in points]
    # The index keeps pruning even at N = 8.
    assert tree.stats.entries_per_query < 2000


def test_every_skew_factor_prunes(index_workload):
    """S-tree skew factor ``p`` (paper: "typically chosen to be about
    0.3")."""
    lows, highs, points = index_workload
    for p in (0.1, 0.2, 0.3, 0.4, 0.5):
        tree = STree.build(lows, highs, params=STreeParams(skew_factor=p))
        assert _entries_per_query(tree, points) < len(lows) * 0.5, p


def test_larger_branch_factor_gives_shorter_trees(index_workload):
    """S-tree branch factor ``M`` (paper: "typically chosen to be about
    40")."""
    lows, highs, _ = index_workload
    heights = [
        STree.build(lows, highs, params=STreeParams(branch_factor=m))
        .shape()
        .height
        for m in (8, 20, 40, 80)
    ]
    assert heights == sorted(heights, reverse=True)


def test_stride_m_sweep_prunes_comparably_to_stride_one(index_workload):
    """The paper sweeps splits in strides of ``M``; stride 1 is the
    exhaustive variant.  The stride must cost little query quality."""
    lows, highs, points = index_workload
    coarse = STree.build(lows, highs)
    fine = STree.build(lows, highs, params=STreeParams(sweep_increment=1))
    assert _entries_per_query(coarse, points) < (
        _entries_per_query(fine, points) * 2.0
    )


def test_best_dimension_split_prunes_better_than_longest(index_workload):
    """On ray/wildcard-heavy stock workloads the ICDCS text's
    longest-dimension heuristic wastes every level on the widest
    dimensions; the best-dimension sweep must prune strictly better."""
    lows, highs, points = index_workload
    entries = {
        rule: _entries_per_query(
            STree.build(lows, highs, params=STreeParams(split_dimension=rule)),
            points,
        )
        for rule in ("best", "longest")
    }
    assert entries["best"] < entries["longest"]
