"""Subscription clustering at paper scale (Section 5.2 and the
Appendix): quality, not time.

Pairwise grouping must reach an expected waste (EW) at least as low as
the minimum-spanning-tree simplification, which never refreshes its
distances after a merge; every algorithm must give a partition that
beats unicast at t = 0; and the two Forgy knobs DESIGN.md calls out
(seeding, the working-cell budget ``T``) must move quality the way
the paper argues.  Running times are measured by ``bench/``.
"""

from __future__ import annotations

import pytest

from repro.clustering import (
    EventGrid,
    ForgyKMeansClustering,
    MinimumSpanningTreeClustering,
    PairwiseGroupingClustering,
    SpacePartition,
)
from repro.experiments import run_clustering_comparison

ALGORITHMS = {
    "forgy": ForgyKMeansClustering,
    "pairwise": PairwiseGroupingClustering,
    "mst": MinimumSpanningTreeClustering,
}


@pytest.fixture(scope="module")
def stock_grid(paper_config, paper_testbed):
    return EventGrid(
        paper_testbed.table.rectangles(),
        [s.subscriber for s in paper_testbed.table],
        density=paper_testbed.density(9),
        cells_per_dim=paper_config.cells_per_dim,
    )


def test_grid_has_more_occupied_cells_than_the_budget(paper_config, stock_grid):
    """The paper's constant ``T`` = 200 working cells is a real cut."""
    assert len(stock_grid.cells) > paper_config.max_cells


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_each_algorithm_makes_disjoint_groups(paper_config, stock_grid, name):
    result = ALGORITHMS[name]().cluster(
        stock_grid, 11, max_cells=paper_config.max_cells
    )
    assert len(result.clusters) == 11
    result.validate_disjoint()


def test_pairwise_waste_is_no_worse_than_mst(paper_config, paper_testbed):
    rows = run_clustering_comparison(paper_config, paper_testbed, modes=9)
    by_key = {(r.algorithm, r.num_groups): r for r in rows}
    for groups in paper_config.group_counts:
        forgy = by_key[("forgy", groups)]
        pairwise = by_key[("pairwise", groups)]
        mst = by_key[("mst", groups)]
        # Pairwise quality >= MST quality (EW objective, lower better).
        assert pairwise.expected_waste <= mst.expected_waste + 1e-6
        # Everyone produces a usefully positive static improvement.
        for row in (forgy, pairwise, mst):
            assert row.improvement_static > 10.0, row
            assert 0.0 < row.covered_probability <= 1.0


def test_spread_seeding_does_not_lose_on_waste(paper_config, stock_grid):
    """The paper's top-weight seeding against the spread (k-means++
    style) extension, under the EW objective."""
    waste = {
        seeding: ForgyKMeansClustering(seeding=seeding)
        .cluster(stock_grid, 11, max_cells=paper_config.max_cells)
        .total_expected_waste()
        for seeding in ("topweight", "spread")
    }
    assert waste["spread"] <= waste["topweight"] + 1e-6


def test_more_working_cells_buy_coverage(stock_grid):
    """The paper's constant ``T`` (= 200): more working cells cover
    more of the publication mass."""
    coverages = [
        SpacePartition(
            stock_grid,
            ForgyKMeansClustering().cluster(stock_grid, 11, max_cells=t_cells),
        ).covered_probability()
        for t_cells in (50, 100, 200, 400)
    ]
    assert coverages == sorted(coverages)
