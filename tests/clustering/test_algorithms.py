"""Unit tests for the three clustering algorithms."""

import numpy as np
import pytest

from repro.clustering import (
    EventGrid,
    ForgyKMeansClustering,
    MinimumSpanningTreeClustering,
    PairwiseGroupingClustering,
)
from repro.geometry import Interval, Rectangle

ALGORITHMS = [
    ForgyKMeansClustering(),
    PairwiseGroupingClustering(),
    MinimumSpanningTreeClustering(),
]


def rect2(x0, x1, y0, y1):
    return Rectangle.from_intervals([Interval(x0, x1), Interval(y0, y1)])


@pytest.fixture(scope="module")
def two_community_grid():
    """Two spatially-separated subscriber communities.

    Subscribers 0-4 live in the lower-left quadrant, 5-9 in the
    upper-right; a sane clustering into 2 groups must not mix them.
    """
    rectangles = []
    owners = []
    rng = np.random.default_rng(5)
    for subscriber in range(5):
        for _ in range(3):
            x, y = rng.uniform(0.5, 3.5, size=2)
            rectangles.append(rect2(x - 0.4, x + 0.4, y - 0.4, y + 0.4))
            owners.append(subscriber)
    for subscriber in range(5, 10):
        for _ in range(3):
            x, y = rng.uniform(6.5, 9.5, size=2)
            rectangles.append(rect2(x - 0.4, x + 0.4, y - 0.4, y + 0.4))
            owners.append(subscriber)
    return EventGrid(
        rectangles,
        owners,
        cells_per_dim=10,
        frame=((0.0, 0.0), (10.0, 10.0)),
    )


@pytest.fixture(scope="module")
def stock_grid(small_table, nine_mode_density):
    return EventGrid(
        small_table.rectangles(),
        [s.subscriber for s in small_table],
        density=nine_mode_density,
        cells_per_dim=6,
    )


class TestCommonBehaviour:
    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
    def test_produces_requested_groups(self, two_community_grid, algorithm):
        result = algorithm.cluster(two_community_grid, 2, max_cells=50)
        assert len(result.clusters) == 2
        result.validate_disjoint()

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
    def test_clusters_cover_top_cells(self, two_community_grid, algorithm):
        result = algorithm.cluster(two_community_grid, 2, max_cells=50)
        clustered = {
            c.index for cells in result.clusters for c in cells
        }
        top = {c.index for c in two_community_grid.top_cells(50)}
        assert clustered == top

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
    def test_separates_communities(self, two_community_grid, algorithm):
        result = algorithm.cluster(two_community_grid, 2, max_cells=50)
        for cells in result.clusters:
            # All cells of one cluster sit in one community's quadrant.
            sides = {cell.lows[0] < 5.0 for cell in cells}
            assert len(sides) == 1

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
    def test_validation(self, two_community_grid, algorithm):
        with pytest.raises(ValueError):
            algorithm.cluster(two_community_grid, 0)
        with pytest.raises(ValueError):
            algorithm.cluster(two_community_grid, 5, max_cells=3)

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
    def test_more_groups_never_hurt_waste(self, stock_grid, algorithm):
        few = algorithm.cluster(stock_grid, 3, max_cells=40)
        many = algorithm.cluster(stock_grid, 12, max_cells=40)
        assert (
            many.total_expected_waste()
            <= few.total_expected_waste() + 1e-6
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
    def test_groups_capped_by_cells(self, two_community_grid, algorithm):
        # Requesting more groups than working cells degrades gracefully.
        occupied = len(two_community_grid.cells)
        result = algorithm.cluster(
            two_community_grid, occupied + 50, max_cells=occupied + 50
        )
        assert len(result.clusters) <= occupied

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
    def test_deterministic(self, stock_grid, algorithm):
        a = algorithm.cluster(stock_grid, 5, max_cells=40)
        b = algorithm.cluster(stock_grid, 5, max_cells=40)
        assert [
            sorted(c.index for c in cells) for cells in a.clusters
        ] == [sorted(c.index for c in cells) for cells in b.clusters]


class TestForgySeeding:
    def test_seeding_validation(self):
        with pytest.raises(ValueError):
            ForgyKMeansClustering(seeding="random")

    def test_spread_seeding_produces_valid_clustering(self, stock_grid):
        result = ForgyKMeansClustering(seeding="spread").cluster(
            stock_grid, 6, max_cells=50
        )
        assert len(result.clusters) == 6
        result.validate_disjoint()
        clustered = {c.index for cells in result.clusters for c in cells}
        assert clustered == {
            c.index for c in stock_grid.top_cells(50)
        }

    def test_spread_seeding_not_worse_on_waste(self, stock_grid):
        top = ForgyKMeansClustering(seeding="topweight").cluster(
            stock_grid, 8, max_cells=60
        )
        spread = ForgyKMeansClustering(seeding="spread").cluster(
            stock_grid, 8, max_cells=60
        )
        assert (
            spread.total_expected_waste()
            <= top.total_expected_waste() + 1e-6
        )

    def test_spread_deterministic(self, stock_grid):
        a = ForgyKMeansClustering(seeding="spread").cluster(
            stock_grid, 5, max_cells=40
        )
        b = ForgyKMeansClustering(seeding="spread").cluster(
            stock_grid, 5, max_cells=40
        )
        assert [
            sorted(c.index for c in cells) for cells in a.clusters
        ] == [sorted(c.index for c in cells) for cells in b.clusters]

    def test_seeds_when_groups_equal_cells(self, stock_grid):
        top = stock_grid.top_cells(6)
        result = ForgyKMeansClustering(seeding="spread").cluster(
            stock_grid, 6, max_cells=6
        )
        assert len(result.clusters) == 6


class TestForgySpecifics:
    def test_iteration_cap(self, stock_grid):
        algorithm = ForgyKMeansClustering(max_iterations=1)
        result = algorithm.cluster(stock_grid, 5, max_cells=40)
        assert result.iterations == 1

    def test_max_iterations_validation(self):
        with pytest.raises(ValueError):
            ForgyKMeansClustering(max_iterations=0)

    def test_converges_quickly_on_separated_data(self, two_community_grid):
        result = ForgyKMeansClustering().cluster(
            two_community_grid, 2, max_cells=50
        )
        assert result.iterations < 10

    def test_singleton_cluster_cell_stays(self, two_community_grid):
        # With as many groups as cells every cluster is a singleton and
        # the "only element" guard must keep the assignment stable.
        top = two_community_grid.top_cells(6)
        result = ForgyKMeansClustering().cluster(
            two_community_grid, 6, max_cells=6
        )
        assert len(result.clusters) == 6
        assert all(len(c) == 1 for c in result.clusters)


class TestPairwiseSpecifics:
    def test_merge_count(self, stock_grid):
        result = PairwiseGroupingClustering().cluster(
            stock_grid, 4, max_cells=30
        )
        # T singletons reduced to 4 clusters = T - 4 merges.
        assert result.iterations == 30 - 4

    def test_quality_at_least_mst(self, stock_grid):
        pairwise = PairwiseGroupingClustering().cluster(
            stock_grid, 6, max_cells=40
        )
        mst = MinimumSpanningTreeClustering().cluster(
            stock_grid, 6, max_cells=40
        )
        assert (
            pairwise.total_expected_waste()
            <= mst.total_expected_waste() + 1e-6
        )


class TestMstSpecifics:
    def test_component_count(self, stock_grid):
        result = MinimumSpanningTreeClustering().cluster(
            stock_grid, 7, max_cells=30
        )
        assert len(result.clusters) == 7
        # Kruskal adds exactly T - n accepted edges.
        assert result.iterations == 30 - 7

    def test_single_group_joins_everything(self, stock_grid):
        result = MinimumSpanningTreeClustering().cluster(
            stock_grid, 1, max_cells=20
        )
        assert len(result.clusters) == 1
        assert len(result.clusters[0]) == 20
