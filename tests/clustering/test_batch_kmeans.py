"""Unit tests for the batch k-means variant."""

import pytest

from repro.clustering import (
    BatchKMeansClustering,
    EventGrid,
    ForgyKMeansClustering,
)


@pytest.fixture(scope="module")
def stock_grid(small_table, nine_mode_density):
    return EventGrid(
        small_table.rectangles(),
        [s.subscriber for s in small_table],
        density=nine_mode_density,
        cells_per_dim=6,
    )


class TestBatchKMeans:
    def test_produces_requested_groups(self, stock_grid):
        result = BatchKMeansClustering().cluster(
            stock_grid, 6, max_cells=50
        )
        assert result.num_clusters == 6
        result.validate_disjoint()

    def test_covers_top_cells(self, stock_grid):
        result = BatchKMeansClustering().cluster(
            stock_grid, 6, max_cells=50
        )
        clustered = {c.index for cells in result.clusters for c in cells}
        top = {c.index for c in stock_grid.top_cells(50)}
        assert clustered == top

    def test_deterministic(self, stock_grid):
        a = BatchKMeansClustering().cluster(stock_grid, 5, max_cells=40)
        b = BatchKMeansClustering().cluster(stock_grid, 5, max_cells=40)
        assert [
            sorted(c.index for c in cells) for cells in a.clusters
        ] == [sorted(c.index for c in cells) for cells in b.clusters]

    def test_iteration_cap_respected(self, stock_grid):
        result = BatchKMeansClustering(max_iterations=1).cluster(
            stock_grid, 5, max_cells=40
        )
        assert result.iterations == 1

    def test_max_iterations_validation(self):
        with pytest.raises(ValueError):
            BatchKMeansClustering(max_iterations=0)

    def test_same_seeding_as_forgy(self, stock_grid):
        """Both variants share Step 1; with zero iterations allowed the
        lockstep variant must agree with Forgy's starting point."""
        batch = BatchKMeansClustering(max_iterations=1)
        forgy = ForgyKMeansClustering(max_iterations=1)
        b = batch.cluster(stock_grid, 4, max_cells=30)
        f = forgy.cluster(stock_grid, 4, max_cells=30)
        # Not necessarily identical clusters after one iteration (the
        # update disciplines differ), but the same number of clusters
        # over the same cell universe.
        assert b.num_clusters == f.num_clusters
        assert sum(map(len, b.clusters)) == sum(map(len, f.clusters))

    def test_quality_comparable_to_forgy(self, stock_grid):
        batch = BatchKMeansClustering().cluster(
            stock_grid, 8, max_cells=60
        )
        forgy = ForgyKMeansClustering().cluster(
            stock_grid, 8, max_cells=60
        )
        # Neither variant should be wildly worse than the other.
        assert batch.total_expected_waste() <= max(
            2.0 * forgy.total_expected_waste(),
            forgy.total_expected_waste() + 5.0,
        )

    def test_name(self):
        assert BatchKMeansClustering.name == "kmeans"
