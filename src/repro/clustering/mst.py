"""Minimum-spanning-tree clustering (Appendix A.3).

A simplified pairwise grouping: all pairwise distances between the
``T`` working cells are computed *once* (the expected waste of each
two-cell group), then edges are introduced in increasing distance
order — Kruskal's algorithm with union-find — until exactly ``n``
connected components remain.  Components become the clusters.

The paper reports this as the fastest of the three algorithms but the
weakest in solution quality, because distances are never refreshed as
components grow.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .base import DEFAULT_MAX_CELLS, CellClusteringAlgorithm, ClusteringResult
from .grid import EventGrid
from .waste import ClusterState

__all__ = ["MinimumSpanningTreeClustering"]


class _UnionFind:
    """Classic disjoint-set forest with path compression and ranks."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.rank = [0] * size
        self.components = size

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.components -= 1
        return True


class MinimumSpanningTreeClustering(CellClusteringAlgorithm):
    """Single-linkage clustering under the pairwise-EW distance."""

    name = "mst"

    def cluster(
        self,
        grid: EventGrid,
        num_groups: int,
        max_cells: int = DEFAULT_MAX_CELLS,
    ) -> ClusteringResult:
        cells = self._working_cells(grid, num_groups, max_cells)
        if not cells:
            return ClusteringResult(algorithm=self.name, clusters=[])
        size = len(cells)
        target = min(num_groups, size)

        # All pairwise distances, computed exactly once.
        singletons = [ClusterState.from_cells([cell]) for cell in cells]
        edges: List[Tuple[float, int, int]] = []
        for i in range(size):
            for j in range(i + 1, size):
                edges.append(
                    (singletons[i].waste_if_merged(singletons[j]), i, j)
                )
        edges.sort(key=lambda e: e[0])

        forest = _UnionFind(size)
        added = 0
        for dist, i, j in edges:
            if forest.components <= target:
                break
            if forest.union(i, j):
                added += 1

        components: Dict[int, List[int]] = {}
        for i in range(size):
            components.setdefault(forest.find(i), []).append(i)
        return ClusteringResult(
            algorithm=self.name,
            clusters=[
                [cells[i] for i in member_indices]
                for member_indices in components.values()
            ],
            iterations=added,
        )
