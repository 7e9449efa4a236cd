"""K-means cell clustering (paper Appendix A.2).

A standard k-means loop applied to grid cells, with the expected-waste
increase as the distance between a cell and a cluster:

- **Step 0**: take ``h``, the ``T`` highest-weight cells.
- **Step 1**: seed ``n`` clusters from the first ``n`` cells of ``h``
  (Forgy seeding — the top cells themselves are the initial "centers"),
  then assign the remaining cells of ``h`` to the closest cluster.
- **Step 2**: sweep all cells of ``h``; each cell that is not alone in
  its cluster is removed and re-placed into the closest cluster
  (possibly the one it came from), with ``l(.)`` and EW updated
  immediately.
- **Step 3**: repeat Step 2 until membership stabilizes or a maximum
  iteration count is hit (k-means converges to a local optimum but
  without a polynomial bound, so the cap is load-bearing).

The paper's predecessor ([15], summarized in the Appendix) compared
*two* k-means flavours — "K-means" and "Forgy K-means".
:class:`ForgyKMeansClustering` is the Appendix algorithm above, with
the online, immediate-update Step 2; :class:`BatchKMeansClustering` is
the classic batch variant — compute every cell's closest cluster
against a frozen snapshot, then apply all moves at once — provided to
complete the paper's algorithm roster.
"""

from __future__ import annotations

from typing import Dict, List

from .base import DEFAULT_MAX_CELLS, CellClusteringAlgorithm, ClusteringResult
from .grid import EventGrid, GridCell
from .waste import ClusterState

__all__ = ["ForgyKMeansClustering", "BatchKMeansClustering"]

DEFAULT_MAX_ITERATIONS = 50


class ForgyKMeansClustering(CellClusteringAlgorithm):
    """The paper's best-performing (and fastest) clustering algorithm.

    ``seeding`` selects Step 1's initial centers:

    - ``"topweight"`` (paper-faithful default) — the first ``n`` cells
      of ``h``, i.e. the highest-weight cells.  Top cells often sit in
      the same hot spot, so the seeds can start very similar.
    - ``"spread"`` — a k-means++-style farthest-first sweep under the
      EW distance: the first seed is the top cell, each further seed
      is the working cell whose EW distance to its closest existing
      seed is largest.  A library extension; the seeding ablation
      benchmark quantifies the difference.
    """

    name = "forgy"

    def __init__(
        self,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        seeding: str = "topweight",
    ):
        if max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if seeding not in ("topweight", "spread"):
            raise ValueError(
                f"seeding must be 'topweight' or 'spread', got {seeding!r}"
            )
        self.max_iterations = max_iterations
        self.seeding = seeding

    def _seeds(self, cells: List[GridCell], n: int) -> List[GridCell]:
        """Pick Step 1's ``n`` seed cells."""
        if self.seeding == "topweight" or n >= len(cells):
            return cells[:n]
        seeds = [cells[0]]
        seed_states = [ClusterState.from_cells([cells[0]])]
        remaining = {cell.index for cell in cells[1:]}
        while len(seeds) < n:
            best_cell = None
            best_distance = -1.0
            for cell in cells:
                if cell.index not in remaining:
                    continue
                closest = min(
                    state.distance_to(cell) for state in seed_states
                )
                if closest > best_distance:
                    best_distance = closest
                    best_cell = cell
            seeds.append(best_cell)
            seed_states.append(ClusterState.from_cells([best_cell]))
            remaining.discard(best_cell.index)
        return seeds

    def cluster(
        self,
        grid: EventGrid,
        num_groups: int,
        max_cells: int = DEFAULT_MAX_CELLS,
    ) -> ClusteringResult:
        cells = self._working_cells(grid, num_groups, max_cells)
        if not cells:
            return ClusteringResult(algorithm=self.name, clusters=[])
        n = min(num_groups, len(cells))

        # Step 1 — seed, then assign the remaining cells greedily.
        seeds = self._seeds(cells, n)
        seed_indices = {cell.index for cell in seeds}
        clusters = [ClusterState.from_cells([cell]) for cell in seeds]
        assignment = {cell.index: i for i, cell in enumerate(seeds)}
        for cell in cells:
            if cell.index in seed_indices:
                continue
            best = self._closest(clusters, cell)
            clusters[best].add(cell)
            assignment[cell.index] = best

        # Steps 2-3 — immediate-update reassignment sweeps.
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            changed = False
            for cell in cells:
                current = assignment[cell.index]
                if len(clusters[current]) <= 1:
                    continue  # a cell alone in its cluster stays put
                clusters[current].remove(cell)
                best = self._closest(clusters, cell)
                clusters[best].add(cell)
                if best != current:
                    assignment[cell.index] = best
                    changed = True
            if not changed:
                break

        return ClusteringResult(
            algorithm=self.name,
            clusters=[list(state.cells) for state in clusters if state.cells],
            iterations=iterations,
        )

    @staticmethod
    def _closest(clusters: List[ClusterState], cell: GridCell) -> int:
        """Index of the cluster whose EW grows least by adding ``cell``.

        Ties break toward the lowest index, which keeps runs
        deterministic for a fixed input order.
        """
        best_index = 0
        best_distance = float("inf")
        for i, state in enumerate(clusters):
            distance = state.distance_to(cell)
            if distance < best_distance:
                best_distance = distance
                best_index = i
        return best_index


class BatchKMeansClustering(CellClusteringAlgorithm):
    """Classic batch k-means over grid cells (the [15] "K-means").

    Differs from :class:`ForgyKMeansClustering` only in the update
    discipline: each iteration evaluates every cell's closest cluster
    against the *previous* iteration's cluster states, then applies
    all reassignments simultaneously.  Batch updates converge in lock
    step (and can oscillate, hence the iteration cap) but are trivially
    parallelizable — the classic trade-off.
    """

    name = "kmeans"

    def __init__(self, max_iterations: int = DEFAULT_MAX_ITERATIONS):
        if max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        self.max_iterations = max_iterations

    def cluster(
        self,
        grid: EventGrid,
        num_groups: int,
        max_cells: int = DEFAULT_MAX_CELLS,
    ) -> ClusteringResult:
        cells = self._working_cells(grid, num_groups, max_cells)
        if not cells:
            return ClusteringResult(algorithm=self.name, clusters=[])
        n = min(num_groups, len(cells))

        # Same greedy seeding as the Forgy variant (Step 1).
        clusters = [ClusterState.from_cells([cell]) for cell in cells[:n]]
        assignment: Dict = {cell.index: i for i, cell in enumerate(cells[:n])}
        for cell in cells[n:]:
            best = ForgyKMeansClustering._closest(clusters, cell)
            clusters[best].add(cell)
            assignment[cell.index] = best

        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            # Evaluate against a frozen snapshot...
            proposed = {
                cell.index: ForgyKMeansClustering._closest(clusters, cell)
                for cell in cells
            }
            # ...then apply every move at once, never emptying a cluster.
            changed = False
            population = [0] * n
            for index in assignment.values():
                population[index] += 1
            members: List[List[GridCell]] = [[] for _ in range(n)]
            for cell in cells:
                target = proposed[cell.index]
                current = assignment[cell.index]
                if target != current and population[current] <= 1:
                    target = current  # keep the cluster non-empty
                if target != current:
                    changed = True
                    population[current] -= 1
                    population[target] += 1
                    assignment[cell.index] = target
                members[assignment[cell.index]].append(cell)
            clusters = [ClusterState.from_cells(ms) for ms in members]
            if not changed:
                break

        return ClusteringResult(
            algorithm=self.name,
            clusters=[list(state.cells) for state in clusters if state.cells],
            iterations=iterations,
        )
