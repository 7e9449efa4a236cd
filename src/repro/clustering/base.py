"""Shared scaffolding for the subscription clustering algorithms.

Each algorithm consumes an :class:`~repro.clustering.grid.EventGrid`,
works on the ``T`` highest-weight cells, and produces at most ``n``
clusters of cells.  The clusters later become the space partition
``S_1 .. S_n`` (everything else is the catchall ``S_0``) and the
multicast groups ``M_q`` (see :mod:`repro.clustering.groups`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List

from .grid import EventGrid, GridCell
from .waste import ClusterState

__all__ = [
    "DEFAULT_MAX_CELLS",
    "ClusteringResult",
    "CellClusteringAlgorithm",
]

#: The paper's constant ``T``: the number of top-weight cells clustered.
DEFAULT_MAX_CELLS = 200


@dataclass
class ClusteringResult:
    """Output of one clustering run."""

    algorithm: str
    clusters: List[List[GridCell]]
    iterations: int = 0

    def total_expected_waste(self) -> float:
        """Publication-probability-weighted EW across clusters.

        A natural single-figure quality score: the expected number of
        wasted copies per event, conditioned on the event landing in
        *some* cluster.
        """
        total_probability = 0.0
        weighted = 0.0
        for cells in self.clusters:
            state = ClusterState.from_cells(cells)
            weighted += state.expected_waste * state.probability
            total_probability += state.probability
        if total_probability <= 0.0:
            return 0.0
        return weighted / total_probability

    def validate_disjoint(self) -> None:
        """Raise if any grid cell appears in two clusters."""
        seen = set()
        for cells in self.clusters:
            for cell in cells:
                if cell.index in seen:
                    raise AssertionError(
                        f"cell {cell.index} appears in multiple clusters"
                    )
                seen.add(cell.index)


class CellClusteringAlgorithm(abc.ABC):
    """Interface of the three Appendix algorithms."""

    #: Short name used in experiment tables ("forgy", "pairwise", "mst").
    name: str = "base"

    @abc.abstractmethod
    def cluster(
        self,
        grid: EventGrid,
        num_groups: int,
        max_cells: int = DEFAULT_MAX_CELLS,
    ) -> ClusteringResult:
        """Cluster the grid's top-``max_cells`` cells into ``num_groups``."""

    @staticmethod
    def _working_cells(
        grid: EventGrid, num_groups: int, max_cells: int
    ) -> List[GridCell]:
        """Common Step 0: validate arguments and take the top-T cells."""
        if num_groups < 1:
            raise ValueError("num_groups must be positive")
        if max_cells < num_groups:
            raise ValueError(
                f"max_cells ({max_cells}) must be at least "
                f"num_groups ({num_groups})"
            )
        return grid.top_cells(max_cells)
