"""Subscription clustering: grid, expected waste, and the three algorithms.

Implements the preprocessing substrate the paper takes as given
(Section 4 and the Appendix, following the authors' ICDCS 2002 paper):
a regular grid over the event space, the expected-waste distance, and
the Forgy k-means / pairwise grouping / minimum spanning tree cell
clustering algorithms, plus the conversion of clusters into the space
partition ``S_0 .. S_n`` and multicast groups ``M_q``.  Clustering runs
once per preprocess; under churn, groups only widen until
:meth:`~repro.core.dynamic.DynamicPubSubBroker.repreprocess` clusters
again from scratch.
"""

from .base import DEFAULT_MAX_CELLS, CellClusteringAlgorithm, ClusteringResult
from .grid import (
    CellProbability,
    EventGrid,
    GridCell,
    UniformCellProbability,
)
from .groups import MulticastGroup, SpacePartition
from .kmeans import BatchKMeansClustering, ForgyKMeansClustering
from .mst import MinimumSpanningTreeClustering
from .pairwise import PairwiseGroupingClustering
from .waste import (
    ClusterState,
    paper_recursive_expected_waste,
)

__all__ = [
    "DEFAULT_MAX_CELLS",
    "CellClusteringAlgorithm",
    "ClusteringResult",
    "CellProbability",
    "EventGrid",
    "GridCell",
    "UniformCellProbability",
    "MulticastGroup",
    "SpacePartition",
    "BatchKMeansClustering",
    "ForgyKMeansClustering",
    "MinimumSpanningTreeClustering",
    "PairwiseGroupingClustering",
    "ClusterState",
    "paper_recursive_expected_waste",
]
