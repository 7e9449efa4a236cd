"""Shortest-path routing over a generated topology.

The experiments charge every delivery to network links: a unicast pays
the shortest-path cost from publisher to subscriber, and a dense-mode
multicast pays each edge of the shortest-path tree (rooted at the
publisher) that carries the message.  This module precomputes the
all-pairs shortest-path machinery — distance and predecessor matrices
via ``scipy.sparse.csgraph.dijkstra`` — once per topology, so per-event
cost evaluation during the Figure 6 sweeps is just array walks.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .topology import Topology

__all__ = ["RoutingTable", "SurvivingGraphs", "surviving_path", "path_cost"]


class RoutingTable:
    """All-pairs shortest paths with predecessor tracking.

    Node ids are assumed to be ``0..n-1`` (as produced by
    :class:`~repro.network.topology.TransitStubGenerator`); arbitrary
    graphs are relabelled on entry.
    """

    def __init__(self, graph: nx.Graph):
        nodes = sorted(graph.nodes())
        if nodes != list(range(len(nodes))):
            graph = nx.convert_node_labels_to_integers(
                graph, ordering="sorted"
            )
            nodes = sorted(graph.nodes())
        self.num_nodes = len(nodes)
        rows: List[int] = []
        cols: List[int] = []
        costs: List[float] = []
        for u, v, data in graph.edges(data=True):
            cost = float(data["cost"])
            if cost <= 0:
                raise ValueError(f"edge ({u},{v}) has non-positive cost")
            rows.extend((u, v))
            cols.extend((v, u))
            costs.extend((cost, cost))
        matrix = csr_matrix(
            (costs, (rows, cols)), shape=(self.num_nodes, self.num_nodes)
        )
        self._dist, self._pred = dijkstra(
            matrix, directed=False, return_predecessors=True
        )
        self._cost_lookup: Dict[Tuple[int, int], float] = {}
        for u, v, data in graph.edges(data=True):
            cost = float(data["cost"])
            self._cost_lookup[(u, v)] = cost
            self._cost_lookup[(v, u)] = cost
        self._tree_rows: Dict[int, Tuple[List[int], List[float]]] = {}
        #: Per-node stamps of the last :meth:`_tree_walk` to cover them.
        self._marks = [0] * self.num_nodes
        self._stamp = 0

    @classmethod
    def from_topology(cls, topology: Topology) -> RoutingTable:
        return cls(topology.graph)

    # -- primitives --------------------------------------------------------

    def distance(self, source: int, target: int) -> float:
        """Shortest-path cost between two nodes."""
        return float(self._dist[source, target])

    def path(self, source: int, target: int) -> List[int]:
        """One shortest path, as a node list from ``source`` to ``target``."""
        if source == target:
            return [source]
        if not np.isfinite(self._dist[source, target]):
            raise ValueError(f"no path from {source} to {target}")
        parents = self._rows(source)[0]
        path = [target]
        node = target
        while node != source:
            node = parents[node]
            path.append(node)
        path.reverse()
        return path

    def edge_cost(self, u: int, v: int) -> float:
        """Cost of a direct edge (raises for non-edges)."""
        try:
            return self._cost_lookup[(u, v)]
        except KeyError:
            raise ValueError(f"({u}, {v}) is not an edge") from None

    # -- aggregate costs ------------------------------------------------------

    def unicast_cost(self, source: int, targets: Iterable[int]) -> float:
        """Total cost of separate unicasts from ``source`` to each target.

        Each unicast traverses its own shortest path and pays every
        link on it, even links shared with other unicasts — that is
        precisely what makes multicast attractive.
        """
        targets = list(targets)
        if not targets:
            return 0.0
        return float(self._dist[source].take(targets).sum())

    def _rows(self, source: int) -> Tuple[List[int], List[float]]:
        """``source``'s shortest-path tree as two plain lists: the parent
        of every node and the cost of the edge to that parent.

        Built from the predecessor matrix on a source's first use, so
        the walks over it (:meth:`path`, :meth:`_tree_walk`) touch no
        numpy scalar.
        """
        rows = self._tree_rows.get(source)
        if rows is None:
            lookup = self._cost_lookup
            parents: List[int] = self._pred[source].tolist()
            costs = [
                lookup[(parent, node)] if parent >= 0 else 0.0
                for node, parent in enumerate(parents)
            ]
            rows = self._tree_rows[source] = (parents, costs)
        return rows

    def _tree_walk(
        self, source: int, targets: Iterable[int]
    ) -> Tuple[List[int], List[int], List[float]]:
        """The nodes the dense-mode tree adds, in the order it pays them.

        Each target contributes the stretch from its first
        already-covered ancestor out to itself.  Returned with the
        per-source rows (:meth:`_rows`).

        A node is covered in this call when its ``_marks`` entry holds
        this call's stamp: no set per call, and no stale mark after a raise.
        """
        parents, costs = self._rows(source)
        marks = self._marks
        self._stamp = stamp = self._stamp + 1
        marks[source] = stamp
        order: List[int] = []
        for target in targets:
            node = int(target)
            if marks[node] == stamp:
                continue
            walk: List[int] = []
            while marks[node] != stamp:
                marks[node] = stamp
                walk.append(node)
                node = parents[node]
                if node < 0:
                    raise ValueError(f"no path from {source} to {target}")
            walk.reverse()
            order += walk
        return order, parents, costs

    def shortest_path_tree_cost(
        self, source: int, targets: Iterable[int]
    ) -> float:
        """Cost of the dense-mode multicast tree reaching ``targets``.

        Dense-mode multicast routes over the shortest-path tree rooted
        at the publisher; each tree edge carrying the message is paid
        once, regardless of how many group members sit behind it.  The
        cost is the summed cost of the union of root→target shortest
        paths.
        """
        order, _, costs = self._tree_walk(source, targets)
        # An explicit left-to-right loop: ``sum`` compensates for
        # rounding from Python 3.12 on, which would move the last bits.
        cost = 0.0
        for node in order:
            cost += costs[node]
        return cost

    def tree_edges(
        self, source: int, targets: Iterable[int]
    ) -> List[Tuple[int, int]]:
        """The edges of the dense-mode tree, parent first, as paid."""
        order, parents, _ = self._tree_walk(source, targets)
        return [(parents[node], node) for node in order]

    def eccentricity(self, source: int) -> float:
        """Largest finite shortest-path cost out of ``source``."""
        row = self._dist[source]
        return float(row[np.isfinite(row)].max())

    def diameter(self) -> float:
        """Largest finite shortest-path cost between any node pair.

        Bounds the one-way propagation of any unicast; the reliable
        transport sizes its retransmission timeout from it.
        """
        return float(self._dist[np.isfinite(self._dist)].max())


class SurvivingGraphs:
    """``graph`` without its dead parts, materialised once per fault state.

    The fault picture changes at a handful of instants in a run while
    detours and reachability questions are asked all through it, so the
    surviving graph is built once per ``(dead_nodes, dead_links)`` — as
    a plain :class:`networkx.Graph`, which algorithms walk without a
    filter call per node and edge — and kept for the life of this
    object.  Whoever owns one shares it with everyone asking about the
    same graph (the reliable transport owns the chaos harnesses').

    ``dead_links`` holds undirected node pairs, in either orientation.
    """

    def __init__(self, graph: nx.Graph):
        self.graph = graph
        self._alive: Dict[tuple, nx.Graph] = {}

    def without(
        self,
        dead_nodes: AbstractSet[int],
        dead_links: AbstractSet[Tuple[int, int]],
    ) -> nx.Graph:
        """The surviving graph (shared: callers must not modify it)."""
        key = (frozenset(dead_nodes), frozenset(dead_links))
        alive = self._alive.get(key)
        if alive is None:
            hidden_edges = [
                pair for (u, v) in dead_links for pair in ((u, v), (v, u))
            ]
            view = nx.restricted_view(
                self.graph, list(dead_nodes), hidden_edges
            )
            alive = nx.Graph()
            alive.add_nodes_from(view)
            # Filled row by row, not by ``add_edge``: that would order a
            # node's neighbours by when its edges were re-added, and
            # Dijkstra breaks equal-cost ties in adjacency order.  Edge
            # data is shared with ``graph``, not copied.
            for node, neighbours in view.adj.items():
                alive._adj[node].update(neighbours.items())
            self._alive[key] = alive
        return alive

    def path(
        self,
        source: int,
        target: int,
        dead_nodes: AbstractSet[int],
        dead_links: AbstractSet[Tuple[int, int]],
    ) -> List[int] | None:
        """Shortest surviving path, or ``None`` if ``target`` is cut off
        (partitioned away, or an endpoint is itself dead)."""
        source, target = int(source), int(target)
        if source in dead_nodes or target in dead_nodes:
            return None
        if source == target:
            return [source]
        alive = self.without(dead_nodes, dead_links)
        try:
            path = nx.dijkstra_path(alive, source, target, weight="cost")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return None
        return [int(n) for n in path]


def surviving_path(
    graph: nx.Graph,
    source: int,
    target: int,
    dead_links: AbstractSet[Tuple[int, int]],
    dead_nodes: AbstractSet[int],
) -> List[int] | None:
    """Shortest path avoiding dead links/nodes, or ``None`` if cut off.

    One question about one fault state; callers with several go through
    a :class:`SurvivingGraphs` they keep.
    """
    return SurvivingGraphs(graph).path(source, target, dead_nodes, dead_links)


def path_cost(graph: nx.Graph, path: Sequence[int]) -> float:
    """Summed edge cost of a node path over ``graph``."""
    return float(
        sum(
            graph.edges[u, v]["cost"]
            for u, v in zip(path[:-1], path[1:])
        )
    )
