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

from collections.abc import Collection
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
        if sorted(graph.nodes()) != list(range(len(graph))):
            graph = nx.convert_node_labels_to_integers(
                graph, ordering="sorted"
            )
        self.num_nodes = n = len(graph)
        lookup: Dict[Tuple[int, int], float] = {}
        for u, v, data in graph.edges(data=True):
            cost = float(data["cost"])
            if cost <= 0:
                raise ValueError(f"edge ({u},{v}) has non-positive cost")
            lookup[(u, v)] = lookup[(v, u)] = cost
        self._cost_lookup = lookup
        ends = np.array(list(lookup), dtype=np.intp).reshape(-1, 2)
        matrix = csr_matrix(
            (list(lookup.values()), (ends[:, 0], ends[:, 1])), shape=(n, n)
        )
        self._dist, self._pred = dijkstra(
            matrix, directed=False, return_predecessors=True
        )
        #: Node ids as the walks take them (``n`` marks "unreachable").
        self._node_type = np.min_scalar_type(n)
        self._trees: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        #: :meth:`_tree_walk`'s paint slots and the positions it paints.
        self._first = np.empty(n + 1, dtype=np.intp)
        self._positions = np.arange(0)

    @classmethod
    def from_topology(cls, topology: Topology) -> RoutingTable:
        return cls(topology.graph)

    # -- primitives --------------------------------------------------------

    def distance(self, source: int, target: int) -> float:
        """Shortest-path cost between two nodes."""
        return float(self._dist[source, target])

    def path(self, source: int, target: int) -> List[int]:
        """One shortest path, as a node list from ``source`` to ``target``."""
        ancestors = self._tree(source)[0]
        if not 0 <= target < self.num_nodes:
            raise self._unknown([target])
        row: List[int] = ancestors[target].tolist()
        if row[-1] == self.num_nodes:
            raise ValueError(f"no path from {source} to {target}")
        return row[len(row) - 1 - row[::-1].index(source):]

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
        nodes = self.node_array(targets)
        try:
            return float(self._dist[source].take(nodes).sum())
        except IndexError:
            raise self._unknown(nodes) from None

    def node_array(self, nodes: Iterable[int]) -> np.ndarray:
        """``nodes`` as the unsigned index array :meth:`unicast_cost`
        and the tree walks take, so one list priced both ways is
        converted once.  A negative id fails here and an id past the
        end where the array is used, as a ``ValueError`` naming it."""
        if isinstance(nodes, np.ndarray):
            if nodes.dtype == self._node_type:
                return nodes
            nodes = nodes.tolist()
        sized = nodes if isinstance(nodes, Collection) else list(nodes)
        try:
            return np.fromiter(sized, self._node_type, len(sized))
        except OverflowError:
            raise self._unknown(sized) from None

    def _unknown(self, nodes: Iterable[int]) -> ValueError:
        node = next(n for n in nodes if not 0 <= n < self.num_nodes)
        return ValueError(f"node {node} is not in the network")

    def _tree(self, source: int) -> Tuple[np.ndarray, np.ndarray]:
        """``source``'s tree, built on first use: row ``v`` of the
        ancestor table is ``v``'s root path, root first, right-aligned,
        padded on the left with ``source`` (all ``num_nodes`` if ``v`` is
        unreachable); ``costs[v]`` is the cost of ``v``'s parent edge."""
        tree = self._trees.get(source)
        if tree is not None:
            return tree
        n = self.num_nodes
        if not 0 <= source < n:
            raise self._unknown([source])
        pred = self._pred[source]
        reached = pred >= 0
        parent = np.append(np.where(reached, pred, n), n)
        column = np.where(reached, np.arange(n), n)
        parent[source] = column[source] = source
        columns = [column]
        while not np.array_equal(column := parent.take(column), columns[-1]):
            columns.append(column)
        ancestors = np.stack(columns[::-1], axis=1).astype(self._node_type)
        below = np.flatnonzero(reached)
        edges = zip(pred[below].tolist(), below.tolist())
        costs = np.full(n, np.nan)
        costs[below] = list(map(self._cost_lookup.__getitem__, edges))
        costs[source] = 0.0
        tree = self._trees[source] = (ancestors, costs)
        return tree

    def _tree_walk(
        self, source: int, targets: Iterable[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The nodes the dense-mode tree pays for, in the order it pays
        them (``source`` first), and :meth:`_tree`'s edge costs.

        That order — target by target, the stretch out from its first
        covered ancestor — is the first occurrences in the targets'
        ancestor rows laid end to end: paint each node's position back
        to front, keep the positions holding their own paint.  The
        ``num_nodes`` slot's paint names the first unreachable target.
        """
        ancestors, costs = self._tree(source)
        nodes = self.node_array(targets)
        try:
            rows = ancestors.take(nodes, axis=0)
        except IndexError:
            raise self._unknown(nodes) from None
        back = rows.ravel()[::-1].astype(np.intp)
        size = back.size
        if self._positions.size < size:
            self._positions = np.arange(size)
        positions = self._positions[:size]
        first = self._first
        first[-1] = -1
        first[back] = positions
        if first[-1] >= 0:
            target = nodes[(size - 1 - first[-1]) // rows.shape[1]]
            raise ValueError(f"no path from {source} to {target}")
        return back[first[back] == positions][::-1], costs

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
        order, costs = self._tree_walk(source, targets)
        if not order.size:
            return 0.0
        # Left to right, as paid: ``np.sum`` adds pairwise.
        return float(np.add.accumulate(costs[order])[-1])

    def tree_edges(
        self, source: int, targets: Iterable[int]
    ) -> List[Tuple[int, int]]:
        """The edges of the dense-mode tree, parent first, as paid."""
        nodes = self._tree_walk(source, targets)[0][1:]
        parents = self._pred[source].take(nodes)
        return list(zip(parents.tolist(), nodes.tolist()))

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
