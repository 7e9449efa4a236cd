"""The broker overlay: a tree of relay brokers over the backbone.

Content-based routing systems in the Gryphon/Siena tradition (the
architecture the paper's introduction builds on) deploy *brokers* that
form an acyclic overlay; clients attach to a nearby broker, and events
flow broker-to-broker, filtered at each hop against the subscriptions
registered downstream.

On the transit-stub testbed the natural deployment is one broker per
transit node: the overlay tree is a minimum spanning tree of the
transit backbone (transit-transit links only, weighted by their
costs), and every stub node attaches to its stub's gateway transit
node — the router its traffic physically crosses anyway.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx

from ..network.routing import RoutingTable
from ..network.topology import Topology

__all__ = ["BrokerOverlay"]


class BrokerOverlay:
    """Brokers, their tree links, and client attachments."""

    def __init__(
        self,
        topology: Topology,
        routing: Optional[RoutingTable] = None,
    ):
        self.topology = topology
        self.routing = routing or RoutingTable.from_topology(topology)

        self.brokers: List[int] = topology.all_transit_nodes()
        if not self.brokers:
            raise ValueError("topology has no transit nodes to host brokers")
        backbone = topology.graph.subgraph(self.brokers)
        if not nx.is_connected(backbone):
            raise ValueError("transit backbone must be connected")
        tree = nx.minimum_spanning_tree(backbone, weight="cost")
        self._adjacency: Dict[int, List[int]] = {
            broker: sorted(tree.neighbors(broker)) for broker in self.brokers
        }
        self._link_cost: Dict[Tuple[int, int], float] = {}
        for u, v, data in tree.edges(data=True):
            self._link_cost[(u, v)] = float(data["cost"])
            self._link_cost[(v, u)] = float(data["cost"])

        # next_hop[(at, toward)] -> neighbor on the unique tree path.
        self._next_hop: Dict[Tuple[int, int], int] = {}
        for source in self.brokers:
            parent = {source: source}
            frontier = [source]
            while frontier:
                node = frontier.pop()
                for neighbor in self._adjacency[node]:
                    if neighbor not in parent:
                        parent[neighbor] = node
                        frontier.append(neighbor)
            for target, via in parent.items():
                if target == source:
                    continue
                # Walk one step back from target toward source to find
                # the hop *out of source*: invert by climbing.
                node = target
                while parent[node] != source:
                    node = parent[node]
                self._next_hop[(source, target)] = node

    # -- structure -----------------------------------------------------------

    def neighbors(self, broker: int) -> List[int]:
        """Tree neighbors of a broker."""
        return self._adjacency[broker]

    def alive_neighbors(self, broker: int, faults) -> List[int]:
        """Tree neighbors reachable over currently-alive links/brokers.

        ``faults`` is any fault snapshot exposing ``link_dead(u, v)``
        (a :class:`~repro.faults.plan.FaultState` fits); a link whose
        far broker is crashed counts as dead.
        """
        return [
            neighbor
            for neighbor in self._adjacency[broker]
            if not faults.link_dead(broker, neighbor)
        ]

    def link_cost(self, u: int, v: int) -> float:
        """Physical cost of one overlay (backbone) link."""
        try:
            return self._link_cost[(u, v)]
        except KeyError:
            raise ValueError(f"({u}, {v}) is not an overlay link") from None

    def next_hop(self, at: int, toward: int) -> int:
        """The neighbor of ``at`` on the unique tree path to ``toward``."""
        if at == toward:
            raise ValueError("already at the destination broker")
        return self._next_hop[(at, toward)]

    def broker_of(self, node: int) -> int:
        """The broker a client node attaches to."""
        return self.topology.transit_node_of(node)

    def access_cost(self, node: int) -> float:
        """Physical cost between a client and its broker."""
        return self.routing.distance(node, self.broker_of(node))

    def tree_path(self, source: int, target: int) -> List[int]:
        """Brokers on the unique overlay path, inclusive of endpoints."""
        path = [source]
        node = source
        while node != target:
            node = self.next_hop(node, target)
            path.append(node)
        return path

    @property
    def num_links(self) -> int:
        """Number of overlay tree links (brokers - 1)."""
        return len(self._link_cost) // 2
