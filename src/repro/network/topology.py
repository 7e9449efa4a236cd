"""Transit-stub network topology generation (GT-ITM style).

The paper's testbed (Section 5, Figure 3) is a 600-node hierarchical
network produced by the GT-ITM package: three *transit blocks* of about
five *transit nodes* each, every transit node attached to two *stubs*
on average, and every stub holding about twenty nodes.  GT-ITM itself
is a C package we cannot ship, so this module re-implements its
transit-stub construction (Zegura, Calvert & Bhattacharjee, INFOCOM
1996) directly:

- transit nodes within a block form a connected random graph,
- the blocks are interconnected (every pair of blocks gets at least one
  edge),
- each stub is a connected random graph of stub nodes hanging off its
  transit node via a single gateway edge.

Edge costs are drawn uniformly from per-tier ranges reflecting the
usual locality assumption (intra-stub links cheapest, inter-block links
most expensive); the experiments only consume the topology as a
weighted graph, so any cost assignment with this structure exercises
the identical code path as GT-ITM's output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import networkx as nx
import numpy as np

__all__ = ["TransitStubParams", "Topology", "TransitStubGenerator"]


@dataclass(frozen=True)
class TransitStubParams:
    """Knobs of the transit-stub generator.

    Defaults reproduce the paper's testbed: 3 blocks x ~5 transit
    nodes x 2 stubs x ~20 stub nodes ≈ 600 nodes.

    ``*_count`` values are *averages*: actual per-block/per-stub counts
    are drawn uniformly from ``avg ± spread`` (GT-ITM draws sizes from
    a distribution around the configured mean).
    """

    transit_blocks: int = 3
    transit_nodes_per_block: int = 5
    stubs_per_transit_node: int = 2
    nodes_per_stub: int = 20
    size_spread: int = 2
    extra_edge_prob: float = 0.3
    transit_cost: Tuple[float, float] = (10.0, 20.0)
    inter_block_cost: Tuple[float, float] = (20.0, 40.0)
    gateway_cost: Tuple[float, float] = (5.0, 10.0)
    stub_cost: Tuple[float, float] = (1.0, 5.0)

    def __post_init__(self) -> None:
        if self.transit_blocks < 1:
            raise ValueError("need at least one transit block")
        if self.transit_nodes_per_block < 1:
            raise ValueError("need at least one transit node per block")
        if self.stubs_per_transit_node < 1:
            raise ValueError("need at least one stub per transit node")
        if self.nodes_per_stub < 1:
            raise ValueError("need at least one node per stub")
        if not 0.0 <= self.extra_edge_prob <= 1.0:
            raise ValueError("extra_edge_prob must be a probability")


@dataclass
class Topology:
    """A generated transit-stub network.

    Attributes
    ----------
    graph:
        Undirected :class:`networkx.Graph`; every edge has a ``cost``
        attribute and every node has ``kind`` (``"transit"``/``"stub"``),
        ``block`` (transit-block index) and, for stub nodes, ``stub``
        (global stub index).
    transit_nodes:
        Per-block lists of transit node ids.
    stub_members:
        Per-stub lists of stub node ids.
    stub_block:
        Transit-block index owning each stub.
    """

    graph: nx.Graph
    transit_nodes: List[List[int]]
    stub_members: List[List[int]]
    stub_block: List[int] = field(default_factory=list)
    stub_owner: List[int] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        return int(self.graph.number_of_nodes())

    @property
    def num_edges(self) -> int:
        return int(self.graph.number_of_edges())

    @property
    def num_stubs(self) -> int:
        return len(self.stub_members)

    @property
    def num_blocks(self) -> int:
        return len(self.transit_nodes)

    def all_stub_nodes(self) -> List[int]:
        """Every stub (leaf-network) node, in id order."""
        return sorted(n for ns in self.stub_members for n in ns)

    def all_transit_nodes(self) -> List[int]:
        """Every transit (backbone) node, in id order."""
        return sorted(n for ns in self.transit_nodes for n in ns)

    def stubs_in_block(self, block: int) -> List[int]:
        """Indices of the stubs attached to a transit block."""
        return [s for s, b in enumerate(self.stub_block) if b == block]

    def stub_gateway_transit(self, stub: int) -> int:
        """The transit node a stub hangs off.

        Uses the recorded owner when available (generator output);
        otherwise infers it from the gateway edge, so deserialized
        topologies from older files keep working.
        """
        if stub < len(self.stub_owner):
            return self.stub_owner[stub]
        for member in self.stub_members[stub]:
            for neighbor in self.graph.neighbors(member):
                if self.graph.nodes[neighbor]["kind"] == "transit":
                    return int(neighbor)
        raise ValueError(f"stub {stub} has no transit gateway")

    def edge_cost(self, u: int, v: int) -> float:
        """Cost attribute of the edge ``(u, v)``."""
        return float(self.graph.edges[u, v]["cost"])

    def replica_candidates(self, home: int, count: int) -> List[int]:
        """Ranked standby placement for a home broker, deterministic.

        Picks ``count`` transit nodes to replicate ``home``'s state
        onto, ordered by takeover preference.  Failure-domain
        diversity comes first: nodes in *other* transit blocks
        outrank nodes sharing ``home``'s block (a block models a
        shared fate domain — one provider's backbone).  Within each
        tier, nearer is better (shortest-path cost from ``home``),
        with node id as the final tie-break so the ranking is a pure
        function of the topology.
        """
        home = int(home)
        if self.graph.nodes[home]["kind"] != "transit":
            raise ValueError(
                f"replica_candidates: home {home} is not a transit node"
            )
        pool = [n for n in self.all_transit_nodes() if n != home]
        if count < 1 or count > len(pool):
            raise ValueError(
                f"replica_candidates: count must lie in 1..{len(pool)} "
                f"(got {count})"
            )
        home_block = int(self.graph.nodes[home]["block"])
        costs = nx.single_source_dijkstra_path_length(
            self.graph, home, weight="cost"
        )
        ranked = sorted(
            pool,
            key=lambda n: (
                int(self.graph.nodes[n]["block"]) == home_block,
                costs.get(n, float("inf")),
                n,
            ),
        )
        return ranked[:count]

    def validate(self) -> None:
        """Raise :class:`ValueError` if structural invariants are violated.

        All violations use the same ``"invalid topology: ..."`` message
        prefix so callers can catch and report malformed topologies
        uniformly (e.g. on deserialization of hand-edited testbeds).
        """
        if not nx.is_connected(self.graph):
            raise ValueError("invalid topology: graph must be connected")
        for u, v, data in self.graph.edges(data=True):
            if data.get("cost", -1.0) <= 0:
                raise ValueError(
                    f"invalid topology: edge ({u}, {v}) has non-positive "
                    f"cost {data.get('cost')!r}"
                )
        for node, data in self.graph.nodes(data=True):
            if data.get("kind") not in ("transit", "stub"):
                raise ValueError(
                    f"invalid topology: node {node} missing node kind "
                    f"(expected 'transit' or 'stub', got "
                    f"{data.get('kind')!r})"
                )


class TransitStubGenerator:
    """Builds :class:`Topology` instances from :class:`TransitStubParams`."""

    def __init__(
        self,
        params: Optional[TransitStubParams] = None,
        seed: Optional[int] = None,
    ):
        self.params = params or TransitStubParams()
        self._rng = np.random.default_rng(seed)

    def generate(self) -> Topology:
        """Generate one connected transit-stub topology."""
        graph = nx.Graph()
        next_id = 0
        transit_nodes: List[List[int]] = []
        stub_members: List[List[int]] = []
        stub_block: List[int] = []
        stub_owner: List[int] = []

        for block in range(self.params.transit_blocks):
            count = self._draw_size(self.params.transit_nodes_per_block)
            nodes = list(range(next_id, next_id + count))
            next_id += count
            for node in nodes:
                graph.add_node(node, kind="transit", block=block)
            self._connect_random(graph, nodes, self.params.transit_cost)
            transit_nodes.append(nodes)

        self._interconnect_blocks(graph, transit_nodes)

        for block, block_nodes in enumerate(transit_nodes):
            for transit in block_nodes:
                for _ in range(self.params.stubs_per_transit_node):
                    count = self._draw_size(self.params.nodes_per_stub)
                    nodes = list(range(next_id, next_id + count))
                    next_id += count
                    stub_index = len(stub_members)
                    for node in nodes:
                        graph.add_node(
                            node, kind="stub", block=block, stub=stub_index
                        )
                    self._connect_random(graph, nodes, self.params.stub_cost)
                    gateway = int(self._rng.choice(nodes))
                    graph.add_edge(
                        transit,
                        gateway,
                        cost=self._draw_cost(self.params.gateway_cost),
                    )
                    stub_members.append(nodes)
                    stub_block.append(block)
                    stub_owner.append(transit)

        topology = Topology(
            graph=graph,
            transit_nodes=transit_nodes,
            stub_members=stub_members,
            stub_block=stub_block,
            stub_owner=stub_owner,
        )
        topology.validate()
        return topology

    # -- internals ---------------------------------------------------------

    def _draw_size(self, average: int) -> int:
        """Uniform draw from ``average ± spread``, at least 1."""
        spread = min(self.params.size_spread, average - 1)
        if spread <= 0:
            return average
        return int(self._rng.integers(average - spread, average + spread + 1))

    def _draw_cost(self, cost_range: Tuple[float, float]) -> float:
        lo, hi = cost_range
        return float(self._rng.uniform(lo, hi))

    def _connect_random(
        self,
        graph: nx.Graph,
        nodes: List[int],
        cost_range: Tuple[float, float],
    ) -> None:
        """Random spanning tree plus Bernoulli extra edges."""
        if len(nodes) <= 1:
            return
        shuffled = list(nodes)
        self._rng.shuffle(shuffled)
        for i in range(1, len(shuffled)):
            attach = shuffled[int(self._rng.integers(0, i))]
            graph.add_edge(
                shuffled[i], attach, cost=self._draw_cost(cost_range)
            )
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                if graph.has_edge(u, v):
                    continue
                if self._rng.random() < self.params.extra_edge_prob:
                    graph.add_edge(u, v, cost=self._draw_cost(cost_range))

    def _interconnect_blocks(
        self, graph: nx.Graph, transit_nodes: List[List[int]]
    ) -> None:
        """Give every pair of transit blocks at least one direct edge."""
        for i in range(len(transit_nodes)):
            for j in range(i + 1, len(transit_nodes)):
                u = int(self._rng.choice(transit_nodes[i]))
                v = int(self._rng.choice(transit_nodes[j]))
                graph.add_edge(
                    u, v, cost=self._draw_cost(self.params.inter_block_cost)
                )
