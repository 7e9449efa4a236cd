"""Unit tests for shortest-path routing."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import RoutingTable, TransitStubGenerator, TransitStubParams
from repro.network.routing import SurvivingGraphs


@pytest.fixture(scope="module")
def line_graph():
    """0 -1- 1 -2- 2 -3- 3 (edge costs equal their right endpoint)."""
    graph = nx.Graph()
    for i in range(3):
        graph.add_edge(i, i + 1, cost=float(i + 1))
    return graph


@pytest.fixture(scope="module")
def diamond():
    """Two routes 0->3: via 1 (cost 2) and via 2 (cost 10)."""
    graph = nx.Graph()
    graph.add_edge(0, 1, cost=1.0)
    graph.add_edge(1, 3, cost=1.0)
    graph.add_edge(0, 2, cost=5.0)
    graph.add_edge(2, 3, cost=5.0)
    return graph


class TestDistances:
    def test_line_distances(self, line_graph):
        table = RoutingTable(line_graph)
        assert table.distance(0, 3) == 6.0
        assert table.distance(3, 0) == 6.0
        assert table.distance(1, 1) == 0.0

    def test_shortest_route_chosen(self, diamond):
        table = RoutingTable(diamond)
        assert table.distance(0, 3) == 2.0

    def test_matches_networkx(self, small_topology):
        table = RoutingTable(small_topology.graph)
        expected = dict(
            nx.all_pairs_dijkstra_path_length(
                small_topology.graph, weight="cost"
            )
        )
        nodes = list(small_topology.graph.nodes())[:10]
        for u in nodes:
            for v in nodes:
                assert table.distance(u, v) == pytest.approx(expected[u][v])

    def test_negative_cost_rejected(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, cost=-1.0)
        with pytest.raises(ValueError):
            RoutingTable(graph)


class TestPaths:
    def test_path_endpoints(self, diamond):
        table = RoutingTable(diamond)
        path = table.path(0, 3)
        assert path[0] == 0 and path[-1] == 3
        assert path == [0, 1, 3]

    def test_path_to_self(self, diamond):
        assert RoutingTable(diamond).path(2, 2) == [2]

    def test_path_cost_equals_distance(self, small_topology):
        table = RoutingTable(small_topology.graph)
        nodes = list(small_topology.graph.nodes())
        for u, v in [(nodes[0], nodes[-1]), (nodes[3], nodes[7])]:
            path = table.path(u, v)
            total = sum(
                table.edge_cost(a, b) for a, b in zip(path, path[1:])
            )
            assert total == pytest.approx(table.distance(u, v))

    def test_edge_cost_rejects_non_edges(self, diamond):
        table = RoutingTable(diamond)
        with pytest.raises(ValueError):
            table.edge_cost(1, 2)


class TestAggregateCosts:
    def test_unicast_cost_sums_distances(self, diamond):
        table = RoutingTable(diamond)
        assert table.unicast_cost(0, [1, 2, 3]) == pytest.approx(
            1.0 + 5.0 + 2.0
        )

    def test_unicast_cost_empty(self, diamond):
        assert RoutingTable(diamond).unicast_cost(0, []) == 0.0

    def test_unicast_counts_shared_links_repeatedly(self, line_graph):
        # 0->2 and 0->3 both cross edges (0,1) and (1,2).
        table = RoutingTable(line_graph)
        assert table.unicast_cost(0, [2, 3]) == pytest.approx(3.0 + 6.0)

    def test_tree_cost_pays_shared_links_once(self, line_graph):
        table = RoutingTable(line_graph)
        assert table.shortest_path_tree_cost(0, [2, 3]) == pytest.approx(6.0)

    def test_tree_cost_single_target_equals_distance(self, small_topology):
        table = RoutingTable(small_topology.graph)
        nodes = list(small_topology.graph.nodes())
        for target in nodes[:8]:
            assert table.shortest_path_tree_cost(
                nodes[-1], [target]
            ) == pytest.approx(table.distance(nodes[-1], target))

    def test_tree_cost_at_most_unicast(self, small_topology, rng):
        table = RoutingTable(small_topology.graph)
        nodes = list(small_topology.graph.nodes())
        for _ in range(20):
            source = int(rng.choice(nodes))
            targets = rng.choice(nodes, size=8, replace=False).tolist()
            tree = table.shortest_path_tree_cost(source, targets)
            unicast = table.unicast_cost(source, targets)
            assert tree <= unicast + 1e-9

    def test_tree_cost_at_least_max_distance(self, small_topology, rng):
        # The tree must at least reach the farthest target.
        table = RoutingTable(small_topology.graph)
        nodes = list(small_topology.graph.nodes())
        source = nodes[0]
        targets = nodes[5:15]
        tree = table.shortest_path_tree_cost(source, targets)
        farthest = max(table.distance(source, t) for t in targets)
        assert tree >= farthest - 1e-9

    def test_tree_edges_form_tree(self, small_topology):
        table = RoutingTable(small_topology.graph)
        nodes = list(small_topology.graph.nodes())
        edges = table.tree_edges(nodes[0], nodes[1:20])
        graph = nx.Graph(edges)
        assert nx.is_tree(graph) or len(edges) == 0
        for target in nodes[1:20]:
            assert graph.has_node(target)

    def test_tree_cost_matches_tree_edges(self, small_topology):
        table = RoutingTable(small_topology.graph)
        nodes = list(small_topology.graph.nodes())
        targets = nodes[1:25]
        cost = table.shortest_path_tree_cost(nodes[0], targets)
        edges = table.tree_edges(nodes[0], targets)
        assert cost == pytest.approx(
            sum(table.edge_cost(u, v) for u, v in edges)
        )

    def test_target_equal_to_source_costs_nothing(self, diamond):
        table = RoutingTable(diamond)
        assert table.shortest_path_tree_cost(0, [0]) == 0.0


def reference_tree_walk(table, source, targets):
    """The tree walk as it was before the per-source rows: predecessor
    matrix reads and ``(prev, fresh)`` cost-dict probes, hop by hop."""
    cost = 0.0
    edges = []
    visited = {source}
    pred_row = table._pred[source]
    for target in targets:
        node = int(target)
        walk = []
        while node not in visited:
            walk.append(node)
            node = int(pred_row[node])
        prev = node
        for fresh in reversed(walk):
            cost += table._cost_lookup[(prev, fresh)]
            edges.append((prev, fresh))
            visited.add(fresh)
            prev = fresh
    return cost, edges


class TestTreeWalkAgainstReference:
    """The flat rows add the same edge costs in the same order, so
    costs are equal to the last bit, not approximately."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_cost_and_edges_equal_reference(self, seed, data):
        params = TransitStubParams(
            transit_blocks=2,
            transit_nodes_per_block=2,
            stubs_per_transit_node=2,
            nodes_per_stub=4,
            size_spread=1,
        )
        topology = TransitStubGenerator(params, seed=seed).generate()
        table = RoutingTable.from_topology(topology)
        node = st.integers(0, table.num_nodes - 1)
        for _ in range(5):  # later queries reuse a source's rows
            source = data.draw(node)
            targets = data.draw(st.lists(node, max_size=12))
            if targets and data.draw(st.booleans()):
                targets += [source, targets[0]]
            cost, edges = reference_tree_walk(table, source, targets)
            assert table.shortest_path_tree_cost(source, targets) == cost
            assert table.tree_edges(source, targets) == edges
            # Sets and generators are walked in their own order too.
            as_set = frozenset(targets)
            assert table.shortest_path_tree_cost(source, as_set) == (
                reference_tree_walk(table, source, as_set)[0]
            )

    def test_no_targets(self, diamond):
        table = RoutingTable(diamond)
        assert table.shortest_path_tree_cost(0, []) == 0.0
        assert table.tree_edges(0, []) == []

    def test_edges_are_python_ints_parent_first(self, line_graph):
        table = RoutingTable(line_graph)
        edges = table.tree_edges(0, np.array([3, 2]))
        assert edges == [(0, 1), (1, 2), (2, 3)]
        assert all(type(x) is int for edge in edges for x in edge)


class TestRelabelling:
    def test_non_contiguous_labels(self):
        graph = nx.Graph()
        graph.add_edge(10, 20, cost=1.0)
        graph.add_edge(20, 30, cost=2.0)
        table = RoutingTable(graph)
        # Relabelled to 0..2 in sorted order.
        assert table.distance(0, 2) == 3.0


class TestPathWalksTheParentRow:
    def test_every_pair_equals_the_predecessor_matrix_walk(self):
        params = TransitStubParams(
            transit_blocks=2,
            transit_nodes_per_block=2,
            stubs_per_transit_node=1,
            nodes_per_stub=5,
            size_spread=1,
        )
        table = RoutingTable.from_topology(
            TransitStubGenerator(params, seed=3).generate()
        )
        for source in range(table.num_nodes):
            for target in range(table.num_nodes):
                expected = [target]
                while expected[-1] != source:
                    expected.append(int(table._pred[source, expected[-1]]))
                expected.reverse()
                path = table.path(source, target)
                assert path == expected
                assert all(type(node) is int for node in path)


class TestNodesOutsideTheNetwork:
    """An id outside ``0..num_nodes-1`` names itself in a ``ValueError``.

    A negative id used to index the predecessor row from its end
    (``tree_edges(0, [-1])`` on 0-1-2 gave ``[(0, 1), (1, -1)]``, the
    costs priced node 2) and an id past the end raised ``IndexError``.
    """

    @pytest.fixture()
    def table(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, cost=1.0)
        graph.add_edge(1, 2, cost=2.0)
        return RoutingTable(graph)

    @pytest.mark.parametrize("node", [-1, -3, 3, 255, 256, 70_000])
    def test_every_entry_point_names_the_node(self, table, node):
        message = f"node {node} is not in the network"
        calls = [
            lambda: table.path(0, node),
            lambda: table.tree_edges(0, [1, node]),
            lambda: table.shortest_path_tree_cost(0, [2, node]),
            lambda: table.unicast_cost(0, [node, 1]),
            lambda: table.path(node, 0),
            lambda: table.shortest_path_tree_cost(node, [0]),
        ]
        if node < 0:  # past the end fails where the array is used
            calls.append(lambda: table.node_array([1, node]))
        for call in calls:
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()

    def test_arrays_and_iterators_are_checked_too(self, table):
        with pytest.raises(ValueError, match="node -1 is not"):
            table.unicast_cost(0, np.array([1, -1]))
        with pytest.raises(ValueError, match="node 3 is not"):
            table.shortest_path_tree_cost(0, iter([2, 3]))
        with pytest.raises(ValueError, match="node 3 is not"):
            table.tree_edges(0, table.node_array([1]) + 2)

    def test_the_table_serves_after_a_raise(self, table):
        with pytest.raises(ValueError):
            table.shortest_path_tree_cost(0, [1, -1])
        assert table.shortest_path_tree_cost(0, [2, 1]) == 3.0
        assert table.tree_edges(0, [2]) == [(0, 1), (1, 2)]
        assert table.path(0, 2) == [0, 1, 2]
        assert table.unicast_cost(0, [1, 2]) == 4.0


class TestSurvivingGraphs:
    @pytest.fixture()
    def surviving(self, line_graph):
        return SurvivingGraphs(line_graph)

    def test_one_graph_per_state_whatever_the_set_type(self, surviving):
        whole = surviving.without(frozenset(), frozenset())
        cut = surviving.without(frozenset(), frozenset({(2, 1)}))
        assert surviving.without((), ()) is whole
        assert surviving.without(set(), {(2, 1)}) is cut
        assert sorted(whole.edges) == [(0, 1), (1, 2), (2, 3)]
        assert sorted(cut.edges) == [(0, 1), (2, 3)]
        assert sorted(surviving.without({3}, ()).nodes) == [0, 1, 2]

    def test_paths(self, surviving):
        assert surviving.path(0, 3, (), ()) == [0, 1, 2, 3]
        assert surviving.path(0, 3, (), {(1, 2)}) is None
        assert surviving.path(0, 3, {2}, ()) is None
        assert surviving.path(0, 1, {0}, ()) is None
        assert surviving.path(2, 2, {0}, {(1, 2)}) == [2]

    def test_the_topology_is_never_modified(self, surviving, line_graph):
        alive = surviving.without({1}, {(2, 3)})
        assert alive.number_of_edges() == 0
        assert line_graph.number_of_edges() == 3
        assert line_graph.number_of_nodes() == 4
        # Edge data is shared with the topology, not copied.
        whole = surviving.without((), ())
        assert whole.edges[0, 1] is line_graph.edges[0, 1]

    def test_adjacency_order_is_the_topology_s(self):
        """Dijkstra breaks equal-cost ties in adjacency order, so a
        surviving graph rebuilt edge by edge would route differently."""
        graph = nx.Graph()
        # Node 3's neighbours go in as 2 then 1; a rebuild that walks
        # nodes in order would meet the edge (1, 3) first.
        for u, v in [(0, 1), (0, 2), (2, 3), (1, 3), (3, 4), (0, 4)]:
            graph.add_edge(u, v, cost=1.0)
        alive = SurvivingGraphs(graph).without((), {(0, 4)})
        for node in graph:
            kept = [n for n in graph.adj[node] if (node, n) not in {(0, 4), (4, 0)}]
            assert list(alive.adj[node]) == kept
        assert list(alive.adj[3]) == [2, 1, 4]
