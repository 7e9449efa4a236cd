"""The dense-mode tree walk against a set-based reference walk.

``reference_walk`` is the walk one Python step per node, with a fresh
``covered`` set per call, over the predecessor matrix and
:meth:`~repro.network.RoutingTable.edge_cost`.  Over generated weighted
graphs — disconnected ones included — and generated target lists, and
over the paper-scale network with target lists drawn like the
workload's, the table's costs must be float-equal to the reference's
(the same edge costs added in the same order) and its edge lists
list-equal, and a target with no path must raise without spoiling the
next call.  :meth:`~repro.network.RoutingTable.path` is held to the
same predecessor walk for every pair of nodes.
"""

from __future__ import annotations

import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import RoutingTable
from repro.workload import StockSubscriptionGenerator


def reference_walk(table, source, targets):
    """``(cost, edges)`` of the tree reaching ``targets``, walked with
    a per-call set of covered nodes."""
    parents = table._pred[source].tolist()
    covered = {source}
    order = []
    for target in targets:
        node = int(target)
        walk = []
        while node not in covered:
            covered.add(node)
            walk.append(node)
            node = parents[node]
            if node < 0:
                raise ValueError(f"no path from {source} to {target}")
        walk.reverse()
        order += walk
    cost = 0.0
    for node in order:
        cost += table.edge_cost(parents[node], node)
    return cost, [(parents[node], node) for node in order]


def reference_path(table, source, target):
    """The predecessor walk from ``target`` back to ``source``."""
    if source == target:
        return [source]
    parents = table._pred[source].tolist()
    path = [target]
    while path[-1] != source:
        parent = parents[path[-1]]
        if parent < 0:
            raise ValueError(f"no path from {source} to {target}")
        path.append(parent)
    path.reverse()
    return path


#: Costs over six orders of magnitude, so the order of addition shows
#: in the last bits of a sum.
edge_costs = st.floats(
    min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
)


@st.composite
def weighted_graphs(draw):
    """A graph on ``0..n-1``, connected or not, with positive costs."""
    n = draw(st.integers(1, 14))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    if n > 1:
        node = st.integers(0, n - 1)
        pairs = draw(
            st.lists(
                st.tuples(node, node).filter(lambda p: p[0] != p[1]),
                max_size=3 * n,
            )
        )
        for u, v in pairs:
            graph.add_edge(u, v, cost=draw(edge_costs))
    return graph


def draw_targets(data, table, source):
    """Targets with repeats, the source now and then, often empty."""
    node = st.integers(0, table.num_nodes - 1)
    targets = data.draw(st.lists(node, max_size=16))
    if targets and data.draw(st.booleans()):
        targets.append(targets[0])
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(targets)))
        targets.insert(at, source)
    return targets


def assert_walks_agree(table, source, targets):
    """Both walks raise alike or agree exactly; returns whether the
    reference raised."""
    try:
        cost, edges = reference_walk(table, source, targets)
    except ValueError as error:
        with pytest.raises(ValueError, match=re.escape(str(error))):
            table.shortest_path_tree_cost(source, targets)
        with pytest.raises(ValueError, match=re.escape(str(error))):
            table.tree_edges(source, targets)
        return True
    assert table.shortest_path_tree_cost(source, targets) == cost
    assert table.tree_edges(source, targets) == edges
    return False


@settings(deadline=None)
@given(graph=weighted_graphs(), data=st.data())
def test_walk_equals_reference(graph, data):
    """A run of queries on one table, raising ones included: each call
    after a raise must still equal the reference."""
    table = RoutingTable(graph)
    node = st.integers(0, table.num_nodes - 1)
    for _ in range(6):
        source = data.draw(node)
        targets = draw_targets(data, table, source)
        assert_walks_agree(table, source, targets)


@settings(deadline=None)
@given(graph=weighted_graphs(), data=st.data())
def test_call_after_a_raise(graph, data):
    """A target with no path raises; the next call is exact."""
    table = RoutingTable(graph)
    components = list(nx.connected_components(graph))
    if len(components) < 2:
        return
    first, second = data.draw(
        st.permutations(range(len(components)))
    )[:2]
    source = data.draw(st.sampled_from(sorted(components[first])))
    stranded = data.draw(st.sampled_from(sorted(components[second])))
    reachable = sorted(components[first])
    walked = data.draw(st.lists(st.sampled_from(reachable), max_size=8))
    # Reachable targets are marked before the stranded one raises.
    assert assert_walks_agree(table, source, walked + [stranded] + walked)
    assert not assert_walks_agree(table, source, walked)
    after = data.draw(st.lists(st.sampled_from(reachable), max_size=8))
    assert not assert_walks_agree(table, source, after + walked)


def test_empty_targets_cost_nothing():
    graph = nx.Graph()
    graph.add_edge(0, 1, cost=2.5)
    table = RoutingTable(graph)
    assert table.shortest_path_tree_cost(0, []) == 0.0
    assert table.tree_edges(0, []) == []
    assert table.shortest_path_tree_cost(1, [1, 1]) == 0.0
    assert table.tree_edges(0, [1, 0, 1]) == [(0, 1)]


def test_unreachable_target_raises_then_walks_clean():
    graph = nx.Graph()
    graph.add_edge(0, 1, cost=1.0)
    graph.add_edge(1, 2, cost=2.0)
    graph.add_node(3)
    table = RoutingTable(graph)
    with pytest.raises(ValueError, match="no path from 0 to 3"):
        table.shortest_path_tree_cost(0, [2, 3])
    # 1 and 2 were walked before the raise; they are paid again.
    assert table.shortest_path_tree_cost(0, [2]) == 3.0
    assert table.tree_edges(0, [2, 1]) == [(0, 1), (1, 2)]


@settings(deadline=None)
@given(graph=weighted_graphs())
def test_path_equals_reference(graph):
    """Every (source, target) pair, unreachable ones included."""
    table = RoutingTable(graph)
    for source in range(table.num_nodes):
        for target in range(table.num_nodes):
            try:
                expected = reference_path(table, source, target)
            except ValueError as error:
                with pytest.raises(ValueError, match=re.escape(str(error))):
                    table.path(source, target)
            else:
                assert table.path(source, target) == expected


class TestPaperScale:
    """The walk on the paper-scale network, with target lists drawn
    like the workload's: sorted recipient lists (what the ideal tree is
    charged for) and group ``member_set`` frozensets (what a group
    tree is charged for), from the subscriber nodes of a generated
    subscription set."""

    @pytest.fixture(scope="class")
    def drawn(self, paper_topology):
        table = RoutingTable.from_topology(paper_topology)
        generator = StockSubscriptionGenerator(paper_topology, seed=2003)
        placed = generator.generate(2000)
        subscribers = sorted({p.subscriber for p in placed})
        publishers = paper_topology.all_stub_nodes()
        rng = np.random.default_rng(33)
        lists = []
        for draw in range(240):
            size = int(rng.integers(1, min(300, len(subscribers)) + 1))
            chosen = rng.choice(subscribers, size=size, replace=False).tolist()
            source = int(rng.choice(publishers))
            # Alternate the two shapes the cost model passes.
            lists.append(
                (source, sorted(chosen) if draw % 2 else frozenset(chosen))
            )
        return table, lists

    def test_recipients_and_groups_equal_reference(self, drawn):
        table, lists = drawn
        sizes = [len(targets) for _, targets in lists]
        assert min(sizes) < 10 and max(sizes) > 250
        for source, targets in lists:
            assert not assert_walks_agree(table, source, targets)

    def test_paths_equal_reference(self, drawn):
        table, lists = drawn
        for source, targets in lists[:20]:
            for target in targets:
                assert table.path(source, target) == reference_path(
                    table, source, target
                )
