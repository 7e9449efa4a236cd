"""Unit tests for the transit-stub topology generator."""

import networkx as nx
import pytest

from repro.network import Topology, TransitStubGenerator, TransitStubParams


class TestParams:
    def test_defaults_give_paper_scale(self):
        params = TransitStubParams()
        expected = (
            params.transit_blocks
            * params.transit_nodes_per_block
            * (1 + params.stubs_per_transit_node * params.nodes_per_stub)
        )
        assert expected == 615  # ~600 nodes, as in the paper

    def test_validation(self):
        with pytest.raises(ValueError):
            TransitStubParams(transit_blocks=0)
        with pytest.raises(ValueError):
            TransitStubParams(transit_nodes_per_block=0)
        with pytest.raises(ValueError):
            TransitStubParams(stubs_per_transit_node=0)
        with pytest.raises(ValueError):
            TransitStubParams(nodes_per_stub=0)
        with pytest.raises(ValueError):
            TransitStubParams(extra_edge_prob=1.5)


class TestGeneration:
    def test_deterministic_with_seed(self):
        a = TransitStubGenerator(seed=5).generate()
        b = TransitStubGenerator(seed=5).generate()
        assert sorted(a.graph.edges()) == sorted(b.graph.edges())
        assert a.stub_members == b.stub_members

    def test_different_seeds_differ(self):
        a = TransitStubGenerator(seed=5).generate()
        b = TransitStubGenerator(seed=6).generate()
        assert sorted(a.graph.edges()) != sorted(b.graph.edges())

    def test_connected(self, paper_topology):
        assert nx.is_connected(paper_topology.graph)

    def test_paper_scale_node_count(self, paper_topology):
        # 3 blocks x ~5 transit x (1 + 2 stubs x ~20) — roughly 600.
        assert 400 <= paper_topology.num_nodes <= 800

    def test_block_structure(self, paper_topology):
        assert paper_topology.num_blocks == 3
        for block_nodes in paper_topology.transit_nodes:
            assert len(block_nodes) >= 1

    def test_every_transit_node_has_stubs(self, paper_topology):
        topo = paper_topology
        expected_stubs = 2 * len(topo.all_transit_nodes())
        assert topo.num_stubs == expected_stubs

    def test_stub_membership_partitions_stub_nodes(self, paper_topology):
        all_members = [n for ms in paper_topology.stub_members for n in ms]
        assert len(all_members) == len(set(all_members))
        assert set(all_members) == set(paper_topology.all_stub_nodes())

    def test_node_attributes(self, paper_topology):
        for node, data in paper_topology.graph.nodes(data=True):
            assert data["kind"] in ("transit", "stub")
            assert 0 <= data["block"] < 3
            if data["kind"] == "stub":
                assert 0 <= data["stub"] < paper_topology.num_stubs

    def test_edge_costs_positive(self, paper_topology):
        for _, _, data in paper_topology.graph.edges(data=True):
            assert data["cost"] > 0

    def test_cost_tiers(self, paper_topology):
        # Intra-stub edges must be cheaper than inter-block edges.
        graph = paper_topology.graph
        stub_costs = []
        inter_costs = []
        for u, v, data in graph.edges(data=True):
            du, dv = graph.nodes[u], graph.nodes[v]
            if (
                du["kind"] == dv["kind"] == "stub"
                and du.get("stub") == dv.get("stub")
            ):
                stub_costs.append(data["cost"])
            elif (
                du["kind"] == dv["kind"] == "transit"
                and du["block"] != dv["block"]
            ):
                inter_costs.append(data["cost"])
        assert max(stub_costs) < min(inter_costs)

    def test_blocks_pairwise_connected_directly(self, paper_topology):
        graph = paper_topology.graph
        seen_pairs = set()
        for u, v in graph.edges():
            du, dv = graph.nodes[u], graph.nodes[v]
            if du["kind"] == dv["kind"] == "transit":
                if du["block"] != dv["block"]:
                    seen_pairs.add(
                        tuple(sorted((du["block"], dv["block"])))
                    )
        assert seen_pairs == {(0, 1), (0, 2), (1, 2)}

    def test_single_block_topology(self):
        params = TransitStubParams(
            transit_blocks=1,
            transit_nodes_per_block=1,
            stubs_per_transit_node=1,
            nodes_per_stub=3,
            size_spread=0,
        )
        topo = TransitStubGenerator(params, seed=1).generate()
        assert topo.num_blocks == 1
        assert topo.num_stubs == 1
        assert nx.is_connected(topo.graph)


class TestTopologyAccessors:
    def test_stubs_in_block(self, paper_topology):
        total = sum(
            len(paper_topology.stubs_in_block(b)) for b in range(3)
        )
        assert total == paper_topology.num_stubs

    def test_edge_cost_accessor(self, paper_topology):
        u, v = next(iter(paper_topology.graph.edges()))
        assert paper_topology.edge_cost(u, v) > 0

    def test_validate_passes(self, paper_topology):
        paper_topology.validate()

    def test_validate_detects_bad_cost(self, small_topology):
        broken = Topology(
            graph=small_topology.graph.copy(),
            transit_nodes=small_topology.transit_nodes,
            stub_members=small_topology.stub_members,
            stub_block=small_topology.stub_block,
        )
        u, v = next(iter(broken.graph.edges()))
        broken.graph.edges[u, v]["cost"] = -1.0
        with pytest.raises(ValueError, match="non-positive cost"):
            broken.validate()

    def test_validate_errors_are_uniform_valueerrors(self, small_topology):
        # All three structural violations surface as ValueError with
        # the shared "invalid topology" prefix, so callers can catch
        # malformed-topology errors uniformly.
        zero_cost = Topology(
            graph=small_topology.graph.copy(),
            transit_nodes=small_topology.transit_nodes,
            stub_members=small_topology.stub_members,
            stub_block=small_topology.stub_block,
        )
        u, v = next(iter(zero_cost.graph.edges()))
        zero_cost.graph.edges[u, v]["cost"] = 0.0
        with pytest.raises(ValueError, match="invalid topology"):
            zero_cost.validate()

        no_kind = Topology(
            graph=small_topology.graph.copy(),
            transit_nodes=small_topology.transit_nodes,
            stub_members=small_topology.stub_members,
            stub_block=small_topology.stub_block,
        )
        node = next(iter(no_kind.graph.nodes()))
        del no_kind.graph.nodes[node]["kind"]
        with pytest.raises(ValueError, match="invalid topology.*node kind"):
            no_kind.validate()

        disconnected = Topology(
            graph=small_topology.graph.copy(),
            transit_nodes=small_topology.transit_nodes,
            stub_members=small_topology.stub_members,
            stub_block=small_topology.stub_block,
        )
        disconnected.graph.add_node(424242, kind="stub", block=0, stub=0)
        with pytest.raises(ValueError, match="invalid topology.*connected"):
            disconnected.validate()
