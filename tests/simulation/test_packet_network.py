"""Unit tests for the store-and-forward packet transport."""

import networkx as nx
import pytest

from repro.network import RoutingTable
from repro.network.topology import Topology
from repro.simulation import DiscreteEventSimulator, PacketNetwork


def line_topology():
    """0 -- 1 -- 2 -- 3 with unit costs, wrapped as a Topology."""
    graph = nx.Graph()
    for i in range(3):
        graph.add_edge(i, i + 1, cost=1.0)
    for node in graph.nodes():
        graph.nodes[node]["kind"] = "stub"
        graph.nodes[node]["block"] = 0
        graph.nodes[node]["stub"] = 0
    return Topology(
        graph=graph,
        transit_nodes=[[]],
        stub_members=[[0, 1, 2, 3]],
        stub_block=[0],
    )


def star_topology(leaves=4):
    """Hub 0 with unit-cost spokes to 1..leaves."""
    graph = nx.Graph()
    for i in range(1, leaves + 1):
        graph.add_edge(0, i, cost=1.0)
    for node in graph.nodes():
        graph.nodes[node]["kind"] = "stub"
        graph.nodes[node]["block"] = 0
        graph.nodes[node]["stub"] = 0
    return Topology(
        graph=graph,
        transit_nodes=[[]],
        stub_members=[list(range(leaves + 1))],
        stub_block=[0],
    )


@pytest.fixture()
def line():
    sim = DiscreteEventSimulator()
    network = PacketNetwork(
        line_topology(), sim, transmission_time=0.5, propagation_scale=1.0
    )
    return sim, network


class TestUnicast:
    def test_latency_is_hops_times_cost_plus_tx(self, line):
        sim, network = line
        arrivals = []
        network.send_unicast(0, 3, lambda node, t: arrivals.append((node, t)))
        sim.run()
        # 3 hops, each: 0.5 tx + 1.0 propagation -> 4.5 total.
        assert arrivals == [(3, pytest.approx(4.5))]

    def test_self_delivery_is_instant(self, line):
        sim, network = line
        arrivals = []
        network.send_unicast(2, 2, lambda node, t: arrivals.append((node, t)))
        sim.run()
        assert arrivals == [(2, 0.0)]

    def test_two_messages_serialize_on_shared_link(self):
        sim = DiscreteEventSimulator()
        network = PacketNetwork(
            star_topology(), sim, transmission_time=1.0, propagation_scale=1.0
        )
        arrivals = {}
        # Two messages from the hub to the same leaf at t=0: the second
        # waits out the first's transmission slot.
        network.send_unicast(0, 1, lambda n, t: arrivals.setdefault("a", t))
        network.send_unicast(0, 1, lambda n, t: arrivals.setdefault("b", t))
        sim.run()
        assert arrivals["a"] == pytest.approx(2.0)  # 1 tx + 1 prop
        assert arrivals["b"] == pytest.approx(3.0)  # waits 1 tx slot
        assert network.log.queueing_delay == pytest.approx(1.0)
        assert network.log.max_link_queue == pytest.approx(1.0)

    def test_opposite_directions_do_not_interfere(self):
        sim = DiscreteEventSimulator()
        network = PacketNetwork(
            line_topology(), sim, transmission_time=1.0, propagation_scale=1.0
        )
        arrivals = {}
        network.send_unicast(0, 1, lambda n, t: arrivals.setdefault("fwd", t))
        network.send_unicast(1, 0, lambda n, t: arrivals.setdefault("rev", t))
        sim.run()
        # Full-duplex: both complete in one tx + one prop.
        assert arrivals["fwd"] == pytest.approx(2.0)
        assert arrivals["rev"] == pytest.approx(2.0)
        assert network.log.queueing_delay == 0.0

    def test_transmission_count(self, line):
        sim, network = line
        network.send_unicast(0, 3, lambda n, t: None)
        sim.run()
        assert network.log.transmissions == 3


class TestMulticast:
    def test_tree_pays_shared_links_once(self, line):
        sim, network = line
        arrivals = []
        # Members 2 and 3 share the first two links; the tree carries
        # one copy over them.
        network.send_multicast(
            0, [2, 3], lambda node, t: arrivals.append((node, t))
        )
        sim.run()
        assert network.log.transmissions == 3  # edges (0,1),(1,2),(2,3)
        assert dict(arrivals)[2] == pytest.approx(3.0)
        assert dict(arrivals)[3] == pytest.approx(4.5)

    def test_source_in_members_delivered_instantly(self, line):
        sim, network = line
        arrivals = []
        network.send_multicast(
            1, [1, 3], lambda node, t: arrivals.append((node, t))
        )
        sim.run()
        assert (1, 0.0) in arrivals
        assert len(arrivals) == 2

    def test_star_fanout_serializes_at_hub(self):
        sim = DiscreteEventSimulator()
        network = PacketNetwork(
            star_topology(4), sim, transmission_time=1.0, propagation_scale=1.0
        )
        arrivals = {}
        network.send_multicast(
            0, [1, 2, 3, 4], lambda n, t: arrivals.__setitem__(n, t)
        )
        sim.run()
        # Four distinct spoke links: no shared-link queueing, but each
        # copy still pays its own transmission.
        assert sorted(arrivals.values()) == pytest.approx(
            [2.0, 2.0, 2.0, 2.0]
        )
        assert network.log.transmissions == 4

    def test_multicast_beats_unicast_storm_on_shared_path(self):
        """The headline transport effect: n unicasts re-send the shared
        path n times; the tree sends it once."""
        results = {}
        for pattern in ("unicast", "multicast"):
            sim = DiscreteEventSimulator()
            network = PacketNetwork(
                line_topology(), sim,
                transmission_time=1.0, propagation_scale=1.0,
            )
            latest = []
            if pattern == "unicast":
                for target in (1, 2, 3):
                    network.send_unicast(
                        0, target, lambda n, t: latest.append(t)
                    )
            else:
                network.send_multicast(
                    0, [1, 2, 3], lambda n, t: latest.append(t)
                )
            sim.run()
            results[pattern] = (
                network.log.transmissions,
                max(latest),
                network.log.queueing_delay,
            )
        uni_tx, uni_worst, uni_queue = results["unicast"]
        mc_tx, mc_worst, mc_queue = results["multicast"]
        assert mc_tx < uni_tx  # 3 vs 6
        assert mc_worst <= uni_worst
        assert mc_queue <= uni_queue

    def test_sparse_mode_via_rendezvous(self, line):
        """Sparse flow: publisher->RP unicast, then the shared tree."""
        sim, network = line
        arrivals = {}
        # Publisher 0, rendezvous 2, members {1, 3}.
        network.send_multicast(
            0, [1, 3], lambda n, t: arrivals.__setitem__(n, t), via=2
        )
        sim.run()
        # Leg 0->2: 2 hops x (0.5 tx + 1 prop) = 3.0.
        # Tree from 2: member 3 via one hop (+1.5), member 1 via one
        # hop back (+1.5).
        assert arrivals[3] == pytest.approx(4.5)
        assert arrivals[1] == pytest.approx(4.5)

    def test_sparse_mode_rendezvous_is_member(self, line):
        sim, network = line
        arrivals = {}
        network.send_multicast(
            0, [2, 3], lambda n, t: arrivals.__setitem__(n, t), via=2
        )
        sim.run()
        # The rendezvous member is delivered the moment the leg lands.
        assert arrivals[2] == pytest.approx(3.0)
        assert arrivals[3] == pytest.approx(4.5)

    def test_sparse_mode_source_is_rendezvous(self, line):
        sim, network = line
        arrivals = {}
        network.send_multicast(
            1, [1, 2], lambda n, t: arrivals.__setitem__(n, t), via=1
        )
        sim.run()
        assert arrivals[1] == 0.0  # self-delivery at the root
        assert arrivals[2] == pytest.approx(1.5)

    def test_sparse_costs_more_than_dense_here(self, line):
        """On the line, routing 0's message via RP 3 doubles back."""
        results = {}
        for label, via in (("dense", None), ("sparse", 3)):
            sim = DiscreteEventSimulator()
            network = PacketNetwork(
                line_topology(), sim,
                transmission_time=0.5, propagation_scale=1.0,
            )
            latest = []
            network.send_multicast(
                0, [1, 2], lambda n, t: latest.append(t), via=via
            )
            sim.run()
            results[label] = (max(latest), network.log.transmissions)
        assert results["sparse"][0] > results["dense"][0]
        assert results["sparse"][1] > results["dense"][1]


class TestValidation:
    def test_parameters(self):
        sim = DiscreteEventSimulator()
        with pytest.raises(ValueError):
            PacketNetwork(line_topology(), sim, transmission_time=-1.0)
        with pytest.raises(ValueError):
            PacketNetwork(line_topology(), sim, propagation_scale=0.0)
