"""Injected duplicates on a multi-hop path: every copy continues on its own.

A duplicate puts two copies on one link, and **both** must go on from
the hop they arrived at.  So with ``default_duplicate=1.0`` an ``h``-hop
unicast ends in ``2**h`` deliveries after ``2**(h + 1) - 2`` link
transmissions.  A transit that advances one position shared between
the copies lets the second copy skip a hop; it passed every other test
in the suite, which is why these exist.
"""

import pytest

from repro.faults.plan import FaultInjector, FaultPlan, LinkOutage
from repro.network import TransitStubGenerator
from repro.simulation import DiscreteEventSimulator, PacketNetwork


@pytest.fixture(scope="module")
def topology():
    """The 2003 testbed's network (what ``bench/`` deploys on)."""
    return TransitStubGenerator(seed=2003).generate()


@pytest.fixture(scope="module")
def long_path(topology):
    """The 9-hop shortest path between the first and last stub nodes."""
    stubs = topology.all_stub_nodes()
    sim = DiscreteEventSimulator()
    path = PacketNetwork(topology, sim).routing.path(stubs[0], stubs[-1])
    assert len(path) == 10
    return path


def run_along(topology, path, plan=None, hop_retries=0):
    sim = DiscreteEventSimulator()
    injector = None if plan is None else FaultInjector(plan)
    network = PacketNetwork(
        topology, sim, injector=injector, hop_retries=hop_retries
    )
    arrivals = []
    network.send_along(path, lambda node, t: arrivals.append((node, t)))
    sim.run()
    return network, arrivals


ALWAYS_DUPLICATE = FaultPlan(seed=1, default_duplicate=1.0)


class TestEveryCopyContinues:
    @pytest.mark.parametrize("hops", [3, 9])
    def test_deliveries_double_per_hop(self, topology, long_path, hops):
        path = long_path[: hops + 1]
        _, clean = run_along(topology, path)
        network, arrivals = run_along(topology, path, ALWAYS_DUPLICATE)
        assert len(arrivals) == 2**hops
        assert network.log.transmissions == 2 ** (hops + 1) - 2
        assert network.injector.stats.duplicates_injected == 2**hops - 1
        assert {node for node, _ in arrivals} == {path[-1]}
        # A duplicate waits for the link behind its twin; it is never
        # early, and it never skips a link's delay.
        (_, clean_time), = clean
        assert min(t for _, t in arrivals) >= clean_time
        assert [t for _, t in arrivals] == sorted(t for _, t in arrivals)

    def test_nine_hop_unicast_on_the_testbed(self, topology, long_path):
        sim = DiscreteEventSimulator()
        network = PacketNetwork(
            topology, sim, injector=FaultInjector(ALWAYS_DUPLICATE)
        )
        arrivals = []
        network.send_unicast(
            long_path[0],
            long_path[-1],
            lambda node, t: arrivals.append((node, t)),
        )
        sim.run()
        assert len(arrivals) == 512
        assert network.log.transmissions == 1022
        assert arrivals[0] == (
            long_path[-1],
            pytest.approx(105.302966, abs=1e-5),
        )


class TestDuplicatesUnderArq:
    def test_outage_shorter_than_the_retry_budget(self, topology, long_path):
        """Every copy reaching the dead link is retried through it."""
        _, clean = run_along(topology, long_path)
        u, v = long_path[4], long_path[5]
        _, to_mid = run_along(topology, long_path[:5])
        plan = FaultPlan(
            seed=1,
            default_duplicate=1.0,
            outages=(LinkOutage(u, v, 0.0, to_mid[0][1] + 1.0),),
        )
        network, arrivals = run_along(
            topology, long_path, plan, hop_retries=2
        )
        stats = network.injector.stats
        assert stats.outage_drops > 0
        assert len(arrivals) == 2**9
        # A dropped copy occupied its link once; every copy that got
        # through went out twice.
        assert network.log.retransmissions == stats.outage_drops
        assert network.log.transmissions == 2**10 - 2 + stats.outage_drops
        assert min(t for _, t in arrivals) > clean[0][1]

    def test_outage_outliving_the_retry_budget(self, topology, long_path):
        """16 copies reach the dead link; each is tried three times."""
        u, v = long_path[4], long_path[5]
        plan = FaultPlan(
            seed=1,
            default_duplicate=1.0,
            outages=(LinkOutage(u, v, 0.0, 1e9),),
        )
        network, arrivals = run_along(
            topology, long_path, plan, hop_retries=2
        )
        assert arrivals == []
        assert network.injector.stats.outage_drops == 16 * 3
        assert network.log.retransmissions == 16 * 2
        assert network.log.transmissions == (2**5 - 2) + 16 * 3


class TestDuplicatesThroughARendezvous:
    def test_every_copy_of_the_first_leg_starts_the_tree(
        self, topology, long_path
    ):
        source, via = long_path[0], long_path[3]
        members = [long_path[3], long_path[6], long_path[9]]
        sim = DiscreteEventSimulator()
        network = PacketNetwork(
            topology, sim, injector=FaultInjector(ALWAYS_DUPLICATE)
        )
        routing = network.routing
        leg = len(routing.path(source, via)) - 1
        depth = {via: 0}
        tree = routing.tree_edges(via, members)
        for parent, child in tree:
            depth[child] = depth[parent] + 1
        arrivals = []
        network.send_multicast(
            source, members, lambda n, t: arrivals.append((n, t)), via=via
        )
        sim.run()
        for member in members:
            count = sum(1 for node, _ in arrivals if node == member)
            assert count == 2 ** (leg + depth[member])
        # The first leg is a unicast; each of its 2**leg arrivals then
        # crosses every tree edge at depth d with 2**(d - 1) copies in,
        # two out.
        per_start = sum(2 ** depth[child] for _, child in tree)
        assert network.log.transmissions == (
            2 ** (leg + 1) - 2 + 2**leg * per_start
        )
        clean_sim = DiscreteEventSimulator()
        clean = PacketNetwork(topology, clean_sim)
        first = {}
        clean.send_multicast(
            source, members, lambda n, t: first.setdefault(n, t), via=via
        )
        clean_sim.run()
        for node, time in arrivals:
            assert time >= first[node]
