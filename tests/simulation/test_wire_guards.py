"""Machine-independent guards on what the wire and the detours cost.

Counts, not timings: how often a run filters the topology graph or
recomputes its components, and how many Python-level calls one message
makes on its way across nine links.  Measured from outside
(``monkeypatch`` / ``sys.setprofile``); the code under test carries no
counter for this.
"""

import sys
from collections import Counter

import networkx as nx

from repro.cli import main
from repro.faults.plan import FaultInjector, FaultPlan
from repro.network import TransitStubGenerator
from repro.simulation import DiscreteEventSimulator, PacketNetwork


class TestOneSurvivingGraphPerFaultState:
    def test_cluster_kill_run(self, monkeypatch, capsys):
        """A kill changes the fault state once; the run asks for detours
        and majority components under it hundreds of times."""
        views = Counter()
        components = []
        restricted_view = nx.restricted_view
        connected_components = nx.connected_components

        def counting_view(graph, nodes, edges):
            views[(frozenset(nodes), frozenset(edges))] += 1
            return restricted_view(graph, nodes, edges)

        def counting_components(graph):
            components.append(graph)
            return connected_components(graph)

        monkeypatch.setattr(nx, "restricted_view", counting_view)
        monkeypatch.setattr(nx, "connected_components", counting_components)
        code = main(
            [
                "chaos",
                "--cluster",
                "--cluster-scenario",
                "kill",
                "--events",
                "200",
            ]
        )
        capsys.readouterr()
        assert code == 0
        # The scenario does exercise both (or this guards nothing) ...
        assert views and components
        # ... and neither more than once per distinct fault state.
        assert set(views.values()) == {1}
        assert len(components) <= len(views)


def python_calls(action):
    """Python-level function calls made while ``action`` runs."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return calls


class TestCallsPerHop:
    def test_nine_hop_unicast(self):
        """One message, nine links, an injector attached that injects
        nothing: ten calls a hop is the budget (the closure-per-hop
        wire with window scans per transmission made 134)."""
        topology = TransitStubGenerator(seed=2003).generate()
        stubs = topology.all_stub_nodes()
        sim = DiscreteEventSimulator()
        network = PacketNetwork(
            topology,
            sim,
            injector=FaultInjector(FaultPlan(seed=1, default_loss=0.0)),
        )
        assert len(network.routing.path(stubs[0], stubs[-1])) == 10
        arrivals = []

        def deliver(node, time):
            arrivals.append(node)

        def send_and_run():
            network.send_unicast(stubs[0], stubs[-1], deliver)
            sim.run()

        calls = python_calls(send_and_run)
        assert arrivals == [stubs[-1]]
        assert network.log.transmissions == 9
        assert len(calls) <= 100, Counter(calls)
