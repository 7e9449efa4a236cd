"""Chaos harness + delivery-guarantee verifier tests.

Includes the PR's acceptance scenario: 500 events over a ~100-broker
topology with 10% link loss and two broker crash/restart windows,
exactly-once with the reliable protocol, demonstrable loss without it.
"""

from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest

from repro.core import Event, ThresholdPolicy
from repro.core.distribution import DeliveryMethod
from repro.faults import ChaosSimulation, FaultInjector, FaultPlan, FaultState
from repro.faults.verifier import (
    DeliveryLedger,
    build_chaos_plan,
    build_chaos_testbed,
)
from repro.network.routing import RoutingTable
from repro.simulation import DiscreteEventSimulator
from repro.simulation.packet_network import PacketNetwork
from repro.workload import PublicationGenerator


@pytest.fixture(scope="module")
def chaos_setup():
    """The acceptance testbed + workload, built once."""
    broker, density = build_chaos_testbed(seed=2003, subscriptions=300)
    broker = broker.with_policy(ThresholdPolicy(0.15))
    points, publishers = PublicationGenerator(
        density, broker.topology.all_stub_nodes(), seed=2012
    ).generate(500)
    plan = build_chaos_plan(
        broker.topology,
        seed=2003,
        loss=0.1,
        crashes=2,
        crash_length=150.0,
        horizon=500.0,
    )
    return broker, points, publishers, plan


class TestDeliveryLedger:
    def test_tracks_missing_and_duplicates(self):
        ledger = DeliveryLedger()
        ledger.expect(0, [5, 6], published_at=0.0)
        ledger.expect(1, [5], published_at=1.0)
        ledger.record(0, 5, 2.0)
        ledger.record(0, 5, 3.0)  # duplicate
        assert ledger.expected_total == 3
        assert ledger.delivered_distinct == 1
        assert ledger.duplicate_deliveries == 1
        assert ledger.latencies == [2.0]
        missing = ledger.missing("why")
        assert missing == [(0, 6, "why"), (1, 5, "why")]

    def test_fail_reasons_override_default(self):
        ledger = DeliveryLedger()
        ledger.expect(0, [7], published_at=0.0)
        ledger.fail_reasons[(0, 7)] = "retry budget exhausted"
        assert ledger.missing("default") == [
            (0, 7, "retry budget exhausted")
        ]


class TestAcceptanceScenario:
    def test_reliable_run_is_exactly_once(self, chaos_setup):
        broker, points, publishers, plan = chaos_setup
        report = ChaosSimulation(broker, plan, reliable=True).run(
            points, publishers
        )
        assert report.expected > 1000  # a real workload, not a no-op
        assert report.exactly_once
        assert report.delivered == report.expected
        assert report.duplicate_deliveries == 0
        assert not report.missing
        # Faults actually bit: drops happened and were recovered.
        assert report.fault_stats.random_drops > 0
        assert (
            report.fault_stats.sender_down_drops
            + report.fault_stats.receiver_down_drops
            > 0
        )
        assert report.link_retransmissions > 0
        assert report.reliability is not None
        assert report.reliability.retries > 0
        assert report.reliability.gave_up == 0

    def test_unreliable_run_demonstrably_loses(self, chaos_setup):
        broker, points, publishers, plan = chaos_setup
        report = ChaosSimulation(broker, plan, reliable=False).run(
            points, publishers
        )
        assert not report.exactly_once
        assert report.missing
        assert report.delivered_fraction < 1.0
        assert all(
            reason == "lost (no retransmission)"
            for _, _, reason in report.missing
        )

    def test_chaos_run_is_reproducible(self, chaos_setup):
        broker, points, publishers, plan = chaos_setup
        small_points, small_publishers = points[:80], publishers[:80]

        def run_once():
            report = ChaosSimulation(broker, plan, reliable=True).run(
                small_points, small_publishers
            )
            return (
                report.delivered,
                report.transmissions,
                report.link_retransmissions,
                report.finished_at,
                report.fault_stats,
                report.reliability,
            )

        assert run_once() == run_once()


class TestZeroCostWhenDisabled:
    def test_empty_plan_network_is_bit_identical_to_no_injector(self):
        # Same topology, same workload: an attached-but-empty injector
        # must reproduce the injector-free substrate exactly.
        g = nx.Graph()
        g.add_edge(0, 1, cost=1.5)
        g.add_edge(1, 2, cost=2.5)
        g.add_edge(1, 3, cost=3.0)
        g.add_edge(3, 4, cost=1.0)

        def run_network(injector):
            sim = DiscreteEventSimulator()
            net = PacketNetwork(
                SimpleNamespace(graph=g),
                sim,
                routing=RoutingTable(g),
                injector=injector,
            )
            arrivals = []
            for target in (2, 4):
                for _ in range(3):
                    net.send_unicast(
                        0,
                        target,
                        lambda n, t: arrivals.append((n, t)),
                    )
            net.send_multicast(0, [2, 3, 4], lambda n, t: arrivals.append((n, t)))
            finished = sim.run()
            return (
                arrivals,
                finished,
                net.log.transmissions,
                net.log.queueing_delay,
                net.log.max_link_queue,
                net.log.retransmissions,
            )

        baseline = run_network(None)
        with_empty = run_network(FaultInjector(FaultPlan()))
        assert baseline == with_empty

    def test_neutral_fault_state_reproduces_broker_costs(self, chaos_setup):
        # broker.publish(event, faults=<a clear FaultState>) must charge
        # bit-for-bit what the fault-free path charges.
        broker, points, publishers, _ = chaos_setup
        neutral = FaultState(0.0, frozenset(), frozenset())
        for sequence in range(100):
            event = Event.create(
                sequence, int(publishers[sequence]), points[sequence]
            )
            plain = broker.publish(event)
            faulted = broker.publish(event, faults=neutral)
            assert plain.scheme_cost == faulted.scheme_cost
            assert plain.unicast_cost == faulted.unicast_cost
            assert plain.ideal_cost == faulted.ideal_cost
            assert faulted.repaired == ()
            if plain.method is not DeliveryMethod.NOT_SENT:
                assert faulted.undeliverable == ()


class TestDegradedDelivery:
    def test_dead_broker_forces_repair_and_extra_cost(self, chaos_setup):
        broker, points, publishers, _ = chaos_setup
        # Find a multicast event, kill a transit node on its tree.
        for sequence in range(len(points)):
            event = Event.create(
                sequence, int(publishers[sequence]), points[sequence]
            )
            record = broker.publish(event)
            if record.method is not DeliveryMethod.MULTICAST:
                continue
            q = broker.partition.locate(event.point)
            members = broker.partition.group(q).members
            tree = broker.costs.routing.tree_edges(event.publisher, members)
            transit = set(broker.topology.all_transit_nodes())
            on_tree = [
                n for e in tree for n in e if n in transit
            ]
            if not on_tree:
                continue
            state = FaultState(
                time=0.0,
                dead_nodes=frozenset({on_tree[0]}),
                dead_links=frozenset(),
            )
            degraded_record = broker.publish(event, faults=state)
            # Serving everyone around a dead relay can't be cheaper
            # than the healthy tree.
            assert degraded_record.scheme_cost >= record.scheme_cost or (
                degraded_record.undeliverable
            )
            return
        pytest.fail("no multicast event with a transit relay found")


class TestPlanBuilders:
    def test_build_chaos_plan_victims_are_transit(self, chaos_setup):
        broker, _, _, plan = chaos_setup
        transit = set(broker.topology.all_transit_nodes())
        assert len(plan.crashes) == 2
        for crash in plan.crashes:
            assert crash.node in transit
            assert 0.0 < crash.start < crash.end
        assert plan.default_loss == 0.1

    def test_build_chaos_plan_deterministic(self, chaos_setup):
        broker, _, _, plan = chaos_setup
        again = build_chaos_plan(
            broker.topology,
            seed=2003,
            loss=0.1,
            crashes=2,
            crash_length=150.0,
            horizon=500.0,
        )
        assert again == plan

    def test_too_many_crashes_rejected(self, chaos_setup):
        broker, _, _, _ = chaos_setup
        with pytest.raises(ValueError, match="cannot crash"):
            build_chaos_plan(broker.topology, crashes=10_000)

    def test_testbed_is_chaos_scale(self, chaos_setup):
        broker, _, _, _ = chaos_setup
        assert 80 <= broker.topology.num_nodes <= 150
