"""Unit tests for the reliable ack/retry/dedup transport."""

from types import SimpleNamespace

import networkx as nx
import pytest

from repro.faults import (
    FailureReason,
    FaultInjector,
    FaultPlan,
    ReliableTransport,
    RetryConfig,
)
from repro.faults.plan import BrokerCrash, LinkFault
from repro.network.routing import RoutingTable
from repro.simulation import DiscreteEventSimulator
from repro.simulation.packet_network import PacketNetwork


def diamond_graph():
    """0 —1— 1 with a cheap (via 2) and an expensive (via 3) route to 4—5.

    Shortest path 0→5 is 0-1-2-4-5 (cost 4); killing link (2, 4)
    leaves the pricier 0-1-3-4-5 (cost 12) as the only survivor.
    """
    g = nx.Graph()
    g.add_edge(0, 1, cost=1.0)
    g.add_edge(1, 2, cost=1.0)
    g.add_edge(1, 3, cost=5.0)
    g.add_edge(2, 4, cost=1.0)
    g.add_edge(3, 4, cost=5.0)
    g.add_edge(4, 5, cost=1.0)
    return g


def make_stack(plan, config=None, hop_retries=0, graph=None, **transport_kwargs):
    """(simulator, network, transport, deliveries) over the diamond."""
    g = graph if graph is not None else diamond_graph()
    simulator = DiscreteEventSimulator()
    injector = FaultInjector(plan)
    network = PacketNetwork(
        SimpleNamespace(graph=g),
        simulator,
        routing=RoutingTable(g),
        injector=injector,
        hop_retries=hop_retries,
    )
    deliveries = []
    give_ups = []
    transport = ReliableTransport(
        network,
        config=config
        or RetryConfig(
            ack_timeout=30.0,
            backoff=2.0,
            max_jitter=0.5,
            max_attempts=5,
            reroute_after=2,
        ),
        seed=plan.seed + 1,
        detector=injector,
        graph=g,
        on_deliver=lambda target, key, time: deliveries.append(
            (key, target, time)
        ),
        on_give_up=lambda target, key, reason: give_ups.append(
            (key, target, reason)
        ),
        **transport_kwargs,
    )
    return simulator, network, transport, deliveries, give_ups


class TestHappyPath:
    def test_lossless_delivery_no_retries(self):
        sim, _net, transport, deliveries, give_ups = make_stack(FaultPlan())
        transport.publish(0, source=0, targets=[2, 5])
        sim.run()
        assert sorted(d[:2] for d in deliveries) == [(0, 2), (0, 5)]
        assert transport.stats.retries == 0
        assert transport.stats.acked == 2
        assert not give_ups

    def test_self_delivery_needs_no_network(self):
        sim, net, transport, deliveries, _ = make_stack(FaultPlan())
        transport.publish(4, source=2, targets=[2])
        sim.run()
        assert deliveries == [(4, 2, 0.0)]
        assert net.log.transmissions == 0
        assert transport.stats.acked == 1


class TestLossyExactlyOnce:
    def test_retries_recover_random_loss(self):
        plan = FaultPlan(seed=8, default_loss=0.2)
        config = RetryConfig(
            ack_timeout=15.0, backoff=1.5, max_jitter=0.5, max_attempts=40
        )
        sim, _net, transport, deliveries, give_ups = make_stack(plan, config)
        for key in range(20):
            transport.publish(key, source=0, targets=[2, 5])
        sim.run()
        assert not give_ups
        assert transport.stats.acked == 40
        # Every (message, target) delivered to the app exactly once.
        assert sorted(d[:2] for d in deliveries) == sorted(
            (key, t) for key in range(20) for t in (2, 5)
        )
        assert transport.stats.retries > 0
        assert transport.stats.duplicates_suppressed > 0  # lost-ack retries

    def test_injected_duplication_is_suppressed(self):
        # Acceptance criterion: duplicate suppression exercised by a
        # test that injects duplication directly.
        plan = FaultPlan(seed=9, default_duplicate=1.0)
        sim, net, transport, deliveries, _ = make_stack(plan)
        transport.publish(0, source=0, targets=[5])
        sim.run()
        assert net.injector.stats.duplicates_injected > 0
        assert transport.stats.duplicates_suppressed > 0
        # ... but the application saw the message exactly once.
        assert [d[:2] for d in deliveries] == [(0, 5)]

    def test_rerun_is_bit_identical(self):
        plan = FaultPlan(seed=21, default_loss=0.25)

        def run_once():
            sim, net, transport, deliveries, give_ups = make_stack(
                plan,
                RetryConfig(
                    ack_timeout=10.0,
                    backoff=1.5,
                    max_jitter=0.5,
                    max_attempts=30,
                ),
            )
            for key in range(10):
                transport.publish(key, source=0, targets=[2, 4, 5])
            finished = sim.run()
            return (
                deliveries,
                give_ups,
                finished,
                net.log.transmissions,
                transport.stats,
            )

        assert run_once() == run_once()


class TestBudgetAndReroute:
    def test_budget_exhaustion_is_loud(self):
        # A permanently dead access link with no alternative: the
        # transport must give up after exactly max_attempts and say so.
        g = nx.Graph()
        g.add_edge(0, 1, cost=1.0)
        g.add_edge(1, 2, cost=1.0)
        plan = FaultPlan(seed=2, link_faults=(LinkFault(1, 2, loss=1.0),))
        sim, _net, transport, _deliveries, give_ups = make_stack(
            plan, graph=g
        )
        transport.publish(0, source=0, targets=[2])
        sim.run()
        assert give_ups == [(0, 2, "retry budget exhausted")]
        assert transport.failed() == [(0, 2)]
        assert transport.stats.gave_up == 1
        # max_attempts=5 data sends: 1 first pass + 4 retries.
        assert transport.stats.retries == 4

    def test_reroute_around_permanently_dead_link(self):
        # 100% loss on the cheap path: the failure detector reports the
        # link dead, and retries fall back to the surviving route.
        plan = FaultPlan(seed=3, link_faults=(LinkFault(2, 4, loss=1.0),))
        sim, _net, transport, deliveries, give_ups = make_stack(plan)
        transport.publish(0, source=0, targets=[5])
        sim.run()
        assert not give_ups
        assert [d[:2] for d in deliveries] == [(0, 5)]
        assert transport.stats.reroutes > 0

    def test_crash_window_then_restart_recovers(self):
        # Node 4 (the only junction before the subscriber) is down for
        # the first attempts; a retry after restart must succeed within
        # the budget, without any reroute being possible.
        plan = FaultPlan(seed=4, crashes=(BrokerCrash(4, 0.0, 25.0),))
        sim, _net, transport, deliveries, give_ups = make_stack(plan)
        transport.publish(0, source=0, targets=[5])
        sim.run()
        assert not give_ups
        assert [d[:2] for d in deliveries] == [(0, 5)]
        assert transport.stats.retries > 0
        delivered_at = deliveries[0][2]
        assert delivered_at >= 25.0  # only after the restart


class TestRetryConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryConfig(ack_timeout=0.0)
        with pytest.raises(ValueError):
            RetryConfig(backoff=0.5)
        with pytest.raises(ValueError):
            RetryConfig(max_jitter=-1.0)
        with pytest.raises(ValueError):
            RetryConfig(max_attempts=0)
        with pytest.raises(ValueError):
            RetryConfig(reroute_after=0)

    def test_backoff_schedule(self):
        config = RetryConfig(ack_timeout=10.0, backoff=2.0)
        assert config.timeout_for(1) == 10.0
        assert config.timeout_for(2) == 20.0
        assert config.timeout_for(3) == 40.0

    def test_for_network_scales_with_diameter(self):
        g = diamond_graph()
        sim = DiscreteEventSimulator()
        network = PacketNetwork(
            SimpleNamespace(graph=g), sim, routing=RoutingTable(g)
        )
        config = RetryConfig.for_network(network, max_attempts=9)
        assert config.ack_timeout > 2.0 * network.routing.diameter()
        assert config.max_attempts == 9

    def test_jitter_is_deterministic_and_bounded(self):
        g = diamond_graph()
        sim = DiscreteEventSimulator()
        network = PacketNetwork(
            SimpleNamespace(graph=g), sim, routing=RoutingTable(g)
        )
        a = ReliableTransport(network, seed=5)
        b = ReliableTransport(network, seed=5)
        for key in range(5):
            for attempt in range(1, 4):
                ja = a._jitter(key, 5, attempt)
                assert ja == b._jitter(key, 5, attempt)
                assert 0.0 <= ja < a.config.max_jitter
        c = ReliableTransport(network, seed=6)
        assert a._jitter(0, 5, 1) != c._jitter(0, 5, 1)


class TestNegativeKey:
    @pytest.mark.parametrize("max_jitter", [0.5, 0.0])
    @pytest.mark.parametrize("first_pass", [False, True])
    def test_refused_before_anything_happens(self, max_jitter, first_pass):
        """The key must be non-negative; a refused publish tracks,
        counts and queues nothing, whatever the jitter setting."""
        sim, net, transport, deliveries, give_ups = make_stack(
            FaultPlan(),
            config=RetryConfig(ack_timeout=30.0, max_jitter=max_jitter),
        )
        before = vars(transport.stats).copy()
        first = None
        if first_pass:
            def first(receive):
                net.send_multicast(0, [2, 5], receive)
        with pytest.raises(ValueError, match="non-negative"):
            transport.publish(-1, source=0, targets=[2, 5], first_pass=first)
        assert vars(transport.stats) == before
        assert transport._pending == {}
        assert sim.pending == 0
        sim.run()
        assert deliveries == [] and give_ups == []
        assert net.log.transmissions == 0


class TestFailureReasons:
    """Give-ups carry a structured reason code (the DLQ's input)."""

    def test_timeout_exhaustion_is_coded_timeout(self):
        g = nx.Graph()
        g.add_edge(0, 1, cost=1.0)
        g.add_edge(1, 2, cost=1.0)
        plan = FaultPlan(seed=2, link_faults=(LinkFault(1, 2, loss=1.0),))
        sim, _net, transport, _deliveries, give_ups = make_stack(
            plan, graph=g
        )
        transport.publish(0, source=0, targets=[2])
        sim.run()
        ((_key, _target, reason),) = give_ups
        assert isinstance(reason, FailureReason)
        assert reason.code == FailureReason.TIMEOUT == "timeout"
        # It still behaves as the plain string older consumers expect.
        assert reason == "retry budget exhausted"

    def test_nack_exhaustion_is_coded_nack(self):
        sim, _net, transport, deliveries, give_ups = make_stack(
            FaultPlan(), acceptor=lambda target, key, time: False
        )
        transport.publish(0, source=0, targets=[5])
        sim.run()
        assert deliveries == []
        ((_key, _target, reason),) = give_ups
        assert reason.code == FailureReason.NACK
        assert "nack" in str(reason)
        assert transport.stats.nacks_sent >= 1
        assert transport.stats.nacks_received >= 1

    def test_breaker_short_circuit_is_coded_breaker_open(self):
        from repro.overload import BreakerBoard

        breakers = BreakerBoard()
        for _ in range(3):  # default config: 3 strikes open the breaker
            breakers.record_failure(5, 0.0)
        sim, _net, transport, deliveries, give_ups = make_stack(
            FaultPlan(), breakers=breakers
        )
        transport.publish(0, source=0, targets=[2, 5])
        sim.run()
        # The open breaker fast-fails 5 without spending any attempts;
        # 2 is unaffected.
        assert [d[:2] for d in deliveries] == [(0, 2)]
        ((_key, target, reason),) = give_ups
        assert target == 5
        assert reason.code == FailureReason.BREAKER_OPEN
        assert transport.stats.short_circuited == 1

    def test_nacked_attempt_is_not_marked_seen(self):
        # A rejected delivery must stay deliverable: only the *offer*
        # was refused, so a later attempt the acceptor admits goes
        # through — rejecting via dedup would swallow it forever.
        offers = {"n": 0}

        def accept_second_offer(target, key, time):
            offers["n"] += 1
            return offers["n"] > 1

        sim, _net, transport, deliveries, give_ups = make_stack(
            FaultPlan(), acceptor=accept_second_offer
        )
        transport.publish(0, source=0, targets=[5])
        sim.run()
        assert not give_ups
        assert [d[:2] for d in deliveries] == [(0, 5)]
        assert transport.stats.nacks_sent == 1


class TestCancelTarget:
    def test_cancel_drops_pending_without_a_give_up(self):
        # A detached session's in-flight deliveries are withdrawn
        # silently: no give-up callback, no breaker feedback.
        g = nx.Graph()
        g.add_edge(0, 1, cost=1.0)
        g.add_edge(1, 2, cost=1.0)
        plan = FaultPlan(seed=2, link_faults=(LinkFault(1, 2, loss=1.0),))
        sim, _net, transport, deliveries, give_ups = make_stack(
            plan, graph=g
        )
        transport.publish(0, source=0, targets=[2])
        cancelled = transport.cancel_target(2)
        sim.run()
        assert cancelled == [0]
        assert transport.stats.cancelled == 1
        assert deliveries == []
        assert give_ups == []
        assert transport._pending == {}

    def test_cancel_keeps_receiver_dedup_state(self):
        sim, _net, transport, deliveries, _give_ups = make_stack(FaultPlan())
        transport.publish(0, source=0, targets=[2])
        sim.run()
        assert [d[:2] for d in deliveries] == [(0, 2)]
        transport.cancel_target(2)
        # Re-sending the same key after a cancel is suppressed by the
        # surviving dedup state — acked, but never re-delivered.
        transport.publish(0, source=0, targets=[2])
        sim.run()
        assert [d[:2] for d in deliveries] == [(0, 2)]
        assert transport.stats.acked == 2
