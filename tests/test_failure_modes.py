"""Failure-mode and pathological-input tests across the stack.

Production code meets ugly inputs; these tests pin that every layer
fails loudly (typed exceptions with useful messages) or degrades
gracefully (empty results, catchall routing) — never silently wrong.
"""

import math
import os
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest

from repro.clustering import EventGrid, ForgyKMeansClustering
from repro.core import (
    Event,
    MatchingEngine,
    PubSubBroker,
    SubscriptionTable,
    ThresholdPolicy,
)
from repro.geometry import Interval, Rectangle
from repro.network import RoutingTable, TransitStubGenerator
from repro.network.topology import Topology
from repro.spatial import STree


def _run_dash_O(program):
    """Run ``program`` under ``python -O``; it must print exactly OK."""
    result = subprocess.run(
        [sys.executable, "-O", "-c", program],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "OK"


class TestDisconnectedNetworks:
    @pytest.fixture()
    def split_graph(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, cost=1.0)
        graph.add_edge(2, 3, cost=1.0)  # a second component
        return graph

    def test_unreachable_distance_is_infinite(self, split_graph):
        table = RoutingTable(split_graph)
        assert table.distance(0, 2) == math.inf

    def test_unreachable_path_raises(self, split_graph):
        table = RoutingTable(split_graph)
        with pytest.raises(ValueError, match="no path"):
            table.path(0, 2)

    def test_unreachable_tree_raises(self, split_graph):
        table = RoutingTable(split_graph)
        with pytest.raises(ValueError, match="no path"):
            table.shortest_path_tree_cost(0, [1, 2])

    def test_unreachable_tree_edges_raise_the_same(self, split_graph):
        """``tree_edges`` used to walk off the predecessor row
        (``IndexError: index -9999``); it is the same walk as the cost
        now and names the unreachable target the same way."""
        table = RoutingTable(split_graph)
        with pytest.raises(ValueError, match="no path from 0 to 3"):
            table.tree_edges(0, [3])
        with pytest.raises(ValueError, match="no path from 0 to 3"):
            table.shortest_path_tree_cost(0, [3])
        # The reachable part of the component is still served.
        assert table.tree_edges(0, [1]) == [(0, 1)]

    def test_unreachable_tree_message_survives_dash_O(self):
        # The guard is a plain raise, not an assert ``python -O`` strips.
        program = (
            "import networkx as nx\n"
            "from repro.network import RoutingTable\n"
            "graph = nx.Graph()\n"
            "graph.add_edge(0, 1, cost=1.0)\n"
            "graph.add_edge(2, 3, cost=1.0)\n"
            "table = RoutingTable(graph)\n"
            "assert False  # proves -O is active: this must not raise\n"
            "for walk in (table.tree_edges, table.shortest_path_tree_cost):\n"
            "    try:\n"
            "        walk(0, [1, 3])\n"
            "    except ValueError as error:\n"
            "        if str(error) != 'no path from 0 to 3':\n"
            "            raise SystemExit(f'wrong message: {error}')\n"
            "    else:\n"
            "        raise SystemExit('ValueError not raised under -O')\n"
            "print('OK')\n"
        )
        _run_dash_O(program)


class TestDegenerateSubscriptionSets:
    def test_all_empty_rectangles_match_nothing(self):
        table = SubscriptionTable(2)
        for _ in range(5):
            table.add(1, Rectangle((1.0, 1.0), (0.0, 0.0)))
        engine = MatchingEngine(table)
        assert engine.match_point([0.5, 0.5]).is_empty

    def test_single_point_like_rectangles(self):
        # One-ulp rectangles: still matchable at the closed end.
        lo = 5.0
        hi = np.nextafter(5.0, 6.0)
        table = SubscriptionTable(1)
        table.add(1, Rectangle((lo,), (hi,)))
        engine = MatchingEngine(table)
        assert engine.match_point([hi]).subscribers == (1,)
        assert engine.match_point([lo]).is_empty

    def test_huge_coordinates(self):
        table = SubscriptionTable(2)
        table.add(1, Rectangle((1e300, -1e300), (1e308, 1e300)))
        engine = MatchingEngine(table)
        assert engine.match_point([1e305, 0.0]).subscribers == (1,)

    def test_grid_over_identical_rectangles(self):
        rect = Rectangle((0.0, 0.0), (1.0, 1.0))
        grid = EventGrid([rect] * 50, list(range(50)), cells_per_dim=4)
        assert grid.num_subscribers == 50
        result = ForgyKMeansClustering().cluster(grid, 3, max_cells=20)
        result.validate_disjoint()

    def test_stree_over_one_ulp_universe(self):
        lows = np.full((100, 2), 5.0)
        highs = np.full((100, 2), np.nextafter(5.0, 6.0))
        tree = STree.build(lows, highs)
        assert tree.match([np.nextafter(5.0, 6.0)] * 2) == list(range(100))
        assert tree.match([5.0, 5.0]) == []


class TestBrokerEdgeCases:
    @pytest.fixture()
    def tiny_broker(self, small_topology):
        table = SubscriptionTable(4)
        node = small_topology.all_stub_nodes()[0]
        table.add(node, Rectangle((0.0,) * 4, (1.0,) * 4))
        return PubSubBroker.preprocess(
            small_topology,
            table,
            ForgyKMeansClustering(),
            num_groups=3,
            cells_per_dim=4,
            max_cells=10,
        )

    def test_event_matching_nobody(self, tiny_broker):
        record = tiny_broker.publish(
            Event.create(0, 0, (50.0, 50.0, 50.0, 50.0))
        )
        from repro.core import DeliveryMethod

        assert record.method is DeliveryMethod.NOT_SENT
        assert record.scheme_cost == 0.0

    def test_publisher_is_sole_subscriber(
        self, tiny_broker, small_topology
    ):
        subscriber = small_topology.all_stub_nodes()[0]
        record = tiny_broker.publish(
            Event.create(0, subscriber, (0.5, 0.5, 0.5, 0.5))
        )
        # The only interested party published it: nothing to send.
        assert record.scheme_cost == 0.0 or record.unicast_cost == 0.0

    def test_more_groups_than_cells(self, small_topology):
        table = SubscriptionTable(4)
        node = small_topology.all_stub_nodes()[0]
        table.add(node, Rectangle((0.0,) * 4, (1.0,) * 4))
        broker = PubSubBroker.preprocess(
            small_topology,
            table,
            ForgyKMeansClustering(),
            num_groups=50,
            cells_per_dim=2,
            max_cells=50,
        )
        assert broker.partition.num_groups <= 16

    def test_workload_entirely_in_catchall(self, tiny_broker):
        points = np.full((20, 4), 99.0)
        publishers = [0] * 20
        tally, records = tiny_broker.run(
            points, publishers, collect_records=True
        )
        assert tally.messages == 20
        assert tally.multicasts_sent == 0


class TestTopologyValidation:
    def test_missing_kind_attribute_caught(self, small_topology):
        graph = small_topology.graph.copy()
        graph.add_node(9999)  # no attributes
        graph.add_edge(9999, small_topology.all_stub_nodes()[0], cost=1.0)
        broken = Topology(
            graph=graph,
            transit_nodes=small_topology.transit_nodes,
            stub_members=small_topology.stub_members,
            stub_block=small_topology.stub_block,
        )
        with pytest.raises(ValueError, match="kind"):
            broken.validate()

    def test_disconnected_topology_caught(self, small_topology):
        graph = small_topology.graph.copy()
        graph.add_node(9999, kind="stub", block=0, stub=0)
        broken = Topology(
            graph=graph,
            transit_nodes=small_topology.transit_nodes,
            stub_members=small_topology.stub_members,
            stub_block=small_topology.stub_block,
        )
        with pytest.raises(ValueError, match="connected"):
            broken.validate()


class TestFaultRecovery:
    """End-to-end recovery scenarios over the fault-injected substrate."""

    @staticmethod
    def _line_and_tree_graph():
        # 0 —(access)— 1 —<cheap 2 / dear 3>— 4 — 5; see faults tests.
        graph = nx.Graph()
        graph.add_edge(0, 1, cost=1.0)
        graph.add_edge(1, 2, cost=1.0)
        graph.add_edge(1, 3, cost=5.0)
        graph.add_edge(2, 4, cost=1.0)
        graph.add_edge(3, 4, cost=5.0)
        graph.add_edge(4, 5, cost=1.0)
        return graph

    def _stack(self, plan):
        from types import SimpleNamespace

        from repro.faults import FaultInjector, ReliableTransport, RetryConfig
        from repro.network.routing import RoutingTable
        from repro.simulation import DiscreteEventSimulator
        from repro.simulation.packet_network import PacketNetwork

        graph = self._line_and_tree_graph()
        simulator = DiscreteEventSimulator()
        injector = FaultInjector(plan)
        network = PacketNetwork(
            SimpleNamespace(graph=graph),
            simulator,
            routing=RoutingTable(graph),
            injector=injector,
        )
        deliveries = []
        give_ups = []
        transport = ReliableTransport(
            network,
            config=RetryConfig(
                ack_timeout=30.0,
                backoff=2.0,
                max_jitter=0.5,
                max_attempts=5,
                reroute_after=2,
            ),
            seed=1,
            detector=injector,
            graph=graph,
            on_deliver=lambda t, k, time: deliveries.append((k, t, time)),
            on_give_up=lambda t, k, reason: give_ups.append((k, t, reason)),
        )
        return simulator, network, transport, deliveries, give_ups

    def test_publish_while_access_link_dead(self):
        # The publisher's only access link is in an outage window when
        # the event goes out; retries after the window restores it must
        # deliver exactly once.
        from repro.faults.plan import FaultPlan, LinkOutage

        plan = FaultPlan(
            seed=5, outages=(LinkOutage(0, 1, start=0.0, end=40.0),)
        )
        sim, net, transport, deliveries, give_ups = self._stack(plan)
        transport.publish(0, source=0, targets=[2, 5])
        sim.run()
        assert not give_ups
        assert sorted(d[:2] for d in deliveries) == [(0, 2), (0, 5)]
        assert all(d[2] >= 40.0 for d in deliveries)
        assert net.injector.stats.outage_drops > 0
        assert transport.stats.retries > 0

    def test_broker_crash_mid_multicast_with_restart(self):
        # A relay broker dies while the multicast is in flight and
        # restarts before the retry budget runs out: subscribers behind
        # it are recovered by per-target retries after the restart.
        from repro.faults.plan import BrokerCrash, FaultPlan

        plan = FaultPlan(seed=6, crashes=(BrokerCrash(4, 0.0, 25.0),))
        sim, net, transport, deliveries, give_ups = self._stack(plan)
        members = [2, 5]

        def first_pass(receive):
            net.send_multicast(0, members, receive)

        transport.publish(0, source=0, targets=members, first_pass=first_pass)
        sim.run()
        assert not give_ups
        assert sorted(d[:2] for d in deliveries) == [(0, 2), (0, 5)]
        by_target = {t: time for _, t, time in deliveries}
        assert by_target[2] < 25.0  # in front of the crash: first pass
        assert by_target[5] >= 25.0  # behind it: post-restart retry
        assert transport.stats.retries > 0
        assert transport.stats.gave_up == 0

    def test_total_loss_on_one_link_forces_unicast_fallback(self):
        # 100% loss on the cheap route: the failure detector flags the
        # link dead and retries fall back to a surviving unicast path.
        from repro.faults.plan import FaultPlan, LinkFault

        plan = FaultPlan(seed=7, link_faults=(LinkFault(2, 4, loss=1.0),))
        sim, _net, transport, deliveries, give_ups = self._stack(plan)
        transport.publish(0, source=0, targets=[5])
        sim.run()
        assert not give_ups
        assert [d[:2] for d in deliveries] == [(0, 5)]
        assert transport.stats.reroutes > 0
        assert transport.failed() == []


class TestReplicaSetMisuse:
    """The journal and replica-set guards are written once, for the
    whole-broker classes and the per-shard ones alike: one message per
    check, naming the class that was misused and the offending value."""

    @staticmethod
    def _shard(**kwargs):
        from types import SimpleNamespace

        from repro.cluster import ReplicatedShard
        from repro.sharding import ShardBroker

        return ReplicatedShard(
            ShardBroker(0, home=0, ndim=2),
            0,
            kwargs.pop("standbys", [7, 9]),
            SimpleNamespace(now=0.0),
            **kwargs,
        )

    @staticmethod
    def _set(standbys):
        from types import SimpleNamespace

        from repro.replication import ReplicaSet

        # Validation comes before the broker is touched.
        return ReplicaSet(None, 0, standbys, SimpleNamespace(now=0.0))

    @pytest.mark.parametrize("name", ["BrokerJournal", "ShardJournal"])
    def test_checkpoint_every_message(self, name):
        import repro.cluster
        import repro.durability
        from repro.durability import MemorySnapshotStore, MemoryWAL

        journal_class = getattr(
            repro.cluster if name == "ShardJournal" else repro.durability,
            name,
        )
        with pytest.raises(ValueError) as error:
            journal_class(
                None, MemoryWAL(), MemorySnapshotStore(), checkpoint_every=0
            )
        assert str(error.value) == (
            f"{name}: checkpoint_every must be >= 1 (got 0)"
        )

    def test_standby_messages(self):
        for build, name in (
            (lambda s: self._shard(standbys=s), "ReplicatedShard"),
            (self._set, "ReplicaSet"),
        ):
            with pytest.raises(ValueError) as error:
                build([7, 0])
            assert str(error.value) == (
                f"{name}: standbys must be distinct and exclude the "
                "primary (primary=0, standbys=[7, 0])"
            )

    def test_unknown_payload_message(self):
        with pytest.raises(ValueError) as error:
            self._shard().deliver(7, {"type": "gossip", "from": 0}, 0.0)
        assert str(error.value) == (
            "ReplicatedShard: unknown payload type 'gossip'"
        )

    def test_messages_survive_dash_O(self):
        # Plain raises, not asserts ``python -O`` strips — including
        # the takeover-epoch guard, which must fire before any state
        # moves (tests/cluster/test_shard.py pins the "before").
        _run_dash_O(
            "from types import SimpleNamespace\n"
            "from repro.cluster import ReplicatedShard, ShardJournal\n"
            "from repro.durability import (\n"
            "    BrokerJournal, MemorySnapshotStore, MemoryWAL)\n"
            "from repro.sharding import ShardBroker\n"
            "assert False  # proves -O is active: this must not raise\n"
            "def shard(standbys):\n"
            "    return ReplicatedShard(ShardBroker(0, home=0, ndim=2), 0,\n"
            "                           standbys, SimpleNamespace(now=0.0))\n"
            "def journal(cls):\n"
            "    return cls(None, MemoryWAL(), MemorySnapshotStore(),\n"
            "               checkpoint_every=0)\n"
            "good = shard([7, 9])\n"
            "good.takeover(0.0, epoch=5)\n"
            "for attempt, message in (\n"
            "    (lambda: journal(BrokerJournal),\n"
            "     'BrokerJournal: checkpoint_every must be >= 1 (got 0)'),\n"
            "    (lambda: journal(ShardJournal),\n"
            "     'ShardJournal: checkpoint_every must be >= 1 (got 0)'),\n"
            "    (lambda: shard([0]),\n"
            "     'ReplicatedShard: standbys must be distinct and exclude'\n"
            "     ' the primary (primary=0, standbys=[0])'),\n"
            "    (lambda: good.takeover(0.0, epoch=5),\n"
            "     'ReplicatedShard: takeover epoch must advance '\n"
            "     '(have 5, got 5)'),\n"
            "):\n"
            "    try:\n"
            "        attempt()\n"
            "    except ValueError as error:\n"
            "        if str(error) != message:\n"
            "            raise SystemExit(f'wrong message: {error}')\n"
            "    else:\n"
            "        raise SystemExit(f'not raised under -O: {message}')\n"
            "if good.primary != 7 or set(good.replicas) != {9}:\n"
            "    raise SystemExit('stale takeover moved state under -O')\n"
            "print('OK')\n"
        )


class TestOutcomeLedgerMisuse:
    """The conservation law rests on these two refusals."""

    def test_second_verdict_for_a_key_raises(self):
        from repro.faults import OutcomeLedger

        ledger = OutcomeLedger(("delivered", "shed"))
        ledger.finish(3, "delivered")
        with pytest.raises(RuntimeError, match="accounted twice") as error:
            ledger.finish(3, "shed")
        assert str(error.value) == "3 accounted twice: delivered then shed"
        assert ledger.counts == {"delivered": 1, "shed": 0}

    def test_unknown_bucket_raises_and_accounts_nothing(self):
        from repro.faults import OutcomeLedger

        ledger = OutcomeLedger(("delivered", "shed"))
        with pytest.raises(ValueError) as error:
            ledger.finish((3, "sess-9"), "lost")
        assert str(error.value) == "unknown outcome 'lost'"
        assert (3, "sess-9") not in ledger

    def test_refusals_survive_dash_O(self):
        _run_dash_O(
            "from repro.faults import OutcomeLedger\n"
            "assert False  # proves -O is active: this must not raise\n"
            "ledger = OutcomeLedger(('delivered', 'shed'))\n"
            "ledger.finish(3, 'delivered')\n"
            "for attempt, kind, message in (\n"
            "    (lambda: ledger.finish(3, 'shed'), RuntimeError,\n"
            "     '3 accounted twice: delivered then shed'),\n"
            "    (lambda: ledger.finish(4, 'lost'), ValueError,\n"
            "     \"unknown outcome 'lost'\"),\n"
            "):\n"
            "    try:\n"
            "        attempt()\n"
            "    except kind as error:\n"
            "        if str(error) != message:\n"
            "            raise SystemExit(f'wrong message: {error}')\n"
            "    else:\n"
            "        raise SystemExit(f'not raised under -O: {message}')\n"
            "if dict(ledger) != {3: 'delivered'}:\n"
            "    raise SystemExit('a refused verdict was recorded under -O')\n"
            "print('OK')\n"
        )


class TestNumericalRobustness:
    def test_nan_rejected_at_index_build(self):
        with pytest.raises(ValueError, match="NaN"):
            STree.build(
                np.array([[np.nan, 0.0]]), np.array([[1.0, 1.0]])
            )

    def test_nan_event_rejected(self):
        with pytest.raises(ValueError):
            Event.create(0, 0, (float("nan"), 1.0))

    def test_interval_with_nan_behaves_as_empty_for_contains(self):
        interval = Interval(float("nan"), 1.0)
        # NaN comparisons are False: nothing is contained — no silent
        # "matches everything" failure mode.
        assert not interval.contains(0.5)

    def test_extreme_zipf_population(self, rng):
        from repro.workload import ZipfSampler

        sampler = ZipfSampler(1, theta=5.0, rng=rng)
        assert sampler.sample() == 0

    def test_grid_with_zero_width_dimension_data(self):
        # All rectangles flat in one dimension: frame padding must
        # keep the grid usable.
        rects = [
            Rectangle((0.0, 5.0), (1.0, 5.0 + 1e-12)) for _ in range(5)
        ]
        grid = EventGrid(rects, list(range(5)), cells_per_dim=4)
        assert grid.num_occupied_cells > 0
