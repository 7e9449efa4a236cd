"""Integration tests for the packet-level delivery simulation."""

import numpy as np
import pytest

from repro.clustering import ForgyKMeansClustering
from repro.core import PubSubBroker, SubscriptionTable, ThresholdPolicy
from repro.geometry import Rectangle
from repro.simulation import DeliverySimulation, LatencyStats


class AlwaysUnicastPolicy:
    """A degenerate policy for storm comparisons (thresholds cannot
    express it when the interested ratio reaches 1.0)."""

    def decide(self, interested, group_size, group):
        from repro.core import DeliveryMethod, DistributionDecision

        method = (
            DeliveryMethod.NOT_SENT
            if interested == 0
            else DeliveryMethod.UNICAST
        )
        return DistributionDecision(method, interested, group_size, group)


@pytest.fixture(scope="module")
def hot_broker(small_topology):
    """Every stub node subscribes to everything: one hot group.

    ``cells_per_dim=2`` with ``max_cells=16`` ensures *all* occupied
    cells are clustered, so no event falls into the catchall.
    """
    table = SubscriptionTable(4)
    for node in small_topology.all_stub_nodes():
        table.add(node, Rectangle((0.0,) * 4, (20.0,) * 4))
    return PubSubBroker.preprocess(
        small_topology,
        table,
        ForgyKMeansClustering(),
        num_groups=2,
        cells_per_dim=2,
        max_cells=16,
        policy=ThresholdPolicy(0.0),
    )


@pytest.fixture(scope="module")
def hot_workload(small_topology):
    points = np.random.default_rng(5).uniform(5, 15, size=(40, 4))
    publishers = np.full(40, small_topology.all_stub_nodes()[0])
    return points, publishers


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_percentiles_ordered(self, rng):
        stats = LatencyStats.from_samples(rng.uniform(0, 100, 500))
        assert stats.p50 <= stats.p95 <= stats.maximum
        assert stats.count == 500


class TestDeliverySimulation:
    def test_every_interested_subscriber_served(
        self, hot_broker, hot_workload
    ):
        sim = DeliverySimulation(hot_broker)
        points, publishers = hot_workload
        report = sim.run(points, publishers, inter_arrival=50.0)
        subscribers = len(hot_broker.table.subscribers)
        # Everyone subscribes to everything inside the cube; every
        # event inside it must be delivered to every subscriber.
        assert report.deliveries == len(points) * subscribers
        assert report.latency.count == report.deliveries
        assert report.multicasts == len(points)

    def test_deterministic(self, hot_broker, hot_workload):
        points, publishers = hot_workload
        a = DeliverySimulation(hot_broker).run(points, publishers)
        b = DeliverySimulation(hot_broker).run(points, publishers)
        assert a.latency == b.latency
        assert a.transmissions == b.transmissions

    def test_multicast_saves_transport_on_hot_group(
        self, hot_broker, hot_workload
    ):
        """With everyone interested, the tree beats the unicast storm
        on transmissions AND tail latency under a burst."""
        points, publishers = hot_workload
        burst = [0.0] * len(points)
        multicast_report = DeliverySimulation(
            hot_broker.with_policy(ThresholdPolicy(0.0))
        ).run(points, publishers, arrival_times=burst)
        unicast_report = DeliverySimulation(
            hot_broker.with_policy(AlwaysUnicastPolicy())
        ).run(points, publishers, arrival_times=burst)
        assert unicast_report.unicasts == len(points)
        assert multicast_report.transmissions < unicast_report.transmissions
        assert (
            multicast_report.latency.p95 <= unicast_report.latency.p95
        )
        assert (
            multicast_report.queueing_delay
            <= unicast_report.queueing_delay
        )

    def test_spacing_relieves_congestion(self, hot_broker, hot_workload):
        points, publishers = hot_workload
        unicast = hot_broker.with_policy(AlwaysUnicastPolicy())
        burst = DeliverySimulation(unicast).run(
            points, publishers, arrival_times=[0.0] * len(points)
        )
        spaced = DeliverySimulation(unicast).run(
            points, publishers, inter_arrival=100.0
        )
        assert spaced.queueing_delay <= burst.queueing_delay
        assert spaced.latency.maximum <= burst.latency.maximum

    def test_report_counters_consistent(
        self, small_topology, small_table, nine_mode_density, small_events
    ):
        broker = PubSubBroker.preprocess(
            small_topology,
            small_table,
            ForgyKMeansClustering(),
            num_groups=5,
            density=nine_mode_density,
            cells_per_dim=6,
            max_cells=50,
            policy=ThresholdPolicy(0.15),
        )
        points, publishers = small_events
        report = DeliverySimulation(broker).run(points[:80], publishers[:80])
        assert (
            report.multicasts + report.unicasts + report.not_sent == 80
        )
        assert report.transmissions >= report.deliveries * 0 and (
            report.transmissions > 0
        )
        assert report.finished_at >= 0.0
        # Decisions match the cost-model broker run exactly.
        tally, _ = broker.run(points[:80], publishers[:80])
        assert report.multicasts == tally.multicasts_sent
        assert report.unicasts == tally.unicasts_sent

    def test_sparse_mode_flows_via_rendezvous(
        self, small_topology, hot_workload
    ):
        """With a sparse-mode cost model, packets detour through the
        rendezvous point — same deliveries, typically higher latency."""
        from repro.network import DeliveryCostModel

        points, publishers = hot_workload
        reports = {}
        for mode in ("dense", "sparse"):
            table = SubscriptionTable(4)
            for node in small_topology.all_stub_nodes():
                table.add(node, Rectangle((0.0,) * 4, (20.0,) * 4))
            broker = PubSubBroker.preprocess(
                small_topology,
                table,
                ForgyKMeansClustering(),
                num_groups=2,
                cells_per_dim=2,
                max_cells=16,
                policy=ThresholdPolicy(0.0),
                cost_model=DeliveryCostModel(
                    small_topology, multicast_mode=mode
                ),
            )
            reports[mode] = DeliverySimulation(broker).run(
                points, publishers, inter_arrival=100.0
            )
        assert (
            reports["sparse"].deliveries == reports["dense"].deliveries
        )
        # Detour through the RP can't *reduce* mean latency (the
        # publisher is fixed; dense trees are publisher-rooted SPTs).
        assert (
            reports["sparse"].latency.mean
            >= reports["dense"].latency.mean - 1e-9
        )

    def test_input_validation(self, hot_broker):
        sim = DeliverySimulation(hot_broker)
        with pytest.raises(ValueError):
            sim.run(np.zeros((3, 4)), [1, 2])
        with pytest.raises(ValueError):
            sim.run(np.zeros((2, 4)), [1, 2], arrival_times=[0.0])
