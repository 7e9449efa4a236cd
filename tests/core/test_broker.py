"""Integration tests for the end-to-end broker."""

import numpy as np
import pytest

from repro.clustering import ForgyKMeansClustering
from repro.core import (
    DeliveryMethod,
    Event,
    PubSubBroker,
    ThresholdPolicy,
)
from repro.faults.plan import FaultState


@pytest.fixture(scope="module")
def broker(small_topology, small_table, nine_mode_density):
    return PubSubBroker.preprocess(
        small_topology,
        small_table,
        ForgyKMeansClustering(),
        num_groups=6,
        density=nine_mode_density,
        cells_per_dim=6,
        max_cells=60,
        policy=ThresholdPolicy(0.15),
    )


class TestPublish:
    def test_record_fields_consistent(self, broker, small_events):
        points, publishers = small_events
        for i in range(50):
            event = Event.create(i, int(publishers[i]), points[i])
            record = broker.publish(event)
            if record.method is DeliveryMethod.NOT_SENT:
                assert record.scheme_cost == 0.0
                assert record.match.is_empty
            else:
                assert record.unicast_cost >= record.ideal_cost - 1e-9
                assert record.scheme_cost > 0.0 or not record.match.subscribers

    def test_unicast_decision_costs_unicast(self, broker, small_events):
        points, publishers = small_events
        seen = False
        for i in range(len(points)):
            event = Event.create(i, int(publishers[i]), points[i])
            record = broker.publish(event)
            if record.method is DeliveryMethod.UNICAST:
                assert record.scheme_cost == pytest.approx(
                    record.unicast_cost
                )
                seen = True
        assert seen

    def test_multicast_reaches_whole_group(self, broker, small_events):
        points, publishers = small_events
        seen = False
        for i in range(len(points)):
            event = Event.create(i, int(publishers[i]), points[i])
            record = broker.publish(event)
            if record.method is DeliveryMethod.MULTICAST:
                q = record.decision.group
                members = broker.partition.group(q).members
                expected = broker.costs.multicast_cost(
                    event.publisher, members
                )
                assert record.scheme_cost == pytest.approx(expected)
                seen = True
        assert seen

    def test_matched_subscribers_inside_group(self, broker, small_events):
        points, publishers = small_events
        for i in range(len(points)):
            event = Event.create(i, int(publishers[i]), points[i])
            record = broker.publish(event)
            q = record.decision.group
            if q > 0:
                members = set(broker.partition.group(q).members)
                assert set(record.match.subscribers) <= members


class TestRun:
    def test_tally_counts(self, broker, small_events):
        points, publishers = small_events
        tally, records = broker.run(points, publishers, collect_records=True)
        assert tally.messages == len(points)
        assert len(records) == len(points)
        assert (
            tally.multicasts_sent + tally.unicasts_sent
            == sum(
                1
                for r in records
                if r.method is not DeliveryMethod.NOT_SENT
            )
        )

    def test_run_without_records(self, broker, small_events):
        points, publishers = small_events
        tally, records = broker.run(points, publishers)
        assert records == []
        assert tally.messages == len(points)

    def test_shape_validation(self, broker):
        with pytest.raises(ValueError):
            broker.run(np.zeros((3, 4)), [1, 2])

    def test_deterministic(self, broker, small_events):
        points, publishers = small_events
        a, _ = broker.run(points, publishers)
        b, _ = broker.run(points, publishers)
        assert a.scheme == b.scheme
        assert a.multicasts_sent == b.multicasts_sent


class TestPolicySweep:
    def test_with_policy_shares_state(self, broker):
        sibling = broker.with_policy(ThresholdPolicy(0.5))
        assert sibling.partition is broker.partition
        assert sibling.costs is broker.costs
        assert sibling.policy.threshold == 0.5

    def test_threshold_one_always_at_least_as_good_as_unicast(
        self, broker, small_events
    ):
        # At t slightly above any achievable ratio, the scheme is pure
        # unicast: improvement must be ~0 (never negative).
        points, publishers = small_events
        tally, _ = broker.with_policy(ThresholdPolicy(1.0)).run(
            points, publishers
        )
        assert tally.improvement_percent == pytest.approx(0.0, abs=1e-6)

    def test_static_vs_dynamic(self, broker, small_events):
        points, publishers = small_events
        static, _ = broker.with_policy(ThresholdPolicy(0.0)).run(
            points, publishers
        )
        best = max(
            broker.with_policy(ThresholdPolicy(t))
            .run(points, publishers)[0]
            .improvement_percent
            for t in (0.0, 0.05, 0.1, 0.2, 0.4)
        )
        # The dynamic optimum can never lose to the static scheme —
        # t=0 is inside the swept set.
        assert best >= static.improvement_percent

    def test_monotone_multicast_count(self, broker, small_events):
        # Raising the threshold can only reduce multicasts.
        points, publishers = small_events
        previous = None
        for t in (0.0, 0.1, 0.3, 0.7, 1.0):
            tally, _ = broker.with_policy(ThresholdPolicy(t)).run(
                points, publishers
            )
            if previous is not None:
                assert tally.multicasts_sent <= previous
            previous = tally.multicasts_sent


class TestSharedGroupKey:
    """Every (publisher, group) tree is cached under the group's own
    member set — one object per group, never a per-entry copy — and the
    keys stay by value, so a widened group can never be served the
    tree of its narrower self."""

    @pytest.fixture()
    def fresh(self, small_topology, small_table, nine_mode_density):
        # Own partition and cost model: the tests below mutate both.
        return PubSubBroker.preprocess(
            small_topology,
            small_table,
            ForgyKMeansClustering(),
            num_groups=6,
            density=nine_mode_density,
            cells_per_dim=6,
            max_cells=60,
            policy=ThresholdPolicy(0.0),
        )

    def test_cache_keys_are_the_groups_own_sets(self, fresh, small_events):
        points, publishers = small_events
        tally, _ = fresh.run(points, publishers)
        assert tally.multicasts_sent
        cache = fresh.costs._group_tree_cache
        assert cache
        own = {id(g.member_set): g for g in fresh.partition.groups}
        for publisher, members in cache:
            group = own[id(members)]  # KeyError: a copy was cached
            assert members is group.member_set
            assert cache[(publisher, members)] == (
                fresh.costs.routing.shortest_path_tree_cost(
                    publisher, members
                )
            )

    def test_fault_snapshot_arm_shares_the_set_too(self, fresh, small_events):
        points, publishers = small_events
        healthy = FaultState(0.0, frozenset(), frozenset())
        for i in range(len(points)):
            fresh.publish(
                Event.create(i, int(publishers[i]), points[i]),
                faults=healthy,
            )
        own = {id(g.member_set) for g in fresh.partition.groups}
        assert fresh.costs._group_tree_cache
        assert all(
            id(members) in own for _, members in fresh.costs._group_tree_cache
        )

    def test_widened_group_is_costed_afresh(self, fresh, small_topology):
        partition, costs = fresh.partition, fresh.costs
        group = partition.group(1)
        publisher = small_topology.all_stub_nodes()[0]
        before = costs.multicast_cost(publisher, group.member_set)
        newcomer = next(
            node
            for node in reversed(small_topology.all_stub_nodes())
            if node not in group.member_set and node != publisher
        )
        cell = next(
            index
            for index in partition.grid.cells
            if partition.group_of_cell(index) == 1
        )
        grown = partition.add_subscription(
            partition.grid.cells[cell].rectangle(), newcomer
        )
        assert 1 in grown
        widened = partition.group(1)
        assert widened.member_set == group.member_set | {newcomer}
        after = costs.multicast_cost(publisher, widened.member_set)
        assert after == costs.routing.shortest_path_tree_cost(
            publisher, widened.member_set
        )
        assert after >= before
        # The narrower group's entry is still there, under its own key.
        assert costs._group_tree_cache[(publisher, group.member_set)] == before

    def test_any_iterable_of_the_same_members_hits_the_same_entry(
        self, fresh
    ):
        group = fresh.partition.group(1)
        costs = fresh.costs
        via_set = costs.multicast_cost(7, group.member_set)
        assert costs.multicast_cost(7, group.members) == via_set
        assert costs.multicast_cost(7, list(reversed(group.members))) == via_set
        assert len(costs._group_tree_cache) == 1


class TestPreprocessOptions:
    def test_matcher_backend_choice(
        self, small_topology, small_table, nine_mode_density, small_events
    ):
        points, publishers = small_events
        tallies = []
        for backend in ("stree", "linear"):
            broker = PubSubBroker.preprocess(
                small_topology,
                small_table,
                ForgyKMeansClustering(),
                num_groups=4,
                density=nine_mode_density,
                cells_per_dim=5,
                max_cells=40,
                matcher_backend=backend,
            )
            tally, _ = broker.run(points[:80], publishers[:80])
            tallies.append(tally)
        # Identical semantics regardless of index backend.
        assert tallies[0].scheme == pytest.approx(tallies[1].scheme)
        assert tallies[0].multicasts_sent == tallies[1].multicasts_sent


class TestDegradedPublish:
    """publish(degraded=True): the overload DEGRADED fast path floods
    the covering group instead of running the exact match."""

    def find_grouped_event(self, broker, small_events):
        points, publishers = small_events
        for i, point in enumerate(points):
            if broker.partition.locate(point) > 0:
                return Event.create(i, int(publishers[i]), point)
        pytest.skip("workload produced no grouped event")

    def test_floods_whole_group_as_multicast(self, broker, small_events):
        event = self.find_grouped_event(broker, small_events)
        record = broker.publish(event, degraded=True)
        q = broker.partition.locate(event.point)
        members = set(broker.partition.group(q).members) - {event.publisher}
        assert record.method is DeliveryMethod.MULTICAST
        assert set(record.match.subscribers) == members
        # The exact match was skipped: no subscription ids attach.
        assert record.match.subscription_ids == ()

    def test_flood_covers_the_exact_interested_set(
        self, broker, small_events
    ):
        # Superset delivery: M_q ⊇ interested, the clustering invariant
        # degraded mode leans on.
        points, publishers = small_events
        checked = 0
        for i, point in enumerate(points):
            if broker.partition.locate(point) <= 0:
                continue
            event = Event.create(i, int(publishers[i]), point)
            exact = set(broker.publish(event).match.subscribers)
            flooded = set(
                broker.publish(event, degraded=True).match.subscribers
            )
            assert exact - {event.publisher} <= flooded
            checked += 1
        assert checked > 0

    def test_catchall_falls_back_to_exact_path(self, broker):
        # A point far outside every cluster lands in the catchall
        # (q = 0): nothing to flood, so the exact path runs anyway.
        point = (1e6, 1e6, 1e6, 1e6)
        assert broker.partition.locate(point) == 0
        event = Event.create(0, 0, point)
        degraded = broker.publish(event, degraded=True)
        exact = broker.publish(event)
        assert degraded.match.subscription_ids == exact.match.subscription_ids
        assert degraded.method is exact.method
