"""Unit tests for subscription churn support."""

import numpy as np
import pytest

from repro.clustering import ForgyKMeansClustering
from repro.core import (
    DynamicMatchingEngine,
    DynamicPubSubBroker,
    Event,
    MatchingEngine,
    SubscriptionTable,
)
from repro.geometry import FULL_LINE, Interval, Rectangle
from repro.spatial import STree


def rect4(lo, hi):
    return Rectangle((lo,) * 4, (hi,) * 4)


def full4():
    return Rectangle.from_intervals([FULL_LINE] * 4)


@pytest.fixture()
def engine(small_placed):
    table = SubscriptionTable.from_placed(small_placed[:100])
    return DynamicMatchingEngine(table, rebuild_fraction=0.3)


def fresh_reference(engine):
    """An independently built engine over the same live set."""
    live = SubscriptionTable(engine.table.ndim)
    live_ids = {
        s.subscription_id
        for s in engine.table
        if not engine._tombstones[s.subscription_id]
    }
    id_map = {}
    for s in engine.table:
        if s.subscription_id in live_ids:
            added = live.add(s.subscriber, s.rectangle)
            id_map[added.subscription_id] = s.subscription_id
    return live, id_map


class TestDynamicMatchingEngine:
    def test_initial_queries_match_static(self, small_placed, small_events):
        table = SubscriptionTable.from_placed(small_placed[:100])
        dynamic = DynamicMatchingEngine(table)
        static = MatchingEngine(
            SubscriptionTable.from_placed(small_placed[:100])
        )
        points, _ = small_events
        for point in points[:40]:
            assert (
                dynamic.match_point(point).subscription_ids
                == static.match_point(point).subscription_ids
            )

    def test_add_visible_immediately(self, engine):
        before = engine.match_point([1.0, 1.0, 1.0, 1.0])
        sub = engine.add(9999, full4())
        after = engine.match_point([1.0, 1.0, 1.0, 1.0])
        assert sub.subscription_id in after.subscription_ids
        assert 9999 in after.subscribers
        assert len(after.subscription_ids) == len(before.subscription_ids) + 1

    def test_remove_hides_immediately(self, engine):
        sub = engine.add(9999, full4())
        engine.remove(sub.subscription_id)
        result = engine.match_point([1.0, 1.0, 1.0, 1.0])
        assert sub.subscription_id not in result.subscription_ids

    def test_remove_validation(self, engine):
        with pytest.raises(KeyError):
            engine.remove(10_000)
        sub = engine.add(1, full4())
        engine.remove(sub.subscription_id)
        with pytest.raises(KeyError):
            engine.remove(sub.subscription_id)

    def test_rebuild_triggered_by_churn(self, engine):
        initial_rebuilds = engine.rebuilds
        # rebuild_fraction=0.3 of 100 -> rebuild after >30 churn events.
        for i in range(40):
            engine.add(5000 + i, rect4(float(i), float(i) + 1.0))
        assert engine.rebuilds > initial_rebuilds
        assert engine.pending_churn < 40

    def test_removed_subscriptions_stay_dead_across_rebuilds(self, engine):
        sub = engine.add(7777, full4())
        engine.remove(sub.subscription_id)
        engine.rebuild()  # must NOT resurrect the removed subscription
        result = engine.match_point([5.0, 5.0, 5.0, 5.0])
        assert sub.subscription_id not in result.subscription_ids
        engine.rebuild()
        result = engine.match_point([5.0, 5.0, 5.0, 5.0])
        assert sub.subscription_id not in result.subscription_ids

    def test_queries_match_fresh_engine_after_heavy_churn(
        self, engine, small_events, rng
    ):
        # Random interleaved adds/removes, then compare against a
        # from-scratch engine over the surviving set.
        added = []
        for i in range(60):
            if added and rng.random() < 0.4:
                victim = added.pop(int(rng.integers(len(added))))
                engine.remove(victim)
            else:
                lo = rng.uniform(-5, 15, size=4)
                sub = engine.add(
                    6000 + i,
                    Rectangle.from_bounds(lo, lo + rng.uniform(0.5, 8, 4)),
                )
                added.append(sub.subscription_id)
        live, id_map = fresh_reference(engine)
        reference = MatchingEngine(live)
        points, _ = small_events
        for point in points[:40]:
            expected = sorted(
                id_map[sid]
                for sid in reference.match_point(point).subscription_ids
            )
            actual = list(engine.match_point(point).subscription_ids)
            assert actual == expected

    def test_overflow_rows_are_not_reused_across_a_rebuild(self, engine):
        """The overflow scan keeps its stacked arrays between queries.
        Fill the overflow and query it, force a rebuild (the overflow
        empties into the base), then add *as many again*: a cache
        checked by length would still hold the first batch's rows."""

        def batch(offset):
            added = {}
            for i in range(10):
                lo = offset + 10.0 * i
                sid = engine.add(7, rect4(lo, lo + 1.0)).subscription_id
                added[sid] = (lo + 0.5,) * 4
            return added

        first = batch(1000.0)
        assert engine.pending_churn == 10
        for sid, point in first.items():
            assert engine.match_point(point).subscription_ids == (sid,)
        engine.rebuild()
        assert engine.pending_churn == 0
        second = batch(5000.0)
        assert engine.pending_churn == 10
        for sid, point in {**first, **second}.items():
            assert engine.match_point(point).subscription_ids == (sid,)
        # ... and an add between two queries is seen by the second.
        late = engine.add(7, rect4(9000.0, 9001.0)).subscription_id
        assert engine.match_point((9000.5,) * 4).subscription_ids == (late,)

    def test_overflow_scan_restacks_nothing(self, engine, monkeypatch):
        """``add`` fills the overflow table in place: the query after it
        makes the base index's array-joining calls and no more."""
        joins = []
        for name in ("stack", "concatenate"):

            def counted(*args, _real=getattr(np, name), **kwargs):
                joins.append(1)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        point = (1.0,) * 4
        engine.match_point(point)
        base_index_joins = len(joins)
        for i in range(20):  # past the table's first doubling, no rebuild
            sid = engine.add(7, rect4(0.5 - i, 1.5 + i)).subscription_id
            del joins[:]
            assert sid in engine.match_point(point).subscription_ids
            assert len(joins) == base_index_joins
        assert engine.rebuilds == 0

    def test_every_step_equals_brute_force_across_rebuilds(self, engine):
        rng = np.random.default_rng(11)
        points = rng.uniform(-5, 20, size=(12, 4))
        live = {s.subscription_id for s in engine.table}

        def brute_force(point):
            return tuple(
                s.subscription_id
                for s in engine.table
                if s.subscription_id in live
                and all(
                    lo < x <= hi
                    for lo, x, hi in zip(
                        s.rectangle.lows, point, s.rectangle.highs
                    )
                )
            )

        for step in range(160):
            if rng.random() < 0.4:
                # Tombstones land in the base and in the overflow alike.
                victim = int(rng.choice(sorted(live)))
                engine.remove(victim)
                live.discard(victim)
            else:
                lo = rng.uniform(-5, 15, size=4)
                hi = lo + rng.uniform(0.5, 12, size=4)
                added = engine.add(step, Rectangle.from_bounds(lo, hi))
                live.add(added.subscription_id)
            for point in points:
                assert (
                    engine.match_point(point).subscription_ids
                    == brute_force(point)
                )
        assert engine.rebuilds >= 2

    def test_empty_table_then_adds(self):
        table = SubscriptionTable(2)
        engine = DynamicMatchingEngine(table)
        assert engine.match_point([0.0, 0.0]).is_empty
        engine.add(1, Rectangle((0.0, 0.0), (1.0, 1.0)))
        assert engine.match_point([0.5, 0.5]).subscribers == (1,)

    def test_parameter_validation(self, small_placed):
        table = SubscriptionTable.from_placed(small_placed[:10])
        with pytest.raises(ValueError):
            DynamicMatchingEngine(table, rebuild_fraction=0.0)
        with pytest.raises(ValueError):
            DynamicMatchingEngine(table, backend="nope")


class TestDynamicBroker:
    @pytest.fixture()
    def broker(self, small_topology, small_placed, nine_mode_density):
        table = SubscriptionTable.from_placed(small_placed)
        return DynamicPubSubBroker.preprocess_dynamic(
            small_topology,
            table,
            ForgyKMeansClustering(),
            6,
            density=nine_mode_density,
            cells_per_dim=6,
            max_cells=60,
        )

    def test_subscribe_widens_groups(
        self, broker, small_events, small_topology
    ):
        points, publishers = small_events
        event = Event.create(0, int(publishers[0]), points[0])
        q = broker.partition.locate(event.point)
        # Subscribers are network nodes; pick a transit node, which the
        # stock workload never uses, so it is guaranteed new.
        new_node = small_topology.all_transit_nodes()[0]
        broker.subscribe(new_node, full4())
        # The universal subscriber must now be in every group.
        for group in broker.partition.groups:
            assert new_node in group.members
        record = broker.publish(event)
        if not record.match.is_empty:
            assert new_node in record.match.subscribers

    def test_group_invariant_preserved_under_churn(
        self, broker, small_events, small_topology, rng
    ):
        points, publishers = small_events
        nodes = small_topology.all_stub_nodes()
        for i in range(30):
            lo = rng.uniform(-5, 15, size=4)
            broker.subscribe(
                int(rng.choice(nodes)),
                Rectangle.from_bounds(lo, lo + rng.uniform(0.5, 10, 4)),
            )
        for i, point in enumerate(points[:60]):
            event = Event.create(i, int(publishers[i]), point)
            record = broker.publish(event)
            q = record.decision.group
            if q > 0:
                members = set(broker.partition.group(q).members)
                assert set(record.match.subscribers) <= members

    def test_unsubscribe_stops_matching(self, broker, small_topology):
        node = small_topology.all_transit_nodes()[1]
        sub = broker.subscribe(node, full4())
        broker.unsubscribe(sub.subscription_id)
        event = Event.create(0, 0, (1.0, 10.0, 9.0, 9.0))
        record = broker.publish(event)
        assert node not in record.match.subscribers

    def test_live_subscriptions_counter(self, broker, small_topology):
        initial = broker.live_subscriptions
        sub = broker.subscribe(
            small_topology.all_transit_nodes()[2], full4()
        )
        assert broker.live_subscriptions == initial + 1
        broker.unsubscribe(sub.subscription_id)
        assert broker.live_subscriptions == initial

    def test_repreprocess_drops_stale_members(self, broker, small_topology):
        node = small_topology.all_transit_nodes()[3]
        sub = broker.subscribe(node, full4())
        broker.unsubscribe(sub.subscription_id)
        # Stale until re-preprocessing...
        assert any(
            node in g.members for g in broker.partition.groups
        )
        broker.repreprocess()
        assert not any(
            node in g.members for g in broker.partition.groups
        )

    def test_repreprocess_preserves_matching_semantics(
        self, broker, small_events
    ):
        points, publishers = small_events
        before = [
            broker.publish(
                Event.create(i, int(publishers[i]), points[i])
            ).match.subscribers
            for i in range(30)
        ]
        broker.repreprocess()
        after = [
            broker.publish(
                Event.create(i, int(publishers[i]), points[i])
            ).match.subscribers
            for i in range(30)
        ]
        assert before == after


class TestBrokerConfiguration:
    """What ``preprocess_dynamic`` is told stays told: through
    ``repreprocess``, with one index build each."""

    PINNED = ((-1000.0,) * 4, (1000.0,) * 4)

    @pytest.fixture()
    def broker(self, small_topology, small_placed, nine_mode_density):
        return DynamicPubSubBroker.preprocess_dynamic(
            small_topology,
            SubscriptionTable.from_placed(small_placed),
            ForgyKMeansClustering(),
            6,
            density=nine_mode_density,
            cells_per_dim=6,
            max_cells=60,
            rebuild_fraction=0.5,
            grid_frame=self.PINNED,
        )

    @staticmethod
    def count_builds(monkeypatch):
        builds = []
        real = STree.__init__

        def counted(self, *args, **kwargs):
            builds.append(1)
            real(self, *args, **kwargs)

        monkeypatch.setattr(STree, "__init__", counted)
        return builds

    def test_repreprocess_keeps_the_rebuild_fraction(self, broker):
        assert broker.engine.rebuild_fraction == 0.5
        broker.repreprocess()
        assert broker.engine.rebuild_fraction == 0.5

    def test_repreprocess_keeps_the_pinned_frame(self, broker):
        broker.repreprocess()
        grid = broker.partition.grid
        assert grid.frame_lo.tolist() == list(self.PINNED[0])
        assert grid.frame_hi.tolist() == list(self.PINNED[1])

    def test_one_index_build_each(
        self, small_topology, small_placed, monkeypatch
    ):
        builds = self.count_builds(monkeypatch)
        broker = DynamicPubSubBroker.preprocess_dynamic(
            small_topology,
            SubscriptionTable.from_placed(small_placed),
            ForgyKMeansClustering(),
            6,
        )
        assert len(builds) == 1
        broker.repreprocess()
        assert len(builds) == 2


class TestChurnGuarantees:
    """Issue-mandated contracts: churn drains to zero on rebuild, and
    unknown removals fail loudly with a clear message."""

    def test_pending_churn_returns_to_zero_after_rebuild(self, engine):
        for i in range(20):
            engine.add(8000 + i, rect4(float(i), float(i) + 1.0))
        assert engine.pending_churn > 0
        engine.rebuild()
        assert engine.pending_churn == 0
        # And the guarantee holds repeatedly, not just once.
        sub = engine.add(8999, full4())
        engine.remove(sub.subscription_id)
        assert engine.pending_churn > 0
        engine.rebuild()
        assert engine.pending_churn == 0

    def test_remove_unknown_id_message(self, engine):
        with pytest.raises(KeyError) as excinfo:
            engine.remove(10_000)
        assert excinfo.value.args[0] == "unknown subscription id 10000"

    def test_remove_twice_message(self, engine):
        sub = engine.add(1, full4())
        engine.remove(sub.subscription_id)
        with pytest.raises(KeyError) as excinfo:
            engine.remove(sub.subscription_id)
        assert excinfo.value.args[0] == (
            f"subscription {sub.subscription_id} already removed"
        )


class TestSustainedChurnDelivery:
    """repreprocess interleaved with a live event stream: deliveries are
    never lost mid-rebuild."""

    @pytest.fixture()
    def broker(self, small_topology, small_placed, nine_mode_density):
        table = SubscriptionTable.from_placed(small_placed)
        return DynamicPubSubBroker.preprocess_dynamic(
            small_topology,
            table,
            ForgyKMeansClustering(),
            6,
            density=nine_mode_density,
            cells_per_dim=6,
            max_cells=60,
        )

    @staticmethod
    def interested(broker, point):
        """Omniscient ground truth over the current live set."""
        engine = broker.engine
        return {
            s.subscriber
            for s in engine.table
            if not engine._tombstones[s.subscription_id]
            and s.rectangle.contains_point(point)
        }

    def test_no_delivery_lost_mid_rebuild(
        self, broker, small_events, small_topology, rng
    ):
        points, publishers = small_events
        nodes = small_topology.all_stub_nodes()
        added = []
        for i, point in enumerate(points[:80]):
            # Sustained churn: add/remove every step, with periodic
            # re-preprocessing racing the publish stream.
            if added and rng.random() < 0.4:
                broker.unsubscribe(added.pop(int(rng.integers(len(added)))))
            else:
                lo = rng.uniform(-5, 15, size=4)
                sub = broker.subscribe(
                    int(rng.choice(nodes)),
                    Rectangle.from_bounds(lo, lo + rng.uniform(0.5, 10, 4)),
                )
                added.append(sub.subscription_id)
            if i % 29 == 23:
                broker.repreprocess()
                # repreprocess() compacts the table and reassigns ids;
                # the ones we held are no longer valid handles.
                added.clear()

            expected = self.interested(broker, point)
            record = broker.publish(
                Event.create(i, int(publishers[i]), point)
            )
            # Exact matching never loses an interested subscriber...
            assert set(record.match.subscribers) == expected
            # ...and a multicast group still covers the whole match.
            q = record.decision.group
            if q > 0:
                members = set(broker.partition.group(q).members)
                assert expected <= members

    def test_churn_counters_drain_after_maintenance(
        self, broker, small_topology
    ):
        node = small_topology.all_stub_nodes()[0]
        subs = [
            broker.subscribe(node, full4()) for _ in range(10)
        ]
        for sub in subs:
            broker.unsubscribe(sub.subscription_id)
        broker.engine.rebuild()
        assert broker.engine.pending_churn == 0
        broker.repreprocess()
        assert broker.engine.pending_churn == 0
