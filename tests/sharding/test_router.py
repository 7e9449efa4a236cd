"""ShardRouter: routing, scatter, and exact match parity per shard."""

from itertools import product

import numpy as np
import pytest

from repro.core import Event
from repro.geometry import Rectangle
from repro.faults.verifier import build_chaos_testbed
from repro.sharding import ShardMap, ShardRouter
from repro.workload import PublicationGenerator


@pytest.fixture(scope="module")
def testbed():
    broker, density = build_chaos_testbed(
        seed=13, subscriptions=250, num_groups=9
    )
    points, publishers = PublicationGenerator(
        density, broker.topology.all_stub_nodes(), seed=17
    ).generate(400)
    return broker, points, publishers


@pytest.fixture()
def router(testbed):
    broker, _, _ = testbed
    return ShardRouter(broker, ShardMap.plan(broker.partition, 4))


def _assert_parity(broker, router, points, publishers):
    for sequence in range(len(points)):
        event = Event.create(
            sequence, int(publishers[sequence]), points[sequence]
        )
        routed = router.route(event)
        reference = broker.engine.match(event)
        assert routed.match.subscription_ids == tuple(
            sorted(int(i) for i in reference.subscription_ids)
        )
        assert routed.match.subscribers == tuple(reference.subscribers)


class TestRouting:
    def test_match_parity_with_unsharded_broker(self, testbed, router):
        broker, points, publishers = testbed
        _assert_parity(broker, router, points, publishers)

    def test_resolve_is_pure(self, testbed, router):
        broker, points, _ = testbed
        first = [router.resolve(p) for p in points]
        second = [router.resolve(p) for p in points]
        assert first == second

    def test_subset_events_route_to_subset_owner(self, testbed, router):
        broker, points, _ = testbed
        for point in points[:200]:
            q, shard = router.resolve(point)
            if q > 0:
                assert shard == router.map.owner_of_subset(q)

    def test_out_of_frame_point_routes_deterministically(self, router):
        grid = router.partition.grid
        outside = grid.frame_hi + 3.0
        q, shard = router.resolve(outside)
        assert q == 0
        assert 0 <= shard < router.map.num_shards
        assert router.resolve(outside) == (q, shard)


class TestScatter:
    def test_every_shard_sees_its_subscriptions_once(self, testbed, router):
        broker, _, _ = testbed
        total = sum(len(router.shards[k]) for k in router.shards)
        assert total == router.scattered
        for shard in router.shards.values():
            ids = shard.subscription_ids
            assert len(ids) == len(set(ids))

    def test_frame_escaping_rectangle_scatters_everywhere(self, router):
        grid = router.partition.grid
        ndim = grid.ndim
        lows = np.asarray(grid.frame_lo, dtype=np.float64) - 1.0
        highs = np.asarray(grid.frame_hi, dtype=np.float64)
        rect = Rectangle(lows, highs)
        assert router.cells_of_rectangle(rect) is None
        assert router.shards_of_rectangle(rect) == list(
            range(router.map.num_shards)
        )
        infinite = Rectangle.full(ndim)
        assert router.shards_of_rectangle(infinite) == list(
            range(router.map.num_shards)
        )

    def test_empty_rectangle_scatters_nowhere(self, router):
        ndim = router.partition.grid.ndim
        lo = np.full(ndim, 5.0)
        hi = np.full(ndim, 5.0)
        rect = Rectangle(lo, hi)
        assert router.cells_of_rectangle(rect) == []
        assert router.shards_of_rectangle(rect) == []

    def test_cells_are_the_cells_the_rectangles_points_locate_to(
        self, router, rng
    ):
        """Scatter's geometric invariant on cell boundaries: a
        subscription lives on the shard owning every cell one of its
        points can land in.  Rectangles are cut along the boundaries
        the grid computes (and one ulp either side), where a filter on
        the cells' edges and ``locate`` used to round differently."""
        grid = router.partition.grid
        c = grid.cells_per_dim
        assert c >= 4

        def boundary(d, i):
            b = grid.frame_lo[d] + i * grid.cell_width[d]
            return float(
                np.nextafter(b, rng.choice([-np.inf, b, np.inf]))
            )

        for _ in range(300):
            lows, highs = [], []
            for d in range(grid.ndim):
                i = int(rng.integers(1, c - 1))
                j = int(rng.integers(i + 1, c))
                lows.append(boundary(d, i))
                highs.append(boundary(d, j))
            rectangle = Rectangle(tuple(lows), tuple(highs))
            # The two extreme points of the half-open rectangle.
            lowest = tuple(float(np.nextafter(x, np.inf)) for x in lows)
            highest = tuple(highs)
            assert rectangle.contains_point(lowest)
            assert rectangle.contains_point(highest)
            first, last = grid.locate(lowest), grid.locate(highest)
            cells = router.cells_of_rectangle(rectangle)
            assert cells == list(
                product(*(range(a, b + 1) for a, b in zip(first, last)))
            )
            owners = router.shards_of_rectangle(rectangle)
            for point in (lowest, highest):
                assert router.resolve(point)[1] in owners


class TestIdempotency:
    def test_mark_down_twice_is_a_noop(self, testbed):
        broker, points, publishers = testbed
        router = ShardRouter(broker, ShardMap.plan(broker.partition, 4))
        first = router.mark_down(2)
        scattered = router.scattered
        sizes = {k: len(router.shards[k]) for k in router.shards}
        # Second call: no re-scatter, no double-counting, no churn.
        assert router.mark_down(2) == 0
        assert router.scattered == scattered
        assert {k: len(router.shards[k]) for k in router.shards} == sizes
        assert first >= 0
        _assert_parity(broker, router, points, publishers)

    def test_refresh_shard_twice_finds_nothing_stale(self, testbed):
        broker, _, _ = testbed
        router = ShardRouter(broker, ShardMap.plan(broker.partition, 4))
        q = router.map.subsets_of(0)[0]
        router.map.migrate(q, (router.map.owner_of_subset(q) + 1) % 4)
        first = router.refresh_shard(0)
        assert router.refresh_shard(0) == 0
        assert first >= 0

    def test_mutation_hooks_fire_once_per_change(self, testbed):
        broker, _, _ = testbed
        router = ShardRouter(broker, ShardMap.plan(broker.partition, 4))
        shard = router.shards[0]
        registered, withdrawn = [], []
        shard.on_register = lambda gid, sub, rect: registered.append(gid)
        shard.on_withdraw = lambda gid: withdrawn.append(gid)
        subscription = broker.table[shard.subscription_ids[0]]
        # Duplicate registration is deduped and must not re-fire.
        assert not shard.register(subscription)
        assert registered == []
        gid = int(subscription.subscription_id)
        assert shard.withdraw([gid, gid]) == 1
        assert withdrawn == [gid]
        assert shard.register(subscription)
        assert registered == [gid]


class TestMapChanges:
    def test_parity_survives_migration(self, testbed):
        broker, points, publishers = testbed
        router = ShardRouter(broker, ShardMap.plan(broker.partition, 4))
        q = router.map.subsets_of(0)[0]
        dest = (router.map.owner_of_subset(q) + 1) % 4
        router.map.migrate(q, dest)
        # The new owner must pick up the subset's subscriptions, the
        # old owner must drop the ones it no longer needs.
        for subscription in router.subscriptions_of_subset(q):
            router.scatter(subscription)
        router.refresh_shard(0)
        _assert_parity(broker, router, points, publishers)

    def test_parity_survives_shard_death(self, testbed):
        broker, points, publishers = testbed
        router = ShardRouter(broker, ShardMap.plan(broker.partition, 4))
        victim = 3
        # Move the victim's subsets off first (the rebalancer's job),
        # then mark it down so catchall cells redistribute.
        for q in router.map.subsets_of(victim):
            router.map.migrate(q, 0)
            for subscription in router.subscriptions_of_subset(q):
                router.scatter(subscription)
        router.mark_down(victim)
        for point in points:
            _, shard = router.resolve(point)
            assert shard != victim
        _assert_parity(broker, router, points, publishers)
