"""Rebalancer: live migration, journaled recovery, overload proposals."""

import pytest

from repro.core import Event
from repro.durability import MemoryWAL
from repro.durability.wal import RecordKind
from repro.faults.verifier import build_chaos_testbed
from repro.sharding import (
    MigrationPhase,
    Rebalancer,
    ShardMap,
    ShardRouter,
)
from repro.workload import PublicationGenerator


@pytest.fixture(scope="module")
def testbed():
    broker, density = build_chaos_testbed(
        seed=19, subscriptions=200, num_groups=9
    )
    points, publishers = PublicationGenerator(
        density, broker.topology.all_stub_nodes(), seed=23
    ).generate(250)
    return broker, points, publishers


def _fresh(broker):
    router = ShardRouter(broker, ShardMap.plan(broker.partition, 4))
    wal = MemoryWAL()
    return router, Rebalancer(router, wal=wal), wal


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


class TestMigration:
    def test_full_migration_preserves_parity(self, testbed):
        broker, points, publishers = testbed
        router, rebalancer, wal = _fresh(broker)
        q = router.map.subsets_of(0)[0]
        ticket = rebalancer.migrate(q, 1)
        assert ticket.phase is MigrationPhase.DONE
        assert router.map.owner_of_subset(q) == 1
        assert router.map.epoch == 1
        assert rebalancer.completed == 1
        _assert_parity(broker, router, points, publishers)

    def test_journal_records_all_three_phases(self, testbed):
        broker, _, _ = testbed
        router, rebalancer, wal = _fresh(broker)
        q = router.map.subsets_of(0)[0]
        rebalancer.migrate(q, 2)
        kinds = [record.kind for record in wal.scan().records]
        assert kinds == [
            RecordKind.MIGRATE_BEGIN,
            RecordKind.MIGRATE_CUTOVER,
            RecordKind.MIGRATE_DONE,
        ]

    def test_handoff_digest_matches_snapshot(self, testbed):
        broker, _, _ = testbed
        router, rebalancer, wal = _fresh(broker)
        q = router.map.subsets_of(0)[0]
        ticket = rebalancer.migrate(q, 1)
        begin = wal.scan().records[0].body
        assert begin["digest"] == ticket.handoff_digest
        assert tuple(int(x) for x in begin["ids"]) == ticket.moved_ids

    def test_abort_before_cutover_rolls_back(self, testbed):
        broker, points, publishers = testbed
        router, rebalancer, _ = _fresh(broker)
        q = router.map.subsets_of(0)[0]
        ticket = rebalancer.begin(q, 1)
        assert router.map.owner_of_subset(q) == 0  # not yet cut over
        rebalancer.abort(ticket)
        assert ticket.phase is MigrationPhase.ABORTED
        assert router.map.owner_of_subset(q) == 0
        assert router.map.epoch == 0
        assert rebalancer.aborted == 1
        _assert_parity(broker, router, points, publishers)

    def test_abort_after_cutover_refused(self, testbed):
        broker, _, _ = testbed
        router, rebalancer, _ = _fresh(broker)
        q = router.map.subsets_of(0)[0]
        ticket = rebalancer.begin(q, 1)
        rebalancer.cutover(ticket)
        with pytest.raises(ValueError):
            rebalancer.abort(ticket)

    def test_concurrent_migration_of_same_subset_refused(self, testbed):
        broker, _, _ = testbed
        _, rebalancer, _ = _fresh(broker)
        q = rebalancer.map.subsets_of(0)[0]
        rebalancer.begin(q, 1)
        with pytest.raises(ValueError, match="already in progress"):
            rebalancer.begin(q, 2)


class TestRecovery:
    def test_cutover_without_done_rolls_forward(self, testbed):
        broker, points, publishers = testbed
        router, rebalancer, wal = _fresh(broker)
        q = router.map.subsets_of(0)[0]
        ticket = rebalancer.begin(q, 1)
        rebalancer.cutover(ticket)
        # Crash before finish: a fresh rebalancer over the same journal
        # and router must complete the cleanup, not undo the cutover.
        recovered = Rebalancer(router, wal=wal)
        summary = recovered.recover()
        assert summary.rolled_forward == (ticket.migration_id,)
        assert summary.rolled_back == ()
        assert router.map.owner_of_subset(q) == 1
        _assert_parity(broker, router, points, publishers)

    def test_begin_without_cutover_rolls_back(self, testbed):
        broker, points, publishers = testbed
        router, rebalancer, wal = _fresh(broker)
        q = router.map.subsets_of(0)[0]
        ticket = rebalancer.begin(q, 1)
        recovered = Rebalancer(router, wal=wal)
        summary = recovered.recover()
        assert summary.rolled_forward == ()
        assert summary.rolled_back == (ticket.migration_id,)
        assert router.map.owner_of_subset(q) == 0
        _assert_parity(broker, router, points, publishers)

    def test_completed_migrations_are_left_alone(self, testbed):
        broker, _, _ = testbed
        router, rebalancer, wal = _fresh(broker)
        q = router.map.subsets_of(0)[0]
        rebalancer.migrate(q, 1)
        summary = Rebalancer(router, wal=wal).recover()
        assert summary.rolled_forward == ()
        assert summary.rolled_back == ()
        assert router.map.owner_of_subset(q) == 1


class TestProposals:
    def test_propose_moves_heaviest_subset_to_lightest_shard(self, testbed):
        broker, _, _ = testbed
        router, rebalancer, _ = _fresh(broker)
        pick = rebalancer.propose(0)
        assert pick is not None
        q, dest = pick
        assert q in router.map.subsets_of(0)
        assert dest != 0
        loads = router.map.shard_loads()
        others = {s: loads[s] for s in range(4) if s != 0}
        assert loads[dest] == min(others.values())

    def test_propose_respects_exclusions(self, testbed):
        broker, _, _ = testbed
        _, rebalancer, _ = _fresh(broker)
        pick = rebalancer.propose(0, exclude={1, 2})
        assert pick is not None
        assert pick[1] == 3
