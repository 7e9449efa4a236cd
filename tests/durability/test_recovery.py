"""Recovery: snapshot + WAL replay semantics, down to each record kind."""

from __future__ import annotations

import pytest

from repro.clustering import ForgyKMeansClustering
from repro.core.dynamic import DynamicPubSubBroker
from repro.core.subscription import SubscriptionTable
from repro.durability import (
    BrokerJournal,
    MemorySnapshotStore,
    MemoryWAL,
    RecordKind,
    recover,
    restore_broker,
)
from repro.faults.verifier import build_chaos_testbed
from repro.geometry.rectangle import Rectangle
from repro.io import table_to_dict
from repro.workload import PublicationGenerator, StockSubscriptionGenerator
from tests.clustering.test_grid_walk import members_by_id


def subscribe_record(sid, subscriber=7, lows=(0.0, 0.0), highs=(1.0, 1.0)):
    return {
        "sid": sid,
        "subscriber": subscriber,
        "lows": list(lows),
        "highs": list(highs),
    }


class TestReplaySemantics:
    def test_empty_storage_recovers_to_nothing(self):
        state = recover(MemoryWAL(), MemorySnapshotStore())
        assert state.table is None
        assert state.inflight == {}
        assert state.replayed == 0

    def test_subscribes_rebuild_the_table(self):
        wal = MemoryWAL()
        wal.append(RecordKind.SUBSCRIBE, subscribe_record(0))
        wal.append(
            RecordKind.SUBSCRIBE,
            subscribe_record(1, subscriber=9, lows=(2.0, "-inf")),
        )
        state = recover(wal, MemorySnapshotStore())
        assert len(state.table) == 2
        assert state.subscriptions_replayed == 2
        assert state.table[1].subscriber == 9
        assert state.table[1].rectangle.lows[1] == float("-inf")

    def test_id_space_gap_is_skipped_not_misassigned(self):
        wal = MemoryWAL()
        wal.append(RecordKind.SUBSCRIBE, subscribe_record(0))
        wal.append(RecordKind.SUBSCRIBE, subscribe_record(5))  # gap
        state = recover(wal, MemorySnapshotStore())
        assert len(state.table) == 1
        assert state.skipped == 1

    def test_unsubscribe_tombstones(self):
        wal = MemoryWAL()
        wal.append(RecordKind.SUBSCRIBE, subscribe_record(0))
        wal.append(RecordKind.UNSUBSCRIBE, {"sid": 0})
        wal.append(RecordKind.UNSUBSCRIBE, {"sid": 44})  # unknown id
        wal.append(RecordKind.UNSUBSCRIBE, {"sid": -1})  # no such id either
        state = recover(wal, MemorySnapshotStore())
        assert state.removed == {0}
        assert state.removals_replayed == 1
        assert state.skipped == 2

    def test_records_below_checkpoint_lsn_are_not_replayed(self):
        from repro.durability import Snapshot

        wal = MemoryWAL()
        table = SubscriptionTable(2)
        table.add(7, Rectangle((0.0, 0.0), (1.0, 1.0)))
        early = wal.append(RecordKind.SUBSCRIBE, subscribe_record(0))
        boundary = wal.end_lsn
        wal.append(RecordKind.SUBSCRIBE, subscribe_record(1, subscriber=8))
        store = MemorySnapshotStore()
        store.save(
            Snapshot(
                snapshot_id=0,
                checkpoint_lsn=boundary,
                table=table_to_dict(table),
            )
        )
        state = recover(wal, store)
        # The early SUBSCRIBE is inside the snapshot; only the one at
        # or past the boundary replays on top of the snapshot table.
        assert early < boundary
        assert state.subscriptions_replayed == 1
        assert len(state.table) == 2
        assert state.checkpoint_lsn == boundary

    def test_publish_deliver_reconstruct_inflight(self):
        wal = MemoryWAL()
        lsn = wal.append(
            RecordKind.PUBLISH,
            {"seq": 4, "publisher": 2, "targets": [10, 11, 12]},
        )
        wal.append(RecordKind.PUBLISH, {"seq": 5, "publisher": 2, "targets": [10]})
        wal.append(RecordKind.DELIVER, {"seq": 4, "target": 11})
        wal.append(RecordKind.DELIVER, {"seq": 5, "target": 10})
        state = recover(wal, MemorySnapshotStore())
        # seq 5 finished; seq 4 still owes targets 10 and 12.
        assert set(state.inflight) == {4}
        entry = state.inflight[4]
        assert entry.targets == (10, 12)
        assert entry.publisher == 2
        assert entry.lsn == lsn

    def test_malformed_body_skipped_never_raised(self):
        wal = MemoryWAL()
        wal.append(RecordKind.SUBSCRIBE, {"nonsense": True})
        wal.append(RecordKind.PUBLISH, {"seq": "x", "publisher": [], "targets": 3})
        wal.append(RecordKind.SUBSCRIBE, subscribe_record(0))
        state = recover(wal, MemorySnapshotStore())
        assert state.skipped == 2
        assert len(state.table) == 1

    def test_torn_tail_truncates_and_repairs(self):
        wal = MemoryWAL()
        wal.append(RecordKind.SUBSCRIBE, subscribe_record(0))
        wal.append(RecordKind.SUBSCRIBE, subscribe_record(1))
        wal.tear_tail(4)
        state = recover(wal, MemorySnapshotStore())
        assert state.truncated_bytes > 0
        assert "torn" in state.corruption
        assert len(state.table) == 1
        # The log was physically repaired: the next scan is clean.
        assert wal.scan().clean

    def test_digest_is_deterministic(self):
        def build():
            wal = MemoryWAL()
            wal.append(RecordKind.SUBSCRIBE, subscribe_record(0))
            wal.append(
                RecordKind.PUBLISH,
                {"seq": 0, "publisher": 1, "targets": [5]},
            )
            return recover(wal, MemorySnapshotStore())

        assert build().digest() == build().digest()


class TestRestoreBroker:
    def test_refuses_empty_state(self):
        broker, _ = _testbed()
        state = recover(MemoryWAL(), MemorySnapshotStore())
        with pytest.raises(ValueError, match="empty recovered state"):
            restore_broker(broker, state)

    def test_refuses_state_without_partition(self):
        broker, _ = _testbed()
        wal = MemoryWAL()
        wal.append(RecordKind.SUBSCRIBE, subscribe_record(0))
        state = recover(wal, MemorySnapshotStore())
        with pytest.raises(ValueError, match="no partition assignment"):
            restore_broker(broker, state)

    def test_round_trip_preserves_matching(self):
        """Restored into a churn broker and into a plain one, the state
        matches as the original does, and survives the restored
        broker's own checkpoint with its withdrawn ids still withdrawn."""
        broker, density = _testbed()
        wal = MemoryWAL()
        store = MemorySnapshotStore()
        journal = BrokerJournal(broker, wal, store, checkpoint_every=10_000)
        broker.attach_journal(journal)
        broker.unsubscribe(3)  # a tombstone the snapshot holds
        journal.checkpoint()

        # Post-checkpoint churn rides the WAL, not the snapshot.
        stub = broker.topology.all_stub_nodes()
        template = broker.table[0].rectangle
        added = broker.subscribe(int(stub[0]), template)
        broker.unsubscribe(2)

        state = recover(wal, store)
        assert state.subscriptions_replayed == 1
        assert state.removals_replayed == 1
        assert state.removed == {2, 3}
        points, _ = PublicationGenerator(
            density, stub, seed=77
        ).generate(40)
        # A point inside a subscription's rectangle (lows < p <= highs).
        inf = float("inf")

        def inside(rectangle):
            return tuple(
                hi if hi != inf else (lo + 1.0 if lo != -inf else 0.0)
                for lo, hi in zip(rectangle.lows, rectangle.highs)
            )

        for dynamic in (True, False):
            reference, _ = _testbed(dynamic)
            restore_broker(reference, state)
            # One more round trip, from the restored broker's checkpoint.
            again_wal, again_store = MemoryWAL(), MemorySnapshotStore()
            BrokerJournal(reference, again_wal, again_store).checkpoint()
            again = recover(again_wal, again_store)
            assert again.removed == {2, 3}
            restored, _ = _testbed(dynamic)
            restore_broker(restored, again)

            for recovered in (reference, restored):
                for point in points:
                    expected = broker.engine.match_point(point)
                    got = recovered.engine.match_point(point)
                    assert got.subscription_ids == expected.subscription_ids
                    assert got.subscribers == expected.subscribers
                # The replayed add is genuinely live in the recovered
                # engine, and the withdrawn ids stay unmatched.
                probe = recovered.engine.match_point(inside(template))
                assert added.subscription_id in probe.subscription_ids
                for sid in (2, 3):
                    probe = recovered.engine.match_point(
                        inside(broker.table[sid].rectangle)
                    )
                    assert sid not in probe.subscription_ids
                assert (
                    recovered.partition.num_groups
                    == broker.partition.num_groups
                )
                for q in range(1, recovered.partition.num_groups + 1):
                    assert (
                        recovered.partition.group(q).members
                        == broker.partition.group(q).members
                    )

    def test_rebuilt_grid_and_groups_equal_the_grown_ones(self):
        """The grid a broker *grew* (``preprocess`` then ``subscribe``)
        and the grid ``restore_broker`` *rebuilds* from the recovered
        table hold the same ``l(g)`` — as subscriber ids, bit positions
        may differ — and every group the same members, with tombstoned
        subscriptions inside the snapshot and replayed ones after it."""

        def testbed():
            return build_chaos_testbed(
                seed=5, subscriptions=400, num_groups=5, dynamic=True
            )

        broker, _ = testbed()
        wal = MemoryWAL()
        store = MemorySnapshotStore()
        journal = BrokerJournal(broker, wal, store, checkpoint_every=10_000)
        broker.attach_journal(journal)
        arrivals = StockSubscriptionGenerator(broker.topology, seed=91)

        def churn(victims):
            for victim in victims:
                for _ in range(2):
                    placed = arrivals.generate_one(len(broker.table))
                    broker.subscribe(placed.node, placed.rectangle)
                broker.unsubscribe(victim)

        churn([3, 50, 120, 260, 399])  # tombstones the snapshot holds
        journal.checkpoint()
        churn([7, 90, 200, 401, 405])  # ... and churn it does not

        state = recover(wal, store)
        assert state.subscriptions_replayed == 10
        assert state.removals_replayed == 5
        assert len(state.removed) == 10
        recovered, _ = testbed()
        restore_broker(recovered, state)

        grown, rebuilt = broker.partition.grid, recovered.partition.grid
        assert members_by_id(rebuilt) == members_by_id(grown)
        assert [g.members for g in recovered.partition.groups] == [
            g.members for g in broker.partition.groups
        ]


    def test_keeps_the_brokers_configuration(self):
        """The rebuild fraction, and the density that prices cells."""
        broker, density = _testbed()
        tuned = DynamicPubSubBroker.preprocess_dynamic(
            broker.topology,
            broker.table,
            ForgyKMeansClustering(),
            5,
            density=density,
            rebuild_fraction=0.5,
        )
        covered = tuned.partition.covered_probability()
        wal, store = MemoryWAL(), MemorySnapshotStore()
        BrokerJournal(tuned, wal, store).checkpoint()
        restore_broker(tuned, recover(wal, store))
        assert tuned.engine.rebuild_fraction == 0.5
        assert tuned.partition.grid.density is density
        assert tuned.partition.covered_probability() == pytest.approx(covered)


class TestRearm:
    """What a recovered journal must do before its first append."""

    @staticmethod
    def _journaled():
        broker, _ = _testbed()
        wal, store = MemoryWAL(), MemorySnapshotStore()
        journal = BrokerJournal(broker, wal, store, checkpoint_every=10_000)
        broker.attach_journal(journal)
        journal.checkpoint()
        return broker, wal, store, journal

    def test_targetless_intent_is_not_in_flight(self):
        """Used to be reported in flight for ever and, once re-armed,
        to hold the log's low-water mark until the process ended."""
        _, wal, store, journal = self._journaled()
        intent = journal.log_publish(0, 1, [])  # nobody to deliver to
        state = recover(wal, store)
        journal.rearm(state)
        journal.checkpoint()
        assert state.inflight == {}
        assert wal.base_lsn > intent

    def test_appends_below_the_checkpoint_survive_the_next_recovery(self):
        """Damage below the snapshot's checkpoint LSN used to leave the
        repaired log ending under it, and the next recovery skipped
        what was appended there as already snapshotted."""
        broker, wal, store, journal = self._journaled()
        stub = int(broker.topology.all_stub_nodes()[0])
        template = broker.table[0].rectangle
        journal.log_publish(0, 1, [stub])  # unacked: keeps the prefix
        broker.subscribe(stub, template)
        journal.checkpoint()
        checkpoint_lsn = store.latest().checkpoint_lsn
        wal.tear_tail(wal.end_lsn - checkpoint_lsn + 1)
        state = recover(wal, store)
        assert wal.end_lsn < checkpoint_lsn
        restore_broker(broker, state)
        journal.rearm(state)
        added = broker.subscribe(stub, template)
        state = recover(wal, store)
        assert len(state.table) == added.subscription_id + 1
        assert state.table[added.subscription_id].subscriber == stub
        assert added.subscription_id not in state.removed


def _testbed(dynamic=True):
    return build_chaos_testbed(
        seed=5, subscriptions=60, num_groups=5, dynamic=dynamic
    )
