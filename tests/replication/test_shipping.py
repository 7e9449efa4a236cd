"""The WAL shipping protocol: batches, acks, catch-up, backpressure."""

from types import SimpleNamespace

import pytest

from repro.cluster import ReplicatedShard
from repro.core import Subscription
from repro.durability import MemoryWAL, RecordKind
from repro.durability.snapshot import MemorySnapshotStore, Snapshot
from repro.faults.verifier import build_chaos_testbed
from repro.geometry import Rectangle
from repro.overload.breaker import BreakerBoard, BreakerConfig
from repro.replication import (
    EpochState,
    LogShipper,
    ReplicaRole,
    ReplicaSet,
    ShippingConfig,
    StandbyReplica,
)
from repro.sharding import Rebalancer, ShardBroker, ShardMap, ShardRouter
from repro.telemetry import Telemetry

GOOD = Snapshot(
    snapshot_id=0,
    checkpoint_lsn=3,
    table={
        "ndim": 2,
        "subscriptions": [
            {"subscriber": 3, "lows": [0.0, "-inf"], "highs": [1.0, "inf"]},
        ],
    },
)


def _alter_table(shipped):
    """One subscriber renumbered in the table text; digest kept."""
    table = shipped["texts"]["table"].replace(
        '"subscriber":', '"subscriber":1', 1
    )
    return {**shipped, "texts": {**shipped["texts"], "table": table}}


def _alter_scalar(shipped):
    return {**shipped, "texts": {**shipped["texts"], "checkpoint_lsn": "9"}}


def _drop_digest(shipped):
    return {"texts": shipped["texts"]}


#: Each way a shipped snapshot can arrive wrong, and how it is refused.
TAMPERINGS = [
    pytest.param(_alter_table, "digest mismatch", id="table-text"),
    pytest.param(_alter_scalar, "digest mismatch", id="scalar"),
    pytest.param(_drop_digest, "digest missing", id="no-digest"),
]


def _standby(node=9, epoch=0):
    state = EpochState(node=node, epoch=epoch, role=ReplicaRole.STANDBY)
    return StandbyReplica(state, MemoryWAL(), MemorySnapshotStore())


class _Rig:
    """A primary WAL + shipper wired to in-memory standby replicas.

    ``send`` captures every payload; :meth:`deliver` hands the captured
    traffic to the replicas and routes acks back — with full control
    over which messages get lost.
    """

    def __init__(self, standbys=(9,), config=None, breakers=None):
        self.wal = MemoryWAL()
        self.snapshots = MemorySnapshotStore()
        self.epoch = EpochState(node=4, role=ReplicaRole.PRIMARY)
        self.replicas = {node: _standby(node) for node in standbys}
        self.outbox = []
        self.shipper = LogShipper(
            self.epoch,
            list(standbys),
            send=lambda standby, payload: self.outbox.append(
                (standby, payload)
            ),
            wal=self.wal,
            snapshots=self.snapshots,
            config=config,
            breakers=breakers,
        )

    def journal(self, count, start=0):
        """Append ``count`` records to the primary WAL and tap them."""
        for i in range(start, start + count):
            body = {"seq": i, "targets": [i + 1], "t": 0.0}
            lsn = self.wal.append(RecordKind.PUBLISH, dict(body))
            self.shipper.record(lsn, RecordKind.PUBLISH, dict(body))

    def tap(self, count, start=0, now=0.0):
        """Journal ``count`` records as a replica set's journal tap
        does: each one followed by the flush the record warrants."""
        group = SimpleNamespace(simulator=SimpleNamespace(now=now))
        for i in range(start, start + count):
            body = {"seq": i, "targets": [i + 1], "t": 0.0}
            lsn = self.wal.append(RecordKind.PUBLISH, dict(body))
            ReplicaSet._on_record(
                group, self.shipper, lsn, RecordKind.PUBLISH, dict(body)
            )

    def deliver(self, drop=()):
        """Process the outbox; payloads at indexes in ``drop`` are lost."""
        traffic, self.outbox = self.outbox, []
        for index, (standby, payload) in enumerate(traffic):
            if index in drop:
                continue
            reply = self.replicas[standby].receive(payload)
            if reply is not None and reply["type"] == "ack":
                self.shipper.ack(reply["node"], reply["applied"], 0.0)


class TestConfigValidation:
    def test_retain_must_cover_a_batch(self):
        with pytest.raises(ValueError):
            ShippingConfig(batch_ops=16, retain_ops=8)

    def test_positive_knobs(self):
        with pytest.raises(ValueError):
            ShippingConfig(batch_ops=0)
        with pytest.raises(ValueError):
            ShippingConfig(catchup_lag=0)
        with pytest.raises(ValueError):
            ShippingConfig(failure_after=0)


class TestIncrementalShipping:
    def test_shipped_wal_is_byte_identical(self):
        rig = _Rig()
        rig.journal(12)
        rig.shipper.flush(0.0)
        rig.deliver()
        assert rig.replicas[9].wal.copy_out() == rig.wal.copy_out()
        assert rig.shipper.lag(9) == 0

    def test_lost_batch_is_covered_by_the_next_flush(self):
        rig = _Rig()
        rig.journal(5)
        rig.shipper.flush(0.0)
        rig.deliver(drop={0})  # batch never arrives
        rig.journal(5, start=5)
        rig.shipper.flush(1.0)
        rig.deliver()
        assert rig.replicas[9].applied_index == 10
        assert rig.replicas[9].wal.copy_out() == rig.wal.copy_out()

    def test_duplicate_batch_applies_only_the_overlap(self):
        rig = _Rig()
        rig.journal(4)
        rig.shipper.flush(0.0)
        traffic = list(rig.outbox)
        rig.deliver()
        # Replay the identical batch (network duplication).
        for standby, payload in traffic:
            rig.replicas[standby].receive(payload)
        assert rig.replicas[9].applied_index == 4
        assert rig.replicas[9].wal.copy_out() == rig.wal.copy_out()

    def test_gap_batch_refused_and_acked_at_current_position(self):
        replica = _standby()
        reply = replica.receive_batch(epoch=0, start_index=7, ops=[])
        assert reply["type"] == "ack"
        assert reply["applied"] == 0
        assert replica.applied_index == 0

    def test_slowest_standby_gets_the_full_suffix(self):
        rig = _Rig(standbys=(9, 8))
        rig.journal(6)
        rig.shipper.flush(0.0)
        # 9's batch arrives, 8's is lost.
        rig.deliver(drop={1})
        assert rig.shipper.lag(9) == 0
        assert rig.shipper.lag(8) == 6
        rig.shipper.flush(1.0)
        rig.deliver()
        assert rig.replicas[8].wal.copy_out() == rig.wal.copy_out()

    def test_due_tracks_batch_threshold(self):
        rig = _Rig(config=ShippingConfig(batch_ops=4, retain_ops=16))
        rig.journal(3)
        assert not rig.shipper.due
        rig.journal(1, start=3)
        assert rig.shipper.due


class TestRecordFlush:
    """A journal record ships a standby a batch once ``batch_ops`` ops
    were appended since its last batch or ack; the tick flush resends
    what is still unacked."""

    def test_records_after_an_unacked_flush_wait_for_a_full_batch(self):
        rig = _Rig(config=ShippingConfig(batch_ops=4, retain_ops=16))
        rig.tap(4)
        assert len(rig.outbox) == 1
        rig.outbox.clear()  # the batch and its ack are still in flight
        rig.tap(3, start=4)
        assert rig.outbox == []
        rig.tap(1, start=7)
        # Still cumulative from the ack, not from the last batch.
        [(_, batch)] = rig.outbox
        assert batch["start_index"] == 0
        assert len(batch["ops"]) == 8

    def test_isolated_standby_does_not_reship_to_a_healthy_one(self):
        breakers = BreakerBoard(
            BreakerConfig(failure_threshold=1, reset_timeout=1000.0)
        )
        rig = _Rig(
            standbys=(9, 8),
            config=ShippingConfig(batch_ops=4, retain_ops=64),
            breakers=breakers,
        )
        breakers.record_failure(8, 0.0)
        rig.tap(4)
        assert [standby for standby, _ in rig.outbox] == [9]
        rig.deliver()
        rig.tap(3, start=4)
        assert rig.outbox == []
        assert rig.shipper.lag(8) == 7

    def test_lost_batch_is_resent_by_the_tick_flush(self):
        rig = _Rig(config=ShippingConfig(batch_ops=4, retain_ops=16))
        rig.tap(4)
        rig.deliver(drop={0})
        rig.tap(2, start=4)
        assert rig.outbox == []
        rig.shipper.flush(1.0)
        [(_, batch)] = rig.outbox
        assert batch["start_index"] == 0
        rig.deliver()
        assert rig.replicas[9].applied_index == 6
        assert rig.replicas[9].wal.copy_out() == rig.wal.copy_out()

    def test_tick_heartbeats_only_standbys_that_got_no_batch(self):
        wire = []
        lost = {9}

        def send(source, target, payload):
            wire.append((target, payload["type"]))
            if target not in lost:
                shard.deliver(target, payload, 0.0)

        broker = ShardBroker(0, home=0, ndim=2)
        shard = ReplicatedShard(
            broker, 0, [7, 9], SimpleNamespace(now=0.0), send=send
        )
        broker.register(Subscription(3, 100, Rectangle([0, 0], [1, 1])))
        shard.tick(0.0)
        assert shard.shipper.lag(7) == 0
        assert shard.shipper.lag(9) == 1
        wire.clear()
        lost.clear()
        shard.tick(1.0)
        # 9 gets its batch (which carries the epoch), 7 a heartbeat.
        assert sorted(wire) == [(0, "ack"), (7, "heartbeat"), (9, "batch")]


class TestExposedCounts:
    def test_counts_handed_to_a_restarted_shipper_are_exposed_once(self):
        telemetry = Telemetry()
        epoch = EpochState(node=4, role=ReplicaRole.PRIMARY)

        def shipper(stats=None):
            return LogShipper(
                epoch,
                [9],
                send=lambda standby, payload: None,
                wal=MemoryWAL(),
                snapshots=MemorySnapshotStore(),
                telemetry=telemetry,
                stats=stats,
            )

        first = shipper()
        first.record(1, RecordKind.PUBLISH, {"seq": 0})
        first.flush(0.0)
        restarted = shipper(stats=first.stats)
        restarted.record(1, RecordKind.PUBLISH, {"seq": 1})
        restarted.flush(1.0)
        assert restarted.stats.batches == 2
        assert telemetry.metrics.value("replication.batches") == 2

    def test_replication_messages_are_counted_by_type(self):
        telemetry = Telemetry()
        broker = ShardBroker(0, home=0, ndim=2)
        shard = ReplicatedShard(
            broker, 0, [7, 9], SimpleNamespace(now=0.0), telemetry=telemetry
        )
        broker.register(Subscription(3, 100, Rectangle([0, 0], [1, 1])))
        shard.tick(0.0)
        sent = vars(shard.stats.sent)
        assert sent["batch"] == sent["ack"] == 2
        assert sent == {
            kind: telemetry.metrics.value("replication.messages", type=kind)
            for kind in sent
        }


class TestCatchUp:
    def test_trimmed_laggard_falls_onto_anti_entropy(self):
        rig = _Rig(config=ShippingConfig(batch_ops=2, retain_ops=4))
        rig.journal(10)
        rig.shipper.flush(0.0)  # batch lost; flush trims to retain_ops
        rig.deliver(drop={0})
        rig.shipper.flush(1.0)  # ack (0) now below the buffer base
        assert rig.outbox[0][1]["type"] == "catchup"
        rig.deliver()
        assert rig.replicas[9].catchups_applied == 1
        assert rig.replicas[9].applied_index == 10
        assert rig.replicas[9].wal.copy_out() == rig.wal.copy_out()
        assert rig.shipper.stats.catchups == 1
        assert rig.shipper.stats.trimmed_ops > 0

    def test_excessive_lag_prefers_catchup_over_huge_batch(self):
        rig = _Rig(config=ShippingConfig(batch_ops=2, retain_ops=64,
                                         catchup_lag=8))
        rig.journal(20)
        rig.shipper.flush(0.0)
        assert rig.outbox[0][1]["type"] == "catchup"

    def test_stale_catchup_does_not_rewind(self):
        rig = _Rig()
        rig.journal(6)
        rig.shipper.flush(0.0)
        stale = rig.shipper.wal.copy_out()
        rig.deliver()
        # A delayed duplicate catch-up from before the acks.
        reply = rig.replicas[9].receive_catchup(
            epoch=0, start_index=2, base_lsn=stale[0], data=stale[1],
            snapshot_payload=None,
        )
        assert reply["applied"] == 6
        assert rig.replicas[9].applied_index == 6


    def test_catchup_snapshot_without_a_digest_is_not_installed(self):
        """A catch-up's snapshot is verified on arrival; one that
        carries no digest cannot be, and must not reach the store."""
        rig = _Rig()
        rig.journal(6)
        good = Snapshot(
            snapshot_id=0, checkpoint_lsn=0, table={"ndim": 2, "subscriptions": []}
        )
        rig.snapshots.save(good)
        rig.shipper.force_catchup(9, 0.0)
        payload = rig.outbox.pop()[1]
        assert payload["snapshot"]["digest"] == good.digest()
        texts = dict(payload["snapshot"]["texts"], checkpoint_lsn="9999")
        stripped = {"texts": texts}
        with pytest.raises(ValueError, match="digest missing"):
            rig.replicas[9].receive_catchup(
                payload["epoch"], payload["start_index"],
                payload["base_lsn"], payload["wal"], stripped,
            )
        assert rig.replicas[9].store.latest() is None
        # The same transfer as the primary sent it installs.
        rig.replicas[9].receive(payload)
        assert rig.replicas[9].store.latest() == good

    def test_refused_catchup_leaves_the_wal_alone(self):
        """The snapshot is verified before the shipped WAL replaces the
        standby's, so after a refusal ``applied_index`` still describes
        the standby's bytes and the next batch applies cleanly."""
        rig = _Rig()
        rig.journal(6)
        rig.shipper.flush(0.0)
        rig.deliver()
        replica = rig.replicas[9]
        before = replica.wal.copy_out()
        rig.snapshots.save(GOOD)
        rig.journal(4, start=6)
        rig.shipper.force_catchup(9, 1.0)
        payload = rig.outbox.pop()[1]
        tampered = {**payload, "snapshot": _alter_table(payload["snapshot"])}
        with pytest.raises(ValueError, match="digest mismatch"):
            replica.receive(tampered)
        assert replica.wal.copy_out() == before
        assert replica.applied_index == 6
        rig.shipper.flush(2.0)
        rig.deliver()
        assert replica.applied_index == 10
        assert replica.wal.copy_out() == rig.wal.copy_out()


class TestEpochHandling:
    def test_stale_epoch_batch_is_fenced(self):
        replica = _standby(epoch=2)
        reply = replica.receive_batch(epoch=1, start_index=0, ops=[])
        assert reply["type"] == "fence"
        assert reply["epoch"] == 2

    def test_newer_epoch_batch_requests_resync(self):
        # A takeover re-bases the op stream at index 0; an incremental
        # batch from the new primary cannot be applied against the old
        # stream's applied_index.
        replica = _standby(epoch=0)
        reply = replica.receive_batch(epoch=1, start_index=0, ops=[])
        assert reply["type"] == "resync"
        assert replica.epoch.epoch == 1  # adopted, but stream unbased

    def test_catchup_rebases_onto_the_new_stream(self):
        rig = _Rig()
        rig.journal(3)
        rig.shipper.flush(0.0)
        rig.deliver()
        replica = rig.replicas[9]
        assert replica.applied_index == 3
        # New primary at epoch 1 ships its whole WAL from stream 0.
        new_wal = MemoryWAL()
        lsns = [
            new_wal.append(RecordKind.PUBLISH, {"seq": i, "t": 0.0})
            for i in range(2)
        ]
        assert lsns
        base_lsn, data = new_wal.copy_out()
        reply = replica.receive_catchup(
            epoch=1, start_index=2, base_lsn=base_lsn, data=data,
            snapshot_payload=None,
        )
        assert reply["type"] == "ack"
        assert replica.stream_epoch == 1
        assert replica.applied_index == 2
        assert replica.wal.copy_out() == new_wal.copy_out()

    def test_diverged_replica_wal_is_loud(self):
        replica = _standby()
        replica.wal.append(RecordKind.PUBLISH, {"seq": 99, "t": 0.0})
        with pytest.raises(RuntimeError, match="diverged"):
            replica.receive_batch(
                epoch=0,
                start_index=0,
                ops=[("append", 0, int(RecordKind.PUBLISH), {"seq": 0})],
            )


class TestBackpressure:
    def test_no_progress_flushes_trip_the_breaker(self):
        breakers = BreakerBoard(
            BreakerConfig(failure_threshold=1, reset_timeout=1000.0)
        )
        rig = _Rig(
            config=ShippingConfig(batch_ops=1, retain_ops=8,
                                  failure_after=1),
            breakers=breakers,
        )
        rig.journal(2)
        rig.shipper.flush(0.0)  # sends, no ack ever comes back
        assert rig.shipper.stats.breaker_failures == 1
        assert 9 in breakers.open_targets()
        rig.shipper.flush(1.0)  # breaker open: skipped entirely
        assert rig.shipper.stats.backpressure_skips == 1

    def test_ack_progress_resets_the_failure_streak(self):
        breakers = BreakerBoard(
            BreakerConfig(failure_threshold=2, reset_timeout=1000.0)
        )
        rig = _Rig(
            config=ShippingConfig(batch_ops=1, retain_ops=8,
                                  failure_after=2),
            breakers=breakers,
        )
        rig.journal(1)
        rig.shipper.flush(0.0)
        rig.deliver()  # ack lands: progress
        assert rig.shipper.stats.breaker_failures == 0
        assert not breakers.open_targets()


@pytest.fixture(scope="module")
def sharded_broker():
    broker, _ = build_chaos_testbed(seed=19, subscriptions=120, num_groups=9)
    return broker


class TestTamperedSnapshots:
    """A shipped snapshot that does not verify is refused on every path
    that receives one, and reaches neither the store nor the WAL."""

    @pytest.mark.parametrize("tamper, refusal", TAMPERINGS)
    def test_batch_op(self, tamper, refusal):
        rig = _Rig()
        rig.journal(2)
        cut = rig.wal.end_lsn
        rig.journal(2, start=2)
        rig.shipper.flush(0.0)
        rig.deliver()
        replica = rig.replicas[9]
        before = replica.wal.copy_out()
        rig.shipper.checkpoint(GOOD, truncate_lsn=cut)
        rig.shipper.flush(1.0)
        payload = rig.outbox.pop()[1]
        ops = [
            (op[0], tamper(op[1])) if op[0] == "snapshot" else op
            for op in payload["ops"]
        ]
        with pytest.raises(ValueError, match=refusal):
            replica.receive({**payload, "ops": ops})
        assert replica.store.latest() is None
        assert replica.wal.copy_out() == before  # the cut never ran
        assert replica.applied_index == 4
        replica.receive(payload)
        assert replica.store.latest() == GOOD
        assert replica.wal.base_lsn == cut

    @pytest.mark.parametrize("tamper, refusal", TAMPERINGS)
    def test_catchup(self, tamper, refusal):
        rig = _Rig()
        rig.journal(3)
        rig.snapshots.save(GOOD)
        rig.shipper.force_catchup(9, 0.0)
        payload = rig.outbox.pop()[1]
        replica = rig.replicas[9]
        tampered = {**payload, "snapshot": tamper(payload["snapshot"])}
        with pytest.raises(ValueError, match=refusal):
            replica.receive(tampered)
        assert replica.store.latest() is None
        assert replica.wal.end_lsn == 0
        assert replica.catchups_applied == 0
        replica.receive(payload)
        assert replica.store.latest() == GOOD
        assert replica.wal.copy_out() == rig.wal.copy_out()

    @pytest.mark.parametrize("tamper, refusal", TAMPERINGS)
    def test_migration_handoff(
        self, sharded_broker, monkeypatch, tamper, refusal
    ):
        router = ShardRouter(
            sharded_broker, ShardMap.plan(sharded_broker.partition, 4)
        )
        rebalancer = Rebalancer(router)
        q = router.map.subsets_of(0)[0]
        held = router.shards[1].subscription_ids
        shipped = Snapshot.shipped
        monkeypatch.setattr(
            Snapshot, "shipped", lambda self: tamper(shipped(self))
        )
        with pytest.raises(ValueError, match=refusal):
            rebalancer.begin(q, 1)
        assert router.shards[1].subscription_ids == held
        assert rebalancer.wal.end_lsn == 0
        monkeypatch.undo()
        ticket = rebalancer.begin(q, 1)
        assert ticket.moved_ids
        assert set(ticket.moved_ids) <= set(router.shards[1].subscription_ids)
        assert len(rebalancer.wal.scan().records) == 1
