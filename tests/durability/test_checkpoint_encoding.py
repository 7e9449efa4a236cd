"""How much JSON a checkpoint encodes — a count, not a stopwatch.

A checkpoint used to encode the whole durable state twice (once for the
digest, once for the file) whether or not anything had changed: ~290 000
characters at 1000 subscriptions.  It now encodes what changed since the
last one: the table's new rows, the partition only when a group grew,
and always the scalars.  A standby verifies a shipped snapshot over the
table text that arrived and parses that text at most once.  The guards
count the characters every ``JSONEncoder.encode`` call returns and the
texts every ``JSONDecoder.decode`` call is handed, from here (nothing in
``src/`` counts), so they read the same on any machine.  A restore
builds a grid whose cells nothing reads; its guard counts the
``GridCell`` objects made.
"""

from __future__ import annotations

import json
import json.decoder
import json.encoder

import pytest

from repro.clustering.grid import GridCell
from repro.core.subscription import Subscription
from repro.durability import (
    BrokerJournal,
    FileSnapshotStore,
    MemorySnapshotStore,
    MemoryWAL,
    recover,
    restore_broker,
)
from repro.faults.verifier import build_chaos_testbed
from repro.replication import (
    EpochState,
    LogShipper,
    ReplicaRole,
    StandbyReplica,
)
from repro.sharding.router import ShardBroker
from repro.workload import StockSubscriptionGenerator

#: What is left to encode when neither the table nor the partition
#: changed: the scalars, the tombstones and the digest (~235 characters
#: on this testbed).
UNCHANGED_BUDGET = 300


@pytest.fixture
def encoded(monkeypatch):
    """A one-element list: characters JSON-encoded since it was zeroed."""
    total = [0]
    encode = json.encoder.JSONEncoder.encode

    def counting(self, value):
        text = encode(self, value)
        total[0] += len(text)
        return text

    monkeypatch.setattr(json.encoder.JSONEncoder, "encode", counting)
    return total


@pytest.fixture
def decoded(monkeypatch):
    """A list of every text JSON-decoded since it was cleared."""
    texts = []
    decode = json.decoder.JSONDecoder.decode

    def recording(self, text, *args, **kwargs):
        texts.append(text)
        return decode(self, text, *args, **kwargs)

    monkeypatch.setattr(json.decoder.JSONDecoder, "decode", recording)
    return texts


@pytest.fixture(scope="module")
def churn_broker():
    broker, _ = build_chaos_testbed(
        seed=2003, subscriptions=1000, dynamic=True
    )
    return broker


def test_unchanged_and_grown_checkpoints(churn_broker, encoded, tmp_path):
    broker = churn_broker
    journal = BrokerJournal(broker, MemoryWAL(), FileSnapshotStore(tmp_path))
    journal.checkpoint()  # whatever the first one costs

    for _ in range(10):
        encoded[0] = 0
        journal.checkpoint()
        assert encoded[0] <= UNCHANGED_BUDGET

    before = journal.store.latest()
    arrivals = StockSubscriptionGenerator(broker.topology, seed=41)
    for _ in range(5):
        placed = arrivals.generate_one(len(broker.table))
        broker.subscribe(placed.node, placed.rectangle)
    encoded[0] = 0
    journal.checkpoint()
    spent = encoded[0]
    # What was written is the whole table; what was encoded is its tail.
    # These five widen no group, so the partition is not encoded again.
    latest = journal.store.latest()
    rows = latest.table["subscriptions"]
    assert len(rows) == len(broker.table) == 1005
    assert latest.partition == before.partition
    entry = max(len(json.dumps(row)) for row in rows[-5:])
    assert spent <= 5 * entry + UNCHANGED_BUDGET


def test_a_reshipped_snapshot_is_encoded_once(churn_broker, encoded):
    """Three catch-ups carry the same snapshot; the sender digests it
    when it is taken and answers from memory afterwards."""
    sent = []
    wal, snapshots = MemoryWAL(), MemorySnapshotStore()
    shipper = LogShipper(
        EpochState(node=4, role=ReplicaRole.PRIMARY),
        [9],
        send=lambda standby, payload: sent.append(payload),
        wal=wal,
        snapshots=snapshots,
    )
    journal = BrokerJournal(churn_broker, wal, snapshots)
    journal.on_record = shipper.record
    journal.on_checkpoint = shipper.checkpoint

    encoded[0] = 0
    snapshot = journal.checkpoint()
    spent = encoded[0]
    body = len(json.dumps(snapshot.to_dict()))
    assert body > 100_000
    assert spent <= body + UNCHANGED_BUDGET

    encoded[0] = 0
    for _ in range(3):
        shipper.force_catchup(9, 0.0)
    assert encoded[0] <= 1_000
    assert [p["snapshot"]["digest"] for p in sent] == [snapshot.digest()] * 3
    # One shipped form, built once and shared: its table is the text the
    # broker's encoder already held.
    assert all(p["snapshot"] is snapshot.shipped() for p in sent)
    assert snapshot.shipped()["texts"]["table"] is snapshot.texts["table"]


def test_a_standby_verifies_an_unchanged_snapshot_without_encoding_it(
    churn_broker, encoded, decoded
):
    """Three catch-ups carry one shard's unchanged snapshot (a shard has
    no partition: what every cluster standby is sent).  The standby
    hashes the table text that arrived, parses it on the first install
    and takes the parse it holds on the next two."""
    shard = ShardBroker(0, 0, churn_broker.table.ndim)
    for gid, entry in enumerate(churn_broker.table):
        shard.register(Subscription(gid, entry.subscriber, entry.rectangle))
    sent = []
    wal, snapshots = MemoryWAL(), MemorySnapshotStore()
    shipper = LogShipper(
        EpochState(node=4, role=ReplicaRole.PRIMARY),
        [9],
        send=lambda standby, payload: sent.append(payload),
        wal=wal,
        snapshots=snapshots,
    )
    snapshot = BrokerJournal(shard, wal, snapshots).checkpoint()
    assert len(snapshot.texts["table"]) > 100_000
    for _ in range(3):
        shipper.force_catchup(9, 0.0)
    standby = StandbyReplica(
        EpochState(node=9, role=ReplicaRole.STANDBY),
        MemoryWAL(),
        MemorySnapshotStore(),
    )

    encoded[0] = 0
    decoded.clear()
    installed = []
    for payload in sent:
        assert standby.receive(payload)["type"] == "ack"
        installed.append(standby.store.latest())
    assert encoded[0] <= 1_000
    assert decoded.count(snapshot.texts["table"]) == 1
    assert sum(map(len, decoded)) <= len(snapshot.texts["table"]) + 1_000
    assert installed == [snapshot] * 3
    assert installed[0].table is installed[2].table


def test_a_restore_makes_no_grid_cell(monkeypatch):
    """``restore_broker`` rebuilds the grid under a restored partition,
    and widens it by a replayed tail, without reading its cells: not
    one ``GridCell`` is made until something asks for them."""
    broker, _ = build_chaos_testbed(
        seed=2003, subscriptions=1000, dynamic=True
    )
    journal = BrokerJournal(broker, MemoryWAL(), MemorySnapshotStore())
    broker.attach_journal(journal)
    journal.checkpoint()
    arrivals = StockSubscriptionGenerator(broker.topology, seed=41)
    for _ in range(5):
        placed = arrivals.generate_one(len(broker.table))
        broker.subscribe(placed.node, placed.rectangle)
    state = recover(journal.wal, journal.store)
    assert state.subscriptions_replayed == 5

    made = [0]
    init = GridCell.__init__

    def counting(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(GridCell, "__init__", counting)
    restore_broker(broker, state)
    assert made[0] == 0
    # The cells are all there when read, and only then made.
    assert len(broker.partition.grid.cells) == made[0] > 9_000
