"""How much JSON a checkpoint encodes — a count, not a stopwatch.

A checkpoint used to encode the whole durable state twice (once for the
digest, once for the file) whether or not anything had changed: ~290 000
characters at 1000 subscriptions.  It now encodes what changed since the
last one.  The guard counts the characters every ``JSONEncoder.encode``
call returns, from here (nothing in ``src/`` counts), so it reads the
same on any machine.
"""

from __future__ import annotations

import json
import json.encoder

import pytest

from repro.durability import (
    BrokerJournal,
    FileSnapshotStore,
    MemorySnapshotStore,
    MemoryWAL,
)
from repro.faults.verifier import build_chaos_testbed
from repro.replication import EpochState, LogShipper, ReplicaRole
from repro.workload import StockSubscriptionGenerator

#: What is left to encode when the table did not change: the partition
#: (~7 300 characters on this testbed) and a handful of scalars.
UNCHANGED_BUDGET = 20_000


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

    arrivals = StockSubscriptionGenerator(broker.topology, seed=41)
    for _ in range(5):
        placed = arrivals.generate_one(len(broker.table))
        broker.subscribe(placed.node, placed.rectangle)
    encoded[0] = 0
    journal.checkpoint()
    spent = encoded[0]
    # What was written is the whole table; what was encoded is its tail.
    rows = journal.store.latest().table["subscriptions"]
    assert len(rows) == len(broker.table) == 1005
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
    assert all(p["snapshot"] == snapshot.to_dict() for p in sent)
