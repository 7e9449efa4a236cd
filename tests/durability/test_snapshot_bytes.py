"""The snapshot's bytes, against a test-local copy of how they were made.

``Snapshot.digest``, ``Snapshot.to_dict`` and the file
``FileSnapshotStore.save`` writes are compared **byte for byte** with the
three lines they replaced (one canonical ``json.dumps`` of the whole
payload, BLAKE2b-16 over the body without its digest), kept here as the
reference.  The generated half covers what a snapshot may hold; the
incremental half drives real brokers between checkpoints and compares
every file with a from-scratch encode of the broker's state at that
moment — the table encoders under ``durable_state`` remember what they
encoded, and this is what says they never remember wrongly.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SubscriptionTable
from repro.core.subscription import Subscription
from repro.durability import (
    BrokerJournal,
    FileSnapshotStore,
    MemorySnapshotStore,
    MemoryWAL,
    Snapshot,
    recover,
    restore_broker,
)
from repro.faults.verifier import build_chaos_testbed
from repro.geometry.rectangle import Rectangle
from repro.io import canonical_json, table_to_dict
from repro.sharding.router import ShardBroker
from repro.workload import StockSubscriptionGenerator

# -- the reference: the parent commit's encoding, verbatim --------------------


def ref_canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def ref_body(snapshot: Snapshot) -> dict:
    body = {
        "snapshot_id": snapshot.snapshot_id,
        "checkpoint_lsn": snapshot.checkpoint_lsn,
        "table": snapshot.table,
        "removed": sorted(int(x) for x in snapshot.removed),
        "partition": snapshot.partition,
        "taken_at": float(snapshot.taken_at),
    }
    if snapshot.sessions:
        body["sessions"] = snapshot.sessions
    return body


def ref_digest(snapshot: Snapshot) -> str:
    body = ref_canonical(ref_body(snapshot))
    return hashlib.blake2b(body.encode("utf-8"), digest_size=16).hexdigest()


def ref_file(snapshot: Snapshot) -> str:
    payload = {"format_version": 1, **ref_body(snapshot)}
    payload["digest"] = ref_digest(snapshot)
    return ref_canonical(payload)


def ref_bound(value):
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return float(value)


def ref_table(table) -> dict:
    return {
        "ndim": table.ndim,
        "subscriptions": [
            {
                "subscriber": s.subscriber,
                "lows": [ref_bound(x) for x in s.rectangle.lows],
                "highs": [ref_bound(x) for x in s.rectangle.highs],
            }
            for s in table
        ],
    }


def ref_shard_table(entries) -> dict:
    return {
        "kind": "shard-entries",
        "entries": [
            [
                int(gid),
                int(subscriber),
                [ref_bound(x) for x in rectangle.lows],
                [ref_bound(x) for x in rectangle.highs],
            ]
            for gid, (subscriber, rectangle) in sorted(entries.items())
        ],
    }


def assert_bytes(snapshot: Snapshot, directory) -> None:
    """File, ``to_dict`` and ``digest`` equal the reference; the file
    round-trips."""
    store = FileSnapshotStore(directory)
    store.save(snapshot)
    written = store._path(snapshot.snapshot_id).read_bytes()
    assert written == ref_file(snapshot).encode("utf-8")
    assert snapshot.digest() == ref_digest(snapshot)
    assert ref_canonical(snapshot.to_dict()) == ref_file(snapshot)
    # The codec's shared encoder writes what a fresh ``json.dumps`` does.
    assert canonical_json(ref_body(snapshot)) == ref_canonical(
        ref_body(snapshot)
    )
    # What comes back is the snapshot as stored: tombstones sorted, an
    # empty session table absent.
    stored = replace(
        snapshot,
        removed=sorted(snapshot.removed),
        sessions=snapshot.sessions or None,
    )
    assert Snapshot.from_dict(json.loads(written)) == stored
    assert store.latest() == stored


# -- generated snapshots ------------------------------------------------------

bounds = st.one_of(
    st.floats(allow_nan=False),  # ±inf, -0.0, subnormals included
    st.sampled_from(
        [
            -0.0,
            5e-324,
            -2.2250738585072009e-308,
            0.1 + 0.2,
            1.7976931348623157e308,
            123456.78901234567,
            1e16,
            1e-7,
            math.inf,
            -math.inf,
        ]
    ),
)


@st.composite
def rectangles(draw, ndim):
    lows = draw(st.lists(bounds, min_size=ndim, max_size=ndim))
    highs = draw(st.lists(bounds, min_size=ndim, max_size=ndim))
    return Rectangle(tuple(lows), tuple(highs))


@st.composite
def dense_tables(draw):
    ndim = draw(st.integers(1, 4))
    table = SubscriptionTable(ndim)
    for _ in range(draw(st.integers(0, 6))):
        table.add(draw(st.integers(0, 500)), draw(rectangles(ndim)))
    return table_to_dict(table)


@st.composite
def shard_tables(draw):
    ndim = draw(st.integers(1, 4))
    shard = ShardBroker(0, 0, ndim)
    for gid in draw(st.sets(st.integers(0, 10_000), max_size=6)):
        shard.register(
            Subscription(gid, draw(st.integers(0, 500)), draw(rectangles(ndim)))
        )
    return shard.durable_state()["table"]


json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
partitions = st.one_of(
    st.none(),
    st.dictionaries(
        st.text(max_size=6),
        st.recursive(
            json_leaves,
            lambda inner: st.one_of(
                st.lists(inner, max_size=3),
                st.dictionaries(st.text(max_size=4), inner, max_size=3),
            ),
            max_leaves=8,
        ),
        max_size=4,
    ),
)
session_ids = st.one_of(
    st.text(min_size=1, max_size=8),
    st.sampled_from(["séance-7", "会话", "s x", 'q"uote\\', "😀"]),
)
sessions = st.one_of(
    st.none(),
    st.just({}),
    st.dictionaries(
        session_ids,
        st.fixed_dictionaries(
            {
                "subscriber": st.integers(0, 500),
                "sids": st.lists(st.integers(0, 99), max_size=3),
                "state": st.sampled_from(["live", "detached"]),
                "durable": st.booleans(),
                "cursor": st.integers(0, 10**6),
                "lease": st.floats(0, 1e6),
            }
        ),
        min_size=1,
        max_size=3,
    ),
)


@st.composite
def snapshots(draw):
    return Snapshot(
        snapshot_id=draw(st.integers(0, 10**6)),
        checkpoint_lsn=draw(st.integers(0, 2**40)),
        table=draw(st.one_of(dense_tables(), shard_tables())),
        removed=draw(st.lists(st.integers(0, 50), max_size=5)),  # unsorted
        partition=draw(partitions),
        taken_at=draw(st.floats(0, 1e9)),
        sessions=draw(sessions),
    )


class TestGeneratedSnapshots:
    @settings(max_examples=150, deadline=None)
    @given(snapshot=snapshots())
    def test_bytes_equal_the_reference(self, snapshot):
        with tempfile.TemporaryDirectory() as directory:
            assert_bytes(snapshot, directory)

    def test_empty_table_and_defaults(self, tmp_path):
        empty = Snapshot(
            snapshot_id=0,
            checkpoint_lsn=0,
            table=table_to_dict(SubscriptionTable(3)),
        )
        assert_bytes(empty, tmp_path)
        assert ref_file(empty).count('"subscriptions":[]') == 1

    def test_digest_asked_before_and_after_save(self, tmp_path):
        """Whatever is remembered between calls, every answer is the
        reference's."""
        table = SubscriptionTable(2)
        table.add(4, Rectangle((-math.inf, -0.0), (0.1 + 0.2, math.inf)))
        snapshot = Snapshot(
            snapshot_id=3,
            checkpoint_lsn=9,
            table=table_to_dict(table),
            removed=[5, 1, 3],
            partition={"k": [1, {"z": None, "a": 2.5}]},
            taken_at=4,  # an int on input, a float in the body
            sessions={"会话": {"cursor": 1}},
        )
        assert snapshot.digest() == ref_digest(snapshot)
        assert_bytes(snapshot, tmp_path)
        assert snapshot.digest() == ref_digest(snapshot)
        assert snapshot.to_dict()["digest"] == ref_digest(snapshot)


# -- incremental: real brokers between checkpoints -----------------------------


def churn_broker(subscriptions=60):
    broker, _ = build_chaos_testbed(
        seed=2003, subscriptions=subscriptions, num_groups=5, dynamic=True
    )
    return broker


def journaled(broker, directory):
    journal = BrokerJournal(broker, MemoryWAL(), FileSnapshotStore(directory))
    if hasattr(broker, "attach_journal"):
        broker.attach_journal(journal)
    return journal


def arrivals(broker, seed=77):
    generator = StockSubscriptionGenerator(broker.topology, seed=seed)
    while True:
        placed = generator.generate_one(len(broker.table))
        yield placed.node, placed.rectangle


def broker_state(broker):
    return (
        ref_table(broker.table),
        sorted(broker.engine.removed),
        broker.partition.to_state(),
    )


def shard_state(shard):
    return ref_shard_table(shard._entries), [], None


def assert_checkpoint_from_scratch(journal, state_of=broker_state) -> Snapshot:
    """Checkpoint, then compare the file with an encode of the broker's
    state that shares nothing with it."""
    snapshot = journal.checkpoint()
    table, removed, partition = state_of(journal.broker)
    fresh = Snapshot(
        snapshot_id=snapshot.snapshot_id,
        checkpoint_lsn=snapshot.checkpoint_lsn,
        table=table,
        removed=removed,
        partition=partition,
        taken_at=snapshot.taken_at,
    )
    assert snapshot == fresh
    written = journal.store._path(snapshot.snapshot_id).read_bytes()
    assert written == ref_file(fresh).encode("utf-8")
    assert snapshot.digest() == ref_digest(fresh)
    assert journal.store.latest() == fresh
    return snapshot


class TestIncrementalCheckpoints:
    def test_subscribes_between_checkpoints(self, tmp_path):
        broker = churn_broker()
        journal = journaled(broker, tmp_path)
        new = arrivals(broker)
        first = assert_checkpoint_from_scratch(journal)
        for k in (1, 3, 0, 7):
            for _ in range(k):
                broker.subscribe(*next(new))
            assert_checkpoint_from_scratch(journal)
        assert len(broker.table) == 60 + 11
        # Earlier snapshots are values: later growth does not reach them.
        assert len(first.table["subscriptions"]) == 60
        assert first.digest() == ref_digest(first)

    def test_unsubscribe_changes_removed_not_table(self, tmp_path):
        broker = churn_broker()
        journal = journaled(broker, tmp_path)
        before = assert_checkpoint_from_scratch(journal)
        broker.unsubscribe(17)
        broker.unsubscribe(3)
        after = assert_checkpoint_from_scratch(journal)
        assert after.table == before.table
        assert after.removed == [3, 17] and before.removed == []
        assert after.digest() != before.digest()

    def test_repreprocess_new_table_of_the_same_length(self, tmp_path):
        broker = churn_broker()
        journal = journaled(broker, tmp_path)
        new = arrivals(broker)
        assert_checkpoint_from_scratch(journal)
        # One out, one in, then compact: a *different* table object with
        # as many rows as the one already encoded, and other rows.
        broker.unsubscribe(0)
        broker.subscribe(*next(new))
        assert_checkpoint_from_scratch(journal)
        old = broker.table
        broker.repreprocess()
        assert broker.table is not old and len(broker.table) == 60
        assert broker.table[0].rectangle == old[1].rectangle
        assert_checkpoint_from_scratch(journal)
        broker.subscribe(*next(new))
        assert_checkpoint_from_scratch(journal)

    def test_restore_replaces_the_table_then_subscribe(self, tmp_path):
        broker = churn_broker()
        journal = journaled(broker, tmp_path)
        new = arrivals(broker)
        assert_checkpoint_from_scratch(journal)
        broker.subscribe(*next(new))
        broker.unsubscribe(5)
        old = broker.table
        state = recover(journal.wal, journal.store)
        restore_broker(broker, state)
        journal.rearm(state)
        assert broker.table is not old and len(broker.table) == len(old)
        assert_checkpoint_from_scratch(journal)
        broker.subscribe(*next(new))
        assert_checkpoint_from_scratch(journal)

    def test_shard_broker_after_withdraw_and_install(self, tmp_path):
        shard = ShardBroker(0, 0, 2)
        journal = journaled(shard, tmp_path)

        def rect(k):
            return Rectangle((float(k), -math.inf), (k + 0.5, math.inf))

        for gid in (9, 2, 40):
            shard.register(Subscription(gid, gid % 7, rect(gid)))
        assert_checkpoint_from_scratch(journal, shard_state)
        shard.withdraw([2])
        assert_checkpoint_from_scratch(journal, shard_state)
        # The same gid back with another rectangle, as a takeover does.
        shard.register(Subscription(2, 1, rect(200)))
        assert_checkpoint_from_scratch(journal, shard_state)
        shard.install({9: (3, rect(1)), 5: (4, rect(5))}, home=7)
        snapshot = assert_checkpoint_from_scratch(journal, shard_state)
        assert [row[0] for row in snapshot.table["entries"]] == [5, 9]
        shard.install({}, home=7)
        assert_checkpoint_from_scratch(journal, shard_state)


class TestPinnedDigests:
    """The 2003 chaos testbed's first snapshot, as the parent of the
    change that introduced this file digested it."""

    def first_digest(self, subscriptions):
        broker, _ = build_chaos_testbed(
            seed=2003, subscriptions=subscriptions, dynamic=True
        )
        journal = BrokerJournal(broker, MemoryWAL(), MemorySnapshotStore())
        return journal.checkpoint().digest()

    def test_300_subscriptions(self):
        assert self.first_digest(300) == "2708ca7fede6faed3303656739fc726f"

    def test_1000_subscriptions(self):
        assert self.first_digest(1000) == "c0026c9d0bae98fc5e7a458126ef12b6"
