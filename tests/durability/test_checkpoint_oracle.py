"""Checkpoints of a churning broker against the whole-payload encode.

Generated sequences of subscribes (arrivals that widen a group, and a
live row subscribed again, which widens none), unsubscribes,
re-preprocesses, checkpoints and ``recover`` + ``restore_broker`` run on
a real journaled broker.  Every checkpoint's file bytes, ``to_dict()``,
digest and shipped form must equal the encode of the broker's state
from scratch that ``test_snapshot_bytes.py`` keeps as the reference —
whatever the broker remembers between checkpoints, it never remembers
wrongly.  After every step, the partition's kept durable state and
text must equal a ``to_state()`` and its canonical text recomputed from
scratch.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import (
    BrokerJournal,
    FileSnapshotStore,
    MemoryWAL,
    Snapshot,
    recover,
    restore_broker,
)
from repro.faults.verifier import build_chaos_testbed
from repro.workload import StockSubscriptionGenerator

from tests.durability.test_snapshot_bytes import (
    assert_checkpoint_from_scratch,
    ref_canonical,
    ref_digest,
    ref_file,
)


def assert_kept_partition(broker):
    """The partition's kept state and text are a from-scratch encode."""
    state, text = broker.partition.durable_state()
    fresh = broker.partition.to_state()
    assert state == fresh and state is not fresh
    assert text == ref_canonical(fresh)


class Churn:
    """A 60-subscription dynamic broker journaled to ``directory``."""

    def __init__(self, directory, seed=2003):
        self.broker, _ = build_chaos_testbed(
            seed=seed, subscriptions=60, num_groups=5, dynamic=True
        )
        self.journal = BrokerJournal(
            self.broker, MemoryWAL(), FileSnapshotStore(directory)
        )
        self.broker.attach_journal(self.journal)
        self.arrivals = StockSubscriptionGenerator(
            self.broker.topology, seed=seed + 77
        )
        self.grew = []  # one bool a subscribe: did a group widen?

    def live(self):
        return [
            sid
            for sid in range(len(self.broker.table))
            if sid not in self.broker.engine.removed
        ]

    def _subscribe(self, subscriber, rectangle):
        before = [group.members for group in self.broker.partition.groups]
        self.broker.subscribe(subscriber, rectangle)
        after = [group.members for group in self.broker.partition.groups]
        self.grew.append(after != before)

    def subscribe(self, _pick):
        placed = self.arrivals.generate_one(len(self.broker.table))
        self._subscribe(placed.node, placed.rectangle)

    def again(self, pick):
        """A live row's subscriber and rectangle once more: every group
        it meets already holds that subscriber."""
        row = self.broker.table[self.live()[pick % len(self.live())]]
        self._subscribe(row.subscriber, row.rectangle)
        assert not self.grew[-1]

    def unsubscribe(self, pick):
        live = self.live()
        if len(live) > 1:
            self.broker.unsubscribe(live[pick % len(live)])

    def repreprocess(self, _pick):
        self.broker.repreprocess()

    def restore(self, _pick):
        state = recover(self.journal.wal, self.journal.store)
        assert state.corruption is None and state.skipped == 0
        table = [(s.subscriber, s.rectangle) for s in self.broker.table]
        restore_broker(self.broker, state)
        self.journal.rearm(state)
        assert [(s.subscriber, s.rectangle) for s in state.table] == table

    def checkpoint(self, _pick=0) -> Snapshot:
        snapshot = assert_checkpoint_from_scratch(self.journal)
        assert ref_canonical(snapshot.to_dict()) == ref_file(snapshot)
        arrived = Snapshot.from_shipped(snapshot.shipped())
        assert arrived == snapshot
        assert arrived.digest() == snapshot.digest() == ref_digest(snapshot)
        return snapshot


steps = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "subscribe",
                "subscribe",
                "again",
                "unsubscribe",
                "checkpoint",
                "checkpoint",
                "restore",
                "repreprocess",
            ]
        ),
        st.integers(0, 2**16),
    ),
    max_size=24,
)


@settings(deadline=None)
@given(steps=steps, seed=st.integers(2003, 2010))
def test_every_checkpoint_equals_the_whole_payload_encode(steps, seed):
    with tempfile.TemporaryDirectory() as directory:
        churn = Churn(directory, seed)
        churn.checkpoint()
        for name, pick in steps:
            getattr(churn, name)(pick)
            assert_kept_partition(churn.broker)
        churn.checkpoint()


def test_widening_and_plain_subscribes_around_a_restore(tmp_path):
    """A fixed walk through the cases: checkpoints of an unchanged
    broker, subscribes that widen a group and ones that do not, a
    restore with widening subscribes in the replayed tail, then more."""
    churn = Churn(tmp_path)
    first = churn.checkpoint()
    assert churn.checkpoint().partition == first.partition
    for pick in range(4):
        churn.subscribe(pick)
        churn.again(pick)
    churn.unsubscribe(7)
    churn.checkpoint()
    churn.checkpoint()
    for pick in range(3):
        churn.subscribe(pick)
    churn.restore(0)
    assert_kept_partition(churn.broker)
    churn.checkpoint()
    for pick in range(4):
        churn.subscribe(pick)
        churn.checkpoint()
    # Compaction renumbers the ids; the log after it must still replay.
    churn.repreprocess(0)
    churn.subscribe(0)
    churn.restore(0)
    churn.checkpoint()
    churn.again(3)
    assert_kept_partition(churn.broker)
    last = churn.checkpoint()
    assert True in churn.grew and False in churn.grew
    assert last.partition != first.partition
