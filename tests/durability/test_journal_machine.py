"""Generated-schedule oracle for the journal, the replay loop and the
replica set — once for a whole broker, once for a shard.

One Hypothesis state machine drives a journaled, synchronously
replicated broker through generated schedules of the operations the
chaos harnesses script by hand — add / remove an entry, journal a
publish intent, ack one of its targets, checkpoint, crash with a torn
or bit-flipped WAL tail and restart in place — and checks after every
step, against a model that is two plain dicts and a list:

- recovering from the primary's storage *and* from a standby's shipped
  copy yields exactly the model's entries and unacked targets;
- the WAL prefix is never cut above the oldest unfinished intent;
- every standby's physical WAL equals the primary's after a flush;
- recovery never raises, whatever the damage did to the tail.

The two kits differ only in what the issue says really differs: the
broker's dense positional table with tombstones (``BrokerJournal``,
``recover``, ``restore_broker``) versus the shard's sparse global-id
entry set (``ShardJournal``, ``recover_shard``, ``ShardBroker.
install``).

The generators reach two recovery defects this machine found, and so
are their regression tests: an intent may have *no* targets (the
journal does not track one, and replay used to report it in flight for
ever), and a crash's damage may reach anywhere in the retained log,
below the newest snapshot's checkpoint LSN too (the next recovery used
to skip what was appended under it as already snapshotted).
"""

from __future__ import annotations

import copy
import math
from functools import lru_cache
from types import SimpleNamespace

import hypothesis.strategies as st
from hypothesis import Phase, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster import ReplicatedShard, recover_shard
from repro.core import Subscription
from repro.durability import MemoryWAL, recover, restore_broker
from repro.faults.verifier import build_chaos_testbed
from repro.geometry import Rectangle
from repro.network import TransitStubParams
from repro.replication import ReplicaSet
from repro.sharding import ShardBroker

#: Small enough that auto-checkpoints fire inside a 20-step schedule.
CHECKPOINT_EVERY = 5


@lru_cache(maxsize=None)
def _broker_template():
    # Twelve nodes, twelve subscriptions: a restart re-derives the grid
    # and the partition, so the testbed is as small as preprocessing
    # allows (three transit nodes = one primary and two standbys).
    broker, _ = build_chaos_testbed(
        seed=11,
        subscriptions=12,
        num_groups=3,
        params=TransitStubParams(
            transit_blocks=1,
            transit_nodes_per_block=3,
            stubs_per_transit_node=1,
            nodes_per_stub=3,
            size_spread=0,
        ),
        dynamic=True,
    )
    return broker


class _BrokerKit:
    """``BrokerJournal`` on a ``DynamicPubSubBroker``, ``recover``."""

    recover = staticmethod(recover)
    #: A restart rebuilds the grid (~50 ms), so fewer, shorter runs —
    #: and no shrinking, which replays hundreds of them and would end
    #: in conftest's per-test alarm instead of the falsifying schedule
    #: (at most 20 steps, printed as found).
    run_settings = settings(
        max_examples=12,
        stateful_step_count=20,
        derandomize=True,
        deadline=None,
        phases=[Phase.generate],
    )

    def __init__(self):
        self.broker = copy.deepcopy(_broker_template())
        topology = self.broker.topology
        primary = topology.all_transit_nodes()[0]
        self.set = ReplicaSet(
            self.broker,
            primary,
            topology.replica_candidates(primary, 2),
            SimpleNamespace(now=0.0),
            checkpoint_every=CHECKPOINT_EVERY,
        )
        self.broker.attach_journal(self.set.journal)
        self.ndim = self.broker.table.ndim
        self.subscribers = topology.all_stub_nodes()

    def live(self):
        return _rows(
            (s.subscription_id, s.subscriber, s.rectangle)
            for s in self.broker.table
            if s.subscription_id not in self.broker.engine.removed
        )

    def add(self, subscriber, rectangle):
        return self.broker.subscribe(subscriber, rectangle).subscription_id

    def remove(self, sid):
        self.broker.unsubscribe(sid)

    def entries(self, state):
        return _rows(
            (sid, s.subscriber, s.rectangle)
            for sid, s in enumerate(state.table)
            if sid not in state.removed
        )

    def restore(self, state):
        restore_broker(self.broker, state)


class _ShardKit:
    """``ShardJournal`` on a ``ShardBroker``, ``recover_shard``."""

    recover = staticmethod(recover_shard)
    run_settings = settings(
        max_examples=40,
        stateful_step_count=40,
        derandomize=True,
        deadline=None,
    )

    def __init__(self):
        self.shard_broker = ShardBroker(0, home=0, ndim=2)
        self.set = ReplicatedShard(
            self.shard_broker,
            0,
            [7, 9],
            SimpleNamespace(now=0.0),
            checkpoint_every=CHECKPOINT_EVERY,
        )
        self.ndim = 2
        self.subscribers = list(range(100, 110))
        self._next_gid = 0

    def live(self):
        return {}

    def add(self, subscriber, rectangle):
        # Sparse on purpose: shard entries live in the global id space.
        self._next_gid += 3
        self.shard_broker.register(
            Subscription(self._next_gid, subscriber, rectangle)
        )
        return self._next_gid

    def remove(self, gid):
        self.shard_broker.withdraw([gid])

    def entries(self, state):
        return _rows(
            (gid, subscriber, rectangle)
            for gid, (subscriber, rectangle) in state.entries.items()
        )

    def restore(self, state):
        self.shard_broker.install(state.entries, self.shard_broker.home)


def _rows(triples):
    return {
        int(key): (int(subscriber), tuple(r.lows), tuple(r.highs))
        for key, subscriber, r in triples
    }


_bound = st.one_of(st.floats(0.0, 9.0), st.just(math.inf))
_pick = st.integers(0, 2**16)


class JournalMachine(RuleBasedStateMachine):
    kit_class = None  # set by the two subclasses below

    def __init__(self):
        super().__init__()
        self.kit = self.kit_class()
        self.set = self.kit.set
        self.wal = self.set.wals[self.set.primary]
        self.store = self.set.stores[self.set.primary]
        # Bootstrap, as every harness does: the state that predates the
        # journal becomes snapshot 0 on the primary and every standby.
        self.set.journal.checkpoint()
        #: The model.  ``ops`` is every journaled mutation with the LSN
        #: its record got; the two dicts are its fold on top of
        #: ``snapshot``, the entries the newest checkpoint captured and
        #: its checkpoint LSN.
        self.ops = []
        self.entries = self.kit.live()
        self.inflight = {}
        self.intent_lsn = {}
        self.snapshot = None
        self._note_checkpoint()
        self.next_sequence = 0

    # -- the model -----------------------------------------------------------

    def _apply(self, op):
        _, kind, *rest = op
        if kind == "add":
            key, row = rest
            self.entries[key] = row
        elif kind == "remove":
            self.entries.pop(rest[0], None)
        elif kind == "publish":
            sequence, targets = rest
            if targets:  # nobody owes an ack for an empty intent
                self.inflight[sequence] = set(targets)
                self.intent_lsn[sequence] = op[0]
        else:
            sequence, target = rest
            remaining = self.inflight.get(sequence)
            if remaining is not None:
                remaining.discard(target)
                if not remaining:
                    del self.inflight[sequence]
                    del self.intent_lsn[sequence]

    def _journaled(self, lsn, *op):
        self.ops.append((lsn, *op))
        self._apply(self.ops[-1])

    def _note_checkpoint(self):
        """Remember what a checkpoint taken since the last call holds."""
        latest = self.store.latest()
        if self.snapshot is None or latest.snapshot_id != self.snapshot[0]:
            self.snapshot = (
                latest.snapshot_id,
                dict(self.entries),
                latest.checkpoint_lsn,
            )

    def _forget_from(self, valid_end):
        """Roll the model back to the snapshot plus what was journaled
        before the damage — which may have reached below the snapshot:
        entries it captured survive, intents only in the log do not."""
        _, entries, checkpoint_lsn = self.snapshot
        self.ops = [op for op in self.ops if op[0] < valid_end]
        self.entries = dict(entries)
        self.inflight, self.intent_lsn = {}, {}
        for op in self.ops:
            entry_op = op[1] in ("add", "remove")
            if op[0] < (checkpoint_lsn if entry_op else self.wal.base_lsn):
                # In the snapshot's entries, or a finished intent the
                # prefix cut took (its lost acks do not revive it).
                continue
            self._apply(op)

    # -- rules ---------------------------------------------------------------

    @rule(
        who=_pick,
        lows=st.lists(st.floats(0.0, 9.0), min_size=4, max_size=4),
        highs=st.lists(_bound, min_size=1, max_size=1),
    )
    def add_entry(self, who, lows, highs):
        ndim = self.kit.ndim
        # Unbounded or wide in the first dimension only: the broker
        # kit's grid build walks every cell a rectangle covers.
        widths = [highs[0]] + [0.5] * (ndim - 1)
        rectangle = Rectangle(
            tuple(lows[:ndim]),
            tuple(lo + 0.5 + width for lo, width in zip(lows, widths)),
        )
        subscriber = self.kit.subscribers[who % len(self.kit.subscribers)]
        lsn = self.wal.end_lsn
        key = self.kit.add(subscriber, rectangle)
        self._journaled(
            lsn,
            "add",
            key,
            (subscriber, tuple(rectangle.lows), tuple(rectangle.highs)),
        )

    @precondition(lambda self: self.entries)
    @rule(pick=_pick)
    def remove_entry(self, pick):
        keys = sorted(self.entries)
        key = keys[pick % len(keys)]
        lsn = self.wal.end_lsn
        self.kit.remove(key)
        self._journaled(lsn, "remove", key)

    @rule(recipients=st.sets(st.integers(0, 5), max_size=3))
    def publish_intent(self, recipients):
        sequence = self.next_sequence
        self.next_sequence += 1
        lsn = self.set.journal.log_publish(sequence, 1, recipients)
        self._journaled(lsn, "publish", sequence, frozenset(recipients))

    @precondition(lambda self: self.inflight)
    @rule(pick=_pick)
    def ack_one_target(self, pick):
        sequences = sorted(self.inflight)
        sequence = sequences[pick % len(sequences)]
        targets = sorted(self.inflight[sequence])
        target = targets[pick % len(targets)]
        lsn = self.set.journal.log_delivery(sequence, target)
        self._journaled(lsn, "ack", sequence, target)
        self._note_checkpoint()  # log_delivery may have checkpointed

    @rule()
    def checkpoint(self):
        self.set.journal.checkpoint()
        self._note_checkpoint()

    @rule(
        damage=st.sampled_from(["none", "tear", "flip"]),
        reach=_pick,
        bit=st.integers(0, 7),
    )
    def crash_and_restart(self, damage, reach, bit):
        """The primary dies with a damaged log and restarts in place."""
        exposed = self.wal.end_lsn - self.wal.base_lsn
        if exposed > 0 and damage == "tear":
            self.wal.tear_tail(1 + reach % exposed)
        elif exposed > 0 and damage == "flip":
            assert self.wal.flip_bit(1 + reach % exposed, bit)
        state = self.kit.recover(self.wal, self.store)
        if damage == "none" or exposed <= 0:
            assert state.corruption is None
        assert state.valid_end == self.wal.end_lsn  # repaired in place
        self.kit.restore(state)
        # Standbys may hold the records the primary just lost; the
        # protocol's answer is anti-entropy from the survivor, before
        # the restarted primary appends (or checkpoints) again.
        for standby in self.set.shipper.standbys:
            self.set.shipper.force_catchup(standby, 0.0)
        self.set.journal.rearm(state)
        self._forget_from(state.valid_end)
        self._note_checkpoint()

    # -- what must hold after every step -------------------------------------

    def _recovered(self, node):
        """Recover from a *copy* of ``node``'s log and its own store."""
        scratch = MemoryWAL()
        scratch.copy_in(*self.set.wals[node].copy_out())
        return self.kit.recover(scratch, self.set.stores[node])

    @invariant()
    def recovery_equals_the_model(self):
        self.set.tick(0.0)  # heartbeat + flush, synchronously
        standby = self.set.shipper.standbys[0]
        for node in (self.set.primary, standby):
            state = self._recovered(node)
            assert state.corruption is None
            assert state.skipped == 0
            assert self.kit.entries(state) == self.entries
            assert {
                sequence: set(entry.targets)
                for sequence, entry in state.inflight.items()
            } == self.inflight
            assert {
                sequence: entry.lsn
                for sequence, entry in state.inflight.items()
            } == self.intent_lsn
        assert self._recovered(standby).digest() == (
            self._recovered(self.set.primary).digest()
        )

    @invariant()
    def unfinished_intents_stay_replayable(self):
        assert self.set.journal.inflight_sequences == set(self.inflight)
        if self.intent_lsn:
            assert self.wal.base_lsn <= min(self.intent_lsn.values())

    @invariant()
    def standby_wals_equal_the_primary(self):
        self.set.tick(0.0)
        primary = self.wal.copy_out()
        for standby in self.set.shipper.standbys:
            assert self.set.wals[standby].copy_out() == primary


class BrokerJournalMachine(JournalMachine):
    kit_class = _BrokerKit


class ShardJournalMachine(JournalMachine):
    kit_class = _ShardKit


TestBrokerJournalMachine = BrokerJournalMachine.TestCase
TestBrokerJournalMachine.settings = _BrokerKit.run_settings
TestShardJournalMachine = ShardJournalMachine.TestCase
TestShardJournalMachine.settings = _ShardKit.run_settings
