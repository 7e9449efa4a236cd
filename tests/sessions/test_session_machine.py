"""Generated-schedule oracle for the session table over a retained log.

A Hypothesis state machine drives a :class:`SessionManager` and the
:class:`RetainedEventLog` it charges (over a :class:`MemoryWAL`)
through generated schedules of registrations, publishes with generated
match sets, acks, dead-letter discards, detaches, resumes, lease
expiry on an advancing clock and retention passes at the manager's own
``low_water()``.  The model is a table of open (event, session)
obligations — their LSNs — and a ledger of closed ones:

- every obligation a publish opens closes exactly once, as
  ``delivered`` (an ack), ``deadlettered`` (a discard) or ``expired``
  (its session's lease ran out), and the manager's outstanding sets
  are the model's open ones;
- a cursor never passes the LSN of an obligation still open, never
  moves backwards while the session is durable, and never passes the
  log's head;
- retention never cuts above ``low_water()``, so every open
  obligation's event still reads back from the log.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.event import Event
from repro.core.matching import MatchResult
from repro.durability import MemoryWAL
from repro.sessions import (
    RetainedEventLog,
    RetentionPolicy,
    SessionManager,
    SessionState,
)

#: Subscription ids live in a small universe so match sets overlap.
_SIDS = st.frozensets(st.integers(0, 7), max_size=4)
_pick = st.integers(0, 2**16)
_subscribed = st.frozensets(st.integers(0, 7), min_size=1, max_size=4)
_leases = st.floats(1.0, 8.0)
#: What every rule publishes before it does its own thing, so the
#: schedules in which Hypothesis switched ``publish`` off still carry
#: obligations to settle, expire and retain.
_grow = st.lists(_SIDS, max_size=3)


class SessionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.log = RetainedEventLog(
            wal=MemoryWAL(),
            clock=lambda: self.now,
            policy=RetentionPolicy(max_events=2),
        )
        self.manager = SessionManager(
            self.log, clock=lambda: self.now, default_lease=5.0
        )
        self.next_sequence = 0
        #: session id -> {sequence: lsn} of obligations still open.
        self.open = {}
        #: (sequence, session id) -> terminal bucket.
        self.closed = {}
        #: session id -> the cursor seen after the previous step.
        self.cursors = {}

    # -- helpers -------------------------------------------------------------

    def _publish(self, grow):
        for matched in grow:
            sequence = self.next_sequence
            self.next_sequence += 1
            self.now += 0.5
            event = Event.create(sequence, publisher=3, coords=(0.5, 0.5))
            match = MatchResult(
                subscription_ids=tuple(sorted(matched)), subscribers=()
            )
            lsn, charged, live = self.manager.on_publish(event, match)
            expected = [
                session
                for session in self.manager.sessions.values()
                if session.durable and session.subscription_ids & matched
            ]
            assert charged == expected
            assert live == [
                s for s in expected if s.state is SessionState.LIVE
            ]
            for session in charged:
                self.open[session.session_id][sequence] = lsn

    def _obligation(self, pick):
        """One open ``(session id, sequence)``, or None when none is."""
        pairs = sorted(
            (sid, sequence)
            for sid, owed in self.open.items()
            for sequence in owed
        )
        return pairs[pick % len(pairs)] if pairs else None

    def _session(self, pick):
        ids = sorted(self.manager.sessions)
        return self.manager.sessions[ids[pick % len(ids)]] if ids else None

    def _close(self, sid, sequence, outcome):
        assert (sequence, sid) not in self.closed
        del self.open[sid][sequence]
        self.closed[(sequence, sid)] = outcome

    # -- rules ---------------------------------------------------------------

    def _register(self, sids, lease):
        sid = f"s{len(self.manager.sessions)}"
        session = self.manager.register(sid, 10 + len(self.open), sids, lease)
        assert session.cursor == self.log.head
        self.open[sid] = {}

    @initialize(
        sessions=st.lists(
            st.tuples(_subscribed, _leases), min_size=1, max_size=4
        )
    )
    def register_first(self, sessions):
        # Registration can be switched off like any rule; the schedule
        # still starts with sessions to charge.
        for sids, lease in sessions:
            self._register(sids, lease)

    @rule(grow=_grow, sids=_subscribed, lease=_leases)
    def register(self, grow, sids, lease):
        self._publish(grow)
        self._register(sids, lease)

    @rule(grow=_grow)
    def publish(self, grow):
        self._publish(grow)

    @rule(grow=_grow, pick=_pick, discard=st.booleans())
    def settle(self, grow, pick, discard):
        self._publish(grow)
        pair = self._obligation(pick)
        if pair is None:
            return
        sid, sequence = pair
        settle = self.manager.discard if discard else self.manager.ack
        assert settle(sid, sequence)
        self._close(sid, sequence, "deadlettered" if discard else "delivered")
        # A second settlement of the same obligation is a no-op.
        assert not self.manager.ack(sid, sequence)
        assert not self.manager.discard(sid, sequence)

    @rule(grow=_grow, pick=_pick)
    def settle_unknown(self, grow, pick):
        """An ack for something never charged (or long settled)."""
        self._publish(grow)
        session = self._session(pick)
        if session is None:
            return
        sequence = pick % (self.next_sequence + 2)
        if sequence in self.open[session.session_id]:
            return
        assert not self.manager.ack(session.session_id, sequence)

    @rule(grow=_grow, pick=_pick)
    def detach(self, grow, pick):
        self._publish(grow)
        session = self._session(pick)
        if session is not None:
            self.manager.detach(session.session_id)
            assert session.state is SessionState.DETACHED
            assert session.detached_at is not None

    @rule(grow=_grow, pick=_pick)
    def resume(self, grow, pick):
        self._publish(grow)
        session = self._session(pick)
        if session is not None and session.state is SessionState.DETACHED:
            self.manager.resume(session.session_id)
            assert session.state is SessionState.CATCHING_UP
            assert session.replay_pos == session.cursor

    @rule(grow=_grow, dt=st.floats(0.0, 6.0))
    def expire_leases(self, grow, dt):
        self._publish(grow)
        self.now += dt
        due = sorted(
            session.session_id
            for session in self.manager.sessions.values()
            if session.durable
            and session.state is SessionState.DETACHED
            and self.now >= session.detached_at + session.lease
        )
        demoted = self.manager.expire_leases(self.now)
        assert sorted(s.session_id for s, _ in demoted) == due
        for session, sequences in demoted:
            sid = session.session_id
            assert sequences == sorted(self.open[sid])
            for sequence in sequences:
                self._close(sid, sequence, "expired")
            assert not session.durable
            assert session.cursor == self.log.head

    @rule(grow=_grow)
    def enforce_retention(self, grow):
        self._publish(grow)
        low_water = self.manager.low_water()
        before = self.log.base
        dropped = self.log.enforce_retention(self.now, low_water)
        assert self.log.base == before + dropped
        if low_water is not None:
            assert self.log.base <= low_water

    # -- what must hold after every step -------------------------------------

    @invariant()
    def the_manager_owes_what_the_model_owes(self):
        for sid, owed in self.open.items():
            session = self.manager.sessions[sid]
            assert dict(session.outstanding) == {
                lsn: sequence for sequence, lsn in owed.items()
            }
            for sequence in owed:
                assert session.is_outstanding(sequence)
                assert (sequence, sid) not in self.closed
            if not session.durable:
                assert not owed

    @invariant()
    def no_cursor_passes_an_unacked_lsn(self):
        for sid, owed in self.open.items():
            session = self.manager.sessions[sid]
            assert session.cursor <= self.log.head
            if owed:
                assert session.cursor <= min(owed.values())
            previous = self.cursors.get(sid)
            if session.durable and previous is not None:
                assert session.cursor >= previous
            self.cursors[sid] = session.cursor

    @invariant()
    def retention_keeps_every_open_event(self):
        low_water = self.manager.low_water()
        if low_water is not None:
            assert self.log.base <= low_water
        for owed in self.open.values():
            for sequence, lsn in owed.items():
                assert lsn >= self.log.base
                (retained,) = self.log.read(lsn, max_events=1)
                assert (retained.lsn, retained.sequence) == (lsn, sequence)


_SETTINGS = settings(
    max_examples=40, stateful_step_count=30, derandomize=True, deadline=None
)
TestSessionMachine = SessionMachine.TestCase
TestSessionMachine.settings = _SETTINGS
