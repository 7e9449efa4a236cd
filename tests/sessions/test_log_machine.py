"""Generated-schedule oracle for the retained event log.

A Hypothesis state machine drives a :class:`RetainedEventLog` — over a
:class:`MemoryWAL` and over a :class:`FileWAL` — through generated
schedules of appends, seek reads, retention passes under a count-only,
an age-only or a count + age policy with an advancing injected clock,
torn tails followed by ``recover``, and reopens, against a model that
is a plain list of ``(lsn, end_lsn, sequence, time)`` rows:

- ``read(from_lsn, max_events)`` is the model's slice, whatever the
  log remembers from earlier reads;
- ``retained()``, ``head`` and ``base`` agree with the model;
- a retention pass cuts exactly where the policy's bounds nominate,
  never above the cursor low-water mark, and the record *at* the
  low-water LSN survives it.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.event import Event
from repro.durability import FileWAL, MemoryWAL
from repro.sessions import RetainedEventLog, RetentionPolicy

_pick = st.integers(0, 2**16)
#: What every rule appends before it does its own thing, as the clock
#: advance before each event — so the schedules in which Hypothesis
#: switched the plain ``append`` rule off still have a log to work on.
_grow = st.lists(st.floats(0.0, 3.0), max_size=5)
_policies = st.one_of(
    st.builds(RetentionPolicy, max_events=st.integers(1, 4)),
    st.builds(RetentionPolicy, max_age=st.floats(0.5, 8.0)),
    st.builds(
        RetentionPolicy,
        max_events=st.integers(1, 4),
        max_age=st.floats(0.5, 8.0),
    ),
)


class LogMachine(RuleBasedStateMachine):
    backend = None  # set by the two subclasses below

    def __init__(self):
        super().__init__()
        self.directory = (
            Path(tempfile.mkdtemp()) if self.backend == "file" else None
        )
        self.memory_wal = MemoryWAL()
        self.now = 0.0
        #: The model: one ``(lsn, end_lsn, sequence, time)`` per retained
        #: event, oldest first, and the LSN below which nothing is kept.
        self.rows = []
        self.base = 0
        self.next_sequence = 0

    def teardown(self):
        if self.directory is not None:
            shutil.rmtree(self.directory)

    def _open(self):
        # A fresh handle on the same file, or the same buffer again:
        # either way nothing but the stored bytes carries over.
        wal = (
            FileWAL(self.directory / "retained.wal")
            if self.backend == "file"
            else self.memory_wal
        )
        self.log = RetainedEventLog(
            wal=wal, clock=lambda: self.now, policy=self.policy
        )

    @initialize(policy=_policies)
    def open_with_a_policy(self, policy):
        self.policy = policy
        self._open()

    @property
    def head(self):
        return self.rows[-1][1] if self.rows else self.base

    def _positions(self):
        """Every LSN a cursor can hold: each retained record, the head."""
        return [row[0] for row in self.rows] + [self.head]

    # -- rules ---------------------------------------------------------------

    def _append(self, grow):
        for dt in grow:
            self.now += dt
            event = Event.create(
                self.next_sequence, publisher=7, coords=(0.25, self.now)
            )
            lsn = self.log.append(event)
            assert lsn == self.head
            self.rows.append((lsn, self.log.head, event.sequence, self.now))
            self.next_sequence += 1

    @rule(grow=_grow)
    def append(self, grow):
        self._append(grow)

    @rule(
        grow=_grow,
        pick=_pick,
        where=st.sampled_from(["position", "below", "past"]),
        max_events=st.one_of(st.none(), st.integers(1, 5)),
    )
    def read(self, grow, pick, where, max_events):
        self._append(grow)
        positions = self._positions()
        from_lsn = {
            "position": positions[pick % len(positions)],
            "below": self.base - 1 - pick % 7,
            "past": self.head + 1 + pick % 7,
        }[where]
        expected = [row for row in self.rows if row[0] >= from_lsn]
        got = self.log.read(from_lsn, max_events=max_events)
        assert [
            (e.lsn, e.end_lsn, e.sequence, e.time) for e in got
        ] == expected[:max_events]

    @rule(
        grow=_grow, pick=_pick, cursors=st.booleans(), dt=st.floats(0.0, 6.0)
    )
    def enforce_retention(self, grow, pick, cursors, dt):
        self._append(grow)
        self.now += dt
        positions = self._positions()
        low_water = positions[pick % len(positions)] if cursors else None
        cut = self.base
        if (
            self.policy.max_events is not None
            and len(self.rows) > self.policy.max_events
        ):
            cut = self.rows[len(self.rows) - self.policy.max_events][0]
        if self.policy.max_age is not None:
            for _, end_lsn, _, time in self.rows:
                if time >= self.now - self.policy.max_age:
                    break
                cut = max(cut, end_lsn)
        if low_water is not None:
            cut = min(cut, low_water)
        assert self.log.retention_cut(self.now, low_water) == cut
        assert self.log.enforce_retention(self.now, low_water) == (
            cut - self.base
        )
        self.rows = [row for row in self.rows if row[0] >= cut]
        self.base = cut
        if low_water is not None:
            assert self.log.base <= low_water
            at_low_water = self.log.read(low_water, max_events=1)
            assert [e.lsn for e in at_low_water] == [
                row[0] for row in self.rows if row[0] == low_water
            ]

    @rule(grow=_grow, nbytes=st.integers(1, 40))
    def tear_tail_and_recover(self, grow, nbytes):
        self._append(grow)
        torn = self.log.wal.tear_tail(nbytes)
        assert torn == min(nbytes, self.head - self.base)
        stored_end = self.head - torn
        self.rows = [row for row in self.rows if row[1] <= stored_end]
        # Recovery drops what is left of the record the tear ran into.
        assert self.log.recover() == stored_end - self.head
        assert self.log.recover() == 0

    @rule(grow=_grow)
    def reopen(self, grow):
        self._append(grow)
        self._open()

    # -- what must hold after every step -------------------------------------

    @invariant()
    def the_log_holds_the_model(self):
        assert self.log.base == self.base
        assert self.log.head == self.head
        assert self.log.retained() == len(self.rows)
        assert [
            (e.lsn, e.end_lsn, e.sequence, e.time)
            for e in self.log.read(self.log.base)
        ] == self.rows


class MemoryLogMachine(LogMachine):
    backend = "memory"


class FileLogMachine(LogMachine):
    backend = "file"


_SETTINGS = settings(
    max_examples=25, stateful_step_count=25, derandomize=True, deadline=None
)
TestMemoryLogMachine = MemoryLogMachine.TestCase
TestMemoryLogMachine.settings = _SETTINGS
TestFileLogMachine = FileLogMachine.TestCase
TestFileLogMachine.settings = _SETTINGS
