"""The retained event log: LSN reads, retention bounds, torn tails."""

from __future__ import annotations

import struct
import zlib

import pytest

from repro.core.event import Event
from repro.durability import FileWAL, MemoryWAL, RecordKind
from repro.sessions import RetainedEventLog, RetentionPolicy


def ev(sequence, point=(0.25, 0.75), deadline=None):
    return Event.create(sequence, publisher=99, coords=point, deadline=deadline)


class Clock:
    def __init__(self, now=0.0):
        self.now = float(now)

    def __call__(self):
        return self.now


class TestAppendRead:
    def test_round_trip_preserves_event_fields(self):
        clock = Clock(3.5)
        log = RetainedEventLog(clock=clock)
        lsn = log.append(ev(7, point=(0.1, 0.9), deadline=12.0))
        (retained,) = log.read(log.base)
        assert retained.lsn == lsn
        assert retained.end_lsn == log.head
        assert retained.sequence == 7
        assert retained.publisher == 99
        assert retained.point == (0.1, 0.9)
        assert retained.time == 3.5
        assert retained.deadline == 12.0

    def test_missing_deadline_decodes_to_none(self):
        log = RetainedEventLog(clock=Clock())
        log.append(ev(0))
        assert log.read(log.base)[0].deadline is None

    def test_read_seeks_and_bounds(self):
        log = RetainedEventLog(clock=Clock())
        lsns = [log.append(ev(i)) for i in range(5)]
        # From an interior LSN: that record and everything after.
        assert [e.sequence for e in log.read(lsns[2])] == [2, 3, 4]
        # max_events truncates the batch, not the log.
        assert [e.sequence for e in log.read(lsns[0], max_events=2)] == [0, 1]
        # At the head: the gap is closed.
        assert log.read(log.head) == []

    def test_non_event_records_are_skipped(self):
        wal = MemoryWAL(clock=Clock())
        log = RetainedEventLog(wal=wal)
        log.append(ev(0))
        wal.append(RecordKind.CURSOR, {"id": "sess-1", "cursor": 0})
        log.append(ev(1))
        assert [e.sequence for e in log.read(log.base)] == [0, 1]
        assert log.retained() == 2

    def test_every_end_lsn_reads_the_next_event(self):
        # A replay cursor is an ``end_lsn``: it must name the next
        # record's first byte even when a record's stored JSON is not
        # the canonical encoding (here: default separators, as another
        # writer could leave) — ``end_lsn`` is where the record ended
        # in storage, not the length of its body re-encoded.
        wal = MemoryWAL(clock=Clock(2.0))
        log = RetainedEventLog(wal=wal)
        log.append(ev(0))
        payload = bytes([int(RecordKind.EVENT)]) + (
            b'{"seq": 1, "publisher": 99, "point": [0.25, 0.75], "t": 2.0}'
        )
        wal._append_bytes(
            struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        )
        log.append(ev(2))
        log.append(ev(3))
        events = log.read(log.base)
        assert [e.sequence for e in events] == [0, 1, 2, 3]
        for event, following in zip(events, events[1:]):
            assert log.read(event.end_lsn, max_events=1) == [following]
        assert events[-1].end_lsn == log.head
        assert log.read(events[-1].end_lsn, max_events=1) == []

    def test_file_backed_log_survives_reopen(self, tmp_path):
        path = tmp_path / "retained.wal"
        log = RetainedEventLog(wal=FileWAL(path, clock=Clock(1.0)))
        lsns = [log.append(ev(i)) for i in range(3)]
        reopened = RetainedEventLog(wal=FileWAL(path, clock=Clock(2.0)))
        assert [e.lsn for e in reopened.read(reopened.base)] == lsns


class TestRetention:
    def test_count_bound_keeps_newest(self):
        clock = Clock()
        log = RetainedEventLog(
            clock=clock, policy=RetentionPolicy(max_events=2)
        )
        for i in range(5):
            log.append(ev(i))
        head_before = log.head
        dropped = log.enforce_retention(clock.now)
        assert dropped > 0
        assert log.retained() == 2
        assert [e.sequence for e in log.read(log.base)] == [3, 4]
        # Truncation moves the base, never the head: LSNs are stable.
        assert log.head == head_before

    def test_age_bound_drops_stale_events(self):
        clock = Clock(0.0)
        log = RetainedEventLog(
            clock=clock, policy=RetentionPolicy(max_age=10.0)
        )
        log.append(ev(0))
        clock.now = 5.0
        log.append(ev(1))
        clock.now = 14.0  # event 0 is 14 old, event 1 is 9 old
        log.enforce_retention(clock.now)
        assert [e.sequence for e in log.read(log.base)] == [1]

    def test_low_water_caps_every_bound(self):
        clock = Clock()
        log = RetainedEventLog(
            clock=clock, policy=RetentionPolicy(max_events=1)
        )
        lsns = [log.append(ev(i)) for i in range(4)]
        log.enforce_retention(clock.now, cursor_low_water=lsns[1])
        # The count bound wanted to keep only event 3; the cursor at
        # lsns[1] wins, and the record *at* the low-water LSN survives.
        assert [e.sequence for e in log.read(log.base)] == [1, 2, 3]
        assert log.base == lsns[1]

    def test_truncate_at_exact_low_water_keeps_that_record(self):
        clock = Clock()
        log = RetainedEventLog(
            clock=clock, policy=RetentionPolicy(max_events=1)
        )
        lsns = [log.append(ev(i)) for i in range(3)]
        log.enforce_retention(clock.now, cursor_low_water=lsns[2])
        (survivor,) = log.read(log.base)
        assert survivor.lsn == lsns[2]
        assert survivor.sequence == 2

    def test_low_water_below_base_is_a_noop(self):
        clock = Clock()
        log = RetainedEventLog(
            clock=clock, policy=RetentionPolicy(max_events=1)
        )
        for i in range(3):
            log.append(ev(i))
        log.enforce_retention(clock.now)
        base = log.base
        # A stale (already-truncated-past) cursor cannot un-truncate.
        assert log.enforce_retention(clock.now, cursor_low_water=0) == 0
        assert log.base == base

    def test_unbounded_policy_never_truncates(self):
        clock = Clock()
        log = RetainedEventLog(clock=clock)
        for i in range(10):
            log.append(ev(i))
        assert log.enforce_retention(clock.now) == 0
        assert log.retained() == 10

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_events must be >= 1"):
            RetentionPolicy(max_events=0)
        with pytest.raises(ValueError, match="max_age must be positive"):
            RetentionPolicy(max_age=0.0)


class TestRecovery:
    def test_torn_tail_is_repaired_not_served(self):
        wal = MemoryWAL(clock=Clock())
        log = RetainedEventLog(wal=wal)
        for i in range(3):
            log.append(ev(i))
        wal.tear_tail(5)
        removed = log.recover()
        assert removed > 0
        assert [e.sequence for e in log.read(log.base)] == [0, 1]
        # The repaired log accepts appends again.
        log.append(ev(9))
        assert [e.sequence for e in log.read(log.base)] == [0, 1, 9]

    def test_recover_on_clean_log_is_free(self):
        log = RetainedEventLog(clock=Clock())
        log.append(ev(0))
        assert log.recover() == 0
        assert log.retained() == 1
