"""The retained event log: LSN-addressable publish history per broker.

Durable subscriber sessions need the home broker to remember what it
published: a session that reconnects after a crash replays the gap
``[cursor, head)`` from somewhere, and that somewhere is this log — a
:class:`~repro.durability.wal.WriteAheadLog` of ``EVENT`` records, one
per published event, reusing the durability layer's framing, CRC
protection, LSN arithmetic and torn-tail repair wholesale.

Retention is the interesting part.  The log is bounded two ways —
by count (keep at most ``max_events``), by age (drop events older
than ``max_age``) — but both bounds yield to the **cursor low-water
mark**: the smallest delivery cursor over all durable sessions.  No
retention pass may drop a record a live cursor still points at, so
:meth:`RetainedEventLog.enforce_retention` truncates at
``min(max(count_cut, age_cut), low_water)`` — and truncating at *exactly*
the low-water LSN keeps that record, because an LSN names a record's
first byte and :meth:`~repro.durability.wal.WriteAheadLog.
truncate_prefix` drops only the bytes strictly below it.  A session
that detaches holds retention hostage only until its lease expires
and demotes it to ephemeral (see :mod:`repro.sessions.session`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..durability.wal import MemoryWAL, RecordKind, WalRecord, WriteAheadLog
from ..telemetry.base import Telemetry, or_null

__all__ = ["RetainedEvent", "RetentionPolicy", "RetainedEventLog"]


@dataclass(frozen=True)
class RetainedEvent:
    """One decoded EVENT record: the event plus where it sits."""

    lsn: int
    #: LSN of the byte just past this record (the next read position).
    end_lsn: int
    sequence: int
    publisher: int
    point: Tuple[float, ...]
    #: Simulated time the event was retained (the record's clock stamp).
    time: float
    deadline: Optional[float] = None


@dataclass(frozen=True)
class RetentionPolicy:
    """Bounds on the retained log (both optional, low-water always wins)."""

    #: Keep at most this many events (oldest dropped first).
    max_events: Optional[int] = None
    #: Drop events retained more than this many time units ago.
    max_age: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_events is not None and self.max_events < 1:
            raise ValueError(
                f"RetentionPolicy: max_events must be >= 1 "
                f"(got {self.max_events})"
            )
        if self.max_age is not None and self.max_age <= 0:
            raise ValueError(
                f"RetentionPolicy: max_age must be positive "
                f"(got {self.max_age})"
            )


class RetainedEventLog:
    """Published events as an LSN-addressable, retention-bounded WAL."""

    def __init__(
        self,
        wal: Optional[WriteAheadLog] = None,
        clock: Optional[Callable[[], float]] = None,
        policy: Optional[RetentionPolicy] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.wal = wal if wal is not None else MemoryWAL(clock=clock)
        if clock is not None:
            self.wal.clock = clock
        self.policy = policy or RetentionPolicy()
        self.telemetry = or_null(telemetry)
        self.appended = 0
        self.truncated_bytes = 0
        self.telemetry.expose(
            "sessions.events_retained", self, "appended",
            help="published events appended to the retained log",
        )
        self.telemetry.expose(
            "sessions.retention_truncated_bytes", self, "truncated_bytes",
            help="retained-log bytes reclaimed by retention",
        )
        self.retention_passes = 0

    # -- writing -------------------------------------------------------------

    def append(self, event) -> int:
        """Retain one published event; returns its LSN."""
        body = {
            "seq": int(event.sequence),
            "publisher": int(event.publisher),
            "point": [float(x) for x in event.point],
        }
        if getattr(event, "deadline", None) is not None:
            body["deadline"] = float(event.deadline)
        lsn = self.wal.append(RecordKind.EVENT, body)
        self.appended += 1
        return lsn

    # -- reading -------------------------------------------------------------

    @property
    def head(self) -> int:
        """LSN one past the newest retained byte (the live frontier)."""
        return self.wal.end_lsn

    @property
    def base(self) -> int:
        """LSN of the oldest retained byte."""
        return self.wal.base_lsn

    def _decode(self, record: WalRecord) -> Optional[RetainedEvent]:
        if record.kind is not RecordKind.EVENT:
            return None
        body = record.body
        try:
            return RetainedEvent(
                lsn=record.lsn,
                end_lsn=record.end_lsn,
                sequence=int(body["seq"]),
                publisher=int(body["publisher"]),
                point=tuple(float(x) for x in body["point"]),
                time=float(body.get("t", 0.0)),
                deadline=(
                    float(body["deadline"])
                    if body.get("deadline") is not None
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError, OverflowError):
            return None

    def read(
        self, from_lsn: int, max_events: Optional[int] = None
    ) -> List[RetainedEvent]:
        """Retained events at or past ``from_lsn``, oldest first.

        ``from_lsn`` below the retained base reads from the physical
        start (retention guarantees no durable cursor ever falls below
        the base, so this only happens for already-settled positions);
        reading at the head returns ``[]``.  Non-EVENT or undecodable
        records (a missing key, a wrong type, an infinite ``seq``) are
        skipped, never raised on.  Only the records
        returned (and any skipped between them) are decoded.
        """
        out: List[RetainedEvent] = []
        for record in self.wal.records(from_lsn):
            event = self._decode(record)
            if event is None:
                continue
            out.append(event)
            if max_events is not None and len(out) >= max_events:
                break
        return out

    def retained(self) -> int:
        """How many events the log physically holds right now."""
        return sum(
            1
            for record in self.wal.records()
            if record.kind is RecordKind.EVENT
        )

    # -- recovery ------------------------------------------------------------

    def recover(self) -> int:
        """Repair a torn tail after a crash; returns bytes discarded.

        Same contract as the durability WAL: scan stops at the first
        damaged record and the physical tail past it is truncated, so
        replay never serves garbage.
        """
        removed = self.wal.repair()
        if removed and self.telemetry.enabled:
            self.telemetry.counter(
                "sessions.log_truncated_bytes",
                help="torn/corrupt retained-log bytes discarded on recovery",
            ).inc(removed)
        return removed

    # -- retention -----------------------------------------------------------

    def retention_cut(
        self, now: float, cursor_low_water: Optional[int] = None
    ) -> int:
        """The LSN the next retention pass would truncate at.

        The count/age bounds each nominate a cut; the cursor low-water
        mark caps both.  The record *at* the returned LSN survives.
        The count bound is read off the WAL's index; the age bound
        decodes only the prefix old enough to drop.
        """
        cut = self.base
        if self.policy.max_events is not None:
            lsns = self.wal.lsns()
            if len(lsns) > self.policy.max_events:
                cut = lsns[len(lsns) - self.policy.max_events]
        if self.policy.max_age is not None:
            horizon = now - self.policy.max_age
            for record in self.wal.records(self.base):
                if float(record.body.get("t", 0.0)) >= horizon:
                    break
                cut = max(cut, record.end_lsn)
        if cursor_low_water is not None:
            cut = min(cut, int(cursor_low_water))
        return max(cut, self.base)

    def enforce_retention(
        self, now: float, cursor_low_water: Optional[int] = None
    ) -> int:
        """Truncate the prefix the policy allows; returns bytes dropped."""
        cut = self.retention_cut(now, cursor_low_water)
        dropped = self.wal.truncate_prefix(cut)
        self.truncated_bytes += dropped
        self.retention_passes += 1
        return dropped
