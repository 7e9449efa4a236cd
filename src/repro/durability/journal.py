"""The broker-side WAL writer: journal first, mutate second.

:class:`BrokerJournal` sits between a broker and its durable storage.
Call sites log each mutation *before* it takes effect (write-ahead),
so a crash between the append and the in-memory update loses nothing
that matters: recovery replays the record and converges on the state
the mutation would have produced.

Checkpointing is automatic: every ``checkpoint_every`` appends, the
journal serializes the broker's durable state (table + tombstones +
partition assignment) into a :class:`~repro.durability.snapshot.
Snapshot` and truncates the WAL prefix.  Truncation respects the
**in-flight low-water mark** — the smallest LSN of any PUBLISH intent
whose deliveries are not all acked — so recovery can always
reconstruct the unfinished deliveries, no matter how recent the last
checkpoint was.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Set

from ..geometry.rectangle import Rectangle
from ..io import encode_bound
from ..telemetry.base import Telemetry, or_null
from .recovery import ReplayResult
from .snapshot import Snapshot, SnapshotStore
from .wal import RecordKind, WriteAheadLog

__all__ = ["BrokerJournal"]


class BrokerJournal:
    """Write-ahead journaling + periodic checkpoints for one broker —
    anything whose ``durable_state()`` returns the ``table`` /
    ``removed`` / ``partition`` (/ ``sessions``) a snapshot stores, and
    (as ``texts``) the canonical text of those it already holds."""

    def __init__(
        self,
        broker,
        wal: WriteAheadLog,
        store: SnapshotStore,
        checkpoint_every: int = 256,
        telemetry: Optional[Telemetry] = None,
    ):
        if checkpoint_every < 1:
            raise ValueError(
                f"{type(self).__name__}: checkpoint_every must be >= 1 "
                f"(got {checkpoint_every})"
            )
        self.broker = broker
        self.wal = wal
        self.store = store
        self.checkpoint_every = checkpoint_every
        self.telemetry = or_null(telemetry)
        #: sequence → LSN of its PUBLISH intent (the low-water candidates).
        self._intent_lsn: Dict[int, int] = {}
        #: sequence → targets still awaiting a DELIVER completion.
        self._intent_targets: Dict[int, Set[int]] = {}
        self._appends_since_checkpoint = 0
        self._next_snapshot_id = max(self.store.ids(), default=-1) + 1
        self.checkpoints = 0
        self.telemetry.expose(
            "wal.checkpoints", self, "checkpoints", help="checkpoints taken"
        )
        #: Replication taps.  ``on_record(lsn, kind, body)`` fires after
        #: every append with the *exact* body stored (clock stamp
        #: included), so a log shipper can reproduce the record
        #: byte-for-byte on a standby.  ``on_checkpoint(snapshot,
        #: truncate_lsn)`` fires after the matching CHECKPOINT record's
        #: ``on_record``, carrying the snapshot and the prefix cut.
        self.on_record: Optional[
            Callable[[int, RecordKind, Dict], None]
        ] = None
        self.on_checkpoint: Optional[Callable[[Snapshot, int], None]] = None

    # -- record writers ------------------------------------------------------

    def _append(self, kind: RecordKind, body: Dict) -> int:
        # Stamp the clock here, in the writer's own dict, not in the
        # WAL, so ``on_record`` gets the stored body verbatim — a
        # standby re-appending it produces byte-identical records.
        if "t" not in body:
            body["t"] = float(self.wal.clock())
        lsn = self.wal.append(kind, body)
        if self.telemetry.enabled:
            self.telemetry.counter(
                "wal.appends",
                help="WAL records appended",
                kind=kind.name.lower(),
            ).inc()
        self._appends_since_checkpoint += 1
        if self.on_record is not None:
            self.on_record(lsn, kind, body)
        return lsn

    def _log_entry(
        self, sid: int, subscriber: int, rectangle: Rectangle
    ) -> int:
        return self._append(
            RecordKind.SUBSCRIBE,
            {
                "sid": int(sid),
                "subscriber": int(subscriber),
                "lows": [encode_bound(x) for x in rectangle.lows],
                "highs": [encode_bound(x) for x in rectangle.highs],
            },
        )

    def log_subscribe(self, subscription) -> int:
        """Journal a subscription add (call before the engine mutates)."""
        s = subscription
        return self._log_entry(s.subscription_id, s.subscriber, s.rectangle)

    def log_unsubscribe(self, subscription_id: int) -> int:
        """Journal a subscription removal (tombstone)."""
        body = {"sid": int(subscription_id)}
        return self._append(RecordKind.UNSUBSCRIBE, body)

    def log_publish(
        self,
        sequence: int,
        publisher: int,
        targets: Iterable[int],
        method: str = "",
        group: int = 0,
    ) -> int:
        """Journal a publish intent with its full recipient set.

        The intent's LSN becomes a truncation low-water candidate until
        every target's completion is journaled via :meth:`log_delivery`.
        """
        seq, target_set = int(sequence), {int(t) for t in targets}
        lsn = self._append(
            RecordKind.PUBLISH,
            {
                "seq": seq,
                "publisher": int(publisher),
                "targets": sorted(target_set),
                "method": method,
                "group": int(group),
            },
        )
        if target_set:
            self._intent_lsn[seq] = lsn
            self._intent_targets[seq] = target_set
        return lsn

    def log_session(self, body: Dict) -> int:
        """Journal a subscriber-session lifecycle change.

        ``body`` is the session layer's own encoding (see
        :mod:`repro.sessions.session`); the journal only guarantees it
        ships to standbys byte-identically and replays on recovery.
        """
        return self._append(RecordKind.SESSION, dict(body))

    def log_cursor(self, session_id: str, cursor: int) -> int:
        """Journal one session's delivery-cursor advance (on ack)."""
        body = {"id": str(session_id), "cursor": int(cursor)}
        return self._append(RecordKind.CURSOR, body)

    def log_delivery(self, sequence: int, target: int) -> int:
        """Journal one target's acked delivery; retires finished intents."""
        seq, target = int(sequence), int(target)
        lsn = self._append(RecordKind.DELIVER, {"seq": seq, "target": target})
        remaining = self._intent_targets.get(seq)
        if remaining is not None:
            remaining.discard(target)
            if not remaining:
                del self._intent_targets[seq]
                del self._intent_lsn[seq]
        self.maybe_checkpoint()
        return lsn

    # -- checkpointing -------------------------------------------------------

    def low_water_mark(self, checkpoint_lsn: int) -> int:
        """The highest LSN the WAL prefix may be truncated at."""
        return min([*self._intent_lsn.values(), checkpoint_lsn])

    def maybe_checkpoint(self) -> bool:
        """Checkpoint if enough records accumulated since the last one."""
        if self._appends_since_checkpoint >= self.checkpoint_every:
            self.checkpoint()
            return True
        return False

    def checkpoint(self) -> Snapshot:
        """Snapshot the broker's durable state and truncate the WAL.

        The snapshot's ``checkpoint_lsn`` is the WAL end at capture
        time: every SUBSCRIBE/UNSUBSCRIBE below it is inside the
        snapshot, so recovery skips them.  The physical truncation
        point is the in-flight low-water mark, which may lag the
        checkpoint LSN while deliveries are outstanding.
        """
        checkpoint_lsn = self.wal.end_lsn
        state = self.broker.durable_state()
        snapshot = Snapshot(
            snapshot_id=self._next_snapshot_id,
            checkpoint_lsn=checkpoint_lsn,
            table=state["table"],
            removed=state["removed"],
            partition=state["partition"],
            taken_at=self.wal.clock(),
            sessions=state.get("sessions"),
            texts=state.get("texts", {}),
        )
        self.store.save(snapshot)
        self._next_snapshot_id += 1
        self._append(
            RecordKind.CHECKPOINT,
            {"snapshot_id": snapshot.snapshot_id, "lsn": checkpoint_lsn},
        )
        truncate_lsn = self.low_water_mark(checkpoint_lsn)
        self.wal.truncate_prefix(truncate_lsn)
        self._appends_since_checkpoint = 0
        self.checkpoints += 1
        if self.on_checkpoint is not None:
            self.on_checkpoint(snapshot, truncate_lsn)
        return snapshot

    # -- recovery hand-off ---------------------------------------------------

    def rearm(self, state: ReplayResult) -> None:
        """Resume journaling after recovery.

        Reseeds the in-flight tracking from what recovery found (their
        original intent LSNs keep holding the truncation low-water
        mark) and realigns the snapshot-id counter with the store.

        If the repaired log ends below the newest snapshot's checkpoint
        LSN, anything appended there would be skipped by the next
        replay as already snapshotted, so the broker — just restored to
        exactly snapshot + replay — is checkpointed at the new end
        before the first append.
        """
        inflight = state.inflight.items()
        self._intent_lsn = {seq: entry.lsn for seq, entry in inflight}
        self._intent_targets = {seq: set(e.targets) for seq, e in inflight}
        self._appends_since_checkpoint = 0
        self._next_snapshot_id = max(self.store.ids(), default=-1) + 1
        if self.wal.end_lsn < state.checkpoint_lsn:
            self.checkpoint()

    @property
    def inflight_sequences(self) -> Set[int]:
        """Sequences with at least one unacked delivery (diagnostics)."""
        return set(self._intent_targets)
