"""WAL log shipping: the primary's journal, replayed onto standbys.

The replication stream is a totally ordered sequence of **ops**, each
mirroring one thing the primary's :class:`~repro.durability.journal.
BrokerJournal` did to its storage:

- ``("append", lsn, kind, body)`` — one WAL record, body verbatim
  (clock stamp included), so the standby's ``wal.append`` reproduces
  the record *byte for byte*;
- ``("snapshot", shipped)`` — a checkpoint's snapshot in its
  :meth:`~repro.durability.snapshot.Snapshot.shipped` form;
- ``("truncate", lsn)`` — the matching WAL prefix cut.

Ops are indexed from 0 over the stream's lifetime.  The primary-side
:class:`LogShipper` buffers them and ships **cumulative batches**: each
batch carries every op past the standby's last acknowledged index.
Acks are cumulative too, so the protocol is trivially idempotent and
loss-tolerant — a lost batch or a lost ack just means a later batch
resends a suffix the standby has already applied, and the standby
skips the overlap.  No per-op acknowledgement, no windows, no
reordering logic: the discrete-event network may drop or delay, and
the stream still converges.  A journal record ships only standbys with
``batch_ops`` ops appended since their last batch or ack, so records
do not re-ship an unacked batch; the replica set's tick flush resends
every unacked suffix, and is the retransmission path.

When a standby falls so far behind that its unshipped suffix was
trimmed from the buffer (or its lag exceeds ``catchup_lag``), the
shipper switches to **anti-entropy**: it sends the primary's entire
physical WAL (:meth:`~repro.durability.wal.WriteAheadLog.copy_out`)
plus the newest snapshot, the standby installs both wholesale, and
incremental shipping resumes from there.  This is the replication
analogue of the paper's precomputation reuse — the standby receives
the *outputs* (snapshot = table + partition assignment) rather than
re-deriving them from subscription history.

Backpressure rides the overload subsystem's circuit breakers: a
standby whose breaker is open is skipped entirely (its lag keeps
growing; catch-up heals it later), and repeated flushes with no ack
progress trip the breaker — skipped flushes too, so a half-open
breaker whose probe batch was lost opens again and probes later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..durability.snapshot import Snapshot, SnapshotStore
from ..durability.wal import RecordKind, WriteAheadLog
from ..overload.breaker import BreakerBoard
from ..telemetry.base import Telemetry, or_null, tally
from .epoch import EpochState

__all__ = ["ShippingConfig", "ShippingStats", "LogShipper", "StandbyReplica"]

#: A JSON-ready dict: one replication message (self-describing via
#: ``payload["type"]``), or one WAL record body.
Payload = Dict[str, Any]
#: One op of the stream: ``(tag, ...)``, see the module docstring.
Op = Tuple[Any, ...]


@dataclass(frozen=True)
class ShippingConfig:
    """Knobs of the shipping protocol (times are simulated)."""

    #: A journal record ships a standby a batch once this many ops
    #: were appended since its last batch or ack, whichever is later.
    batch_ops: int = 16
    #: Keep at most this many ops buffered; trimming past a standby's
    #: ack forces that standby onto the catch-up path.
    retain_ops: int = 512
    #: A standby lagging more than this many ops gets a catch-up even
    #: if its suffix is still buffered (cheaper than a huge batch).
    catchup_lag: int = 256
    #: Consecutive no-progress flushes to one standby before its
    #: breaker records a failure.
    failure_after: int = 3

    def __post_init__(self) -> None:
        if self.batch_ops < 1:
            raise ValueError(
                f"ShippingConfig: batch_ops must be >= 1 "
                f"(got {self.batch_ops})"
            )
        if self.retain_ops < self.batch_ops:
            raise ValueError(
                f"ShippingConfig: retain_ops ({self.retain_ops}) must be "
                f">= batch_ops ({self.batch_ops})"
            )
        if self.catchup_lag < 1:
            raise ValueError(
                f"ShippingConfig: catchup_lag must be >= 1 "
                f"(got {self.catchup_lag})"
            )
        if self.failure_after < 1:
            raise ValueError(
                f"ShippingConfig: failure_after must be >= 1 "
                f"(got {self.failure_after})"
            )


@dataclass
class ShippingStats:
    """What the shipper did during one run, exposed as ``replication.*``."""

    batches: int = tally("log-shipping batches sent")
    ops_shipped: int = tally("ops shipped (incl. resends)")
    acks: int = tally("shipping acks received")
    catchups: int = tally("anti-entropy catch-up transfers")
    backpressure_skips: int = 0
    breaker_failures: int = 0
    trimmed_ops: int = 0

    def __iadd__(self, other: ShippingStats) -> ShippingStats:
        for name in vars(other):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self


class LogShipper:
    """Primary-side half of the shipping protocol.

    ``send(standby, payload)`` hands one message dict to the transport
    (the group wires it to the packet network); payloads carry the
    sender's epoch and are self-describing via ``payload["type"]``.
    """

    def __init__(
        self,
        epoch: EpochState,
        standbys: Sequence[int],
        send: Callable[[int, Payload], None],
        wal: WriteAheadLog,
        snapshots: SnapshotStore,
        config: Optional[ShippingConfig] = None,
        breakers: Optional[BreakerBoard] = None,
        telemetry: Optional[Telemetry] = None,
        stats: Optional[ShippingStats] = None,
    ):
        self.epoch = epoch
        self.standbys = [int(s) for s in standbys]
        self.send = send
        self.wal = wal
        self.snapshots = snapshots
        self.config = config or ShippingConfig()
        self.breakers = breakers
        self.telemetry = or_null(telemetry)
        self.stats = stats if stats is not None else ShippingStats()
        self.telemetry.expose_tallies("replication", self.stats)
        self._ops: List[Op] = []
        #: Stream index of ``_ops[0]``.
        self._base_index = 0
        #: node → highest cumulative op index acked.
        self.acked: Dict[int, int] = {s: 0 for s in self.standbys}
        #: node → stream head when its last batch or catch-up went out.
        self.sent: Dict[int, int] = {s: 0 for s in self.standbys}
        self._no_progress: Dict[int, int] = {s: 0 for s in self.standbys}

    # -- journal taps --------------------------------------------------------

    @property
    def next_index(self) -> int:
        """Stream index the next op will get (= total ops ever)."""
        return self._base_index + len(self._ops)

    def record(self, lsn: int, kind: RecordKind, body: Payload) -> None:
        """``BrokerJournal.on_record`` tap: buffer one append op."""
        self._ops.append(("append", int(lsn), int(kind), body))

    def checkpoint(self, snapshot: Snapshot, truncate_lsn: int) -> None:
        """``BrokerJournal.on_checkpoint`` tap: snapshot + prefix cut."""
        self._ops.append(("snapshot", snapshot.shipped()))
        self._ops.append(("truncate", int(truncate_lsn)))

    def lag(self, standby: int) -> int:
        """How many ops ``standby`` is behind the stream head."""
        return self.next_index - self.acked[int(standby)]

    def _due(self, standby: int) -> bool:
        """``batch_ops`` ops appended since the last batch or ack."""
        shipped = max(self.sent[standby], self.acked[standby])
        return self.next_index - shipped >= self.config.batch_ops

    @property
    def due(self) -> bool:
        """Whether buffered volume alone warrants a flush."""
        return any(self._due(s) for s in self.standbys)

    # -- the wire ------------------------------------------------------------

    def flush(self, now: float, due_only: bool = False) -> List[int]:
        """Ship standbys their unacked suffix; returns those sent to.

        Cumulative per standby: anything past the standby's ack goes
        out (again, if need be) — resends after loss are just flushes.
        Standbys with zero lag cost nothing; with ``due_only``, neither
        do those with fewer than ``batch_ops`` ops since their last
        batch or ack.
        """
        due = self._due if due_only else (lambda standby: True)
        sent = [s for s in self.standbys if due(s) and self._flush_one(s, now)]
        self._trim()
        return sent

    def _flush_one(self, standby: int, now: float) -> bool:
        acked = self.acked[standby]
        lag = self.next_index - acked
        if lag <= 0:
            return False
        if self.breakers is not None and not self.breakers.allow(
            standby, now
        ):
            self.stats.backpressure_skips += 1
            self._note_no_progress(standby, now)
            return False
        behind_buffer = acked < self._base_index
        if behind_buffer or lag > self.config.catchup_lag:
            self.force_catchup(standby, now)
        else:
            ops = self._ops[acked - self._base_index :]
            self.send(
                standby,
                {
                    "type": "batch",
                    "epoch": self.epoch.epoch,
                    "start_index": acked,
                    "ops": list(ops),
                },
            )
            self.stats.batches += 1
            self.stats.ops_shipped += len(ops)
        self.sent[standby] = self.next_index
        self._note_no_progress(standby, now)
        return True

    def force_catchup(self, standby: int, now: float) -> None:
        """Ship a full catch-up now (too far behind, or asked to resync)."""
        base_lsn, data = self.wal.copy_out()
        snapshot = self.snapshots.latest()
        self.send(
            standby,
            {
                "type": "catchup",
                "epoch": self.epoch.epoch,
                # After installing, the standby is current up to here.
                "start_index": self.next_index,
                "base_lsn": base_lsn,
                "wal": data,
                "snapshot": snapshot.shipped() if snapshot else None,
            },
        )
        self.stats.catchups += 1

    def _note_no_progress(self, standby: int, now: float) -> None:
        self._no_progress[standby] += 1
        if (
            self.breakers is not None
            and self._no_progress[standby] >= self.config.failure_after
        ):
            self.breakers.record_failure(standby, now)
            self.stats.breaker_failures += 1
            self._no_progress[standby] = 0

    def _trim(self) -> None:
        """Drop buffered ops no standby still needs (capped by retain)."""
        keep_from = min(
            (self.acked[s] for s in self.standbys),
            default=self.next_index,
        )
        # Enforce the retention cap even past a laggard's ack; the
        # laggard falls off the incremental path onto catch-up.
        floor = self.next_index - self.config.retain_ops
        keep_from = max(keep_from, floor)
        cut = keep_from - self._base_index
        if cut > 0:
            del self._ops[:cut]
            self._base_index = keep_from
            self.stats.trimmed_ops += cut

    def ack(self, standby: int, applied: int, now: float) -> None:
        """A standby's cumulative acknowledgement arrived."""
        standby = int(standby)
        if standby not in self.acked:
            return
        self.stats.acks += 1
        if applied > self.acked[standby]:
            self.acked[standby] = int(applied)
            self._no_progress[standby] = 0
            if self.breakers is not None:
                self.breakers.record_success(standby, now)
        if self.telemetry.enabled:
            self.telemetry.gauge(
                "replication.lag_records",
                help="ops the standby is behind the primary",
                standby=str(standby),
            ).set(self.lag(standby))


class StandbyReplica:
    """Receiver-side half: applies the op stream onto a local WAL/store.

    ``applied_index`` counts ops applied from the stream's beginning;
    cumulative batches overlapping it are deduplicated op by op, and a
    batch starting *past* it (prefix lost in transit) is refused — the
    ack tells the shipper where to resend from.
    """

    def __init__(
        self,
        epoch: EpochState,
        wal: WriteAheadLog,
        store: SnapshotStore,
        telemetry: Optional[Telemetry] = None,
    ):
        self.epoch = epoch
        self.wal = wal
        self.store = store
        self.telemetry = or_null(telemetry)
        self.applied_index = 0
        self.catchups_applied = 0
        self.telemetry.expose(
            "replication.catchups_applied", self, "catchups_applied",
            help="catch-up transfers installed on standbys",
        )
        #: The snapshot installed last: a shipped table with its text
        #: is taken from it rather than parsed again.
        self._held: Optional[Snapshot] = None
        #: Epoch whose op-stream indexing ``applied_index`` refers to.
        #: A takeover starts a fresh stream at index 0; incremental
        #: batches from a newer epoch are refused with a ``resync``
        #: until a catch-up re-bases us onto the new stream.
        self.stream_epoch = self.epoch.epoch

    def _reply(self, kind: str = "ack") -> Payload:
        """This standby's answer: an ack, a fence or a resync request."""
        return {
            "type": kind,
            "node": self.epoch.node,
            "epoch": self.epoch.epoch,
            "applied": self.applied_index,
        }

    def receive(self, payload: Payload) -> Optional[Payload]:
        """Handle one shipping message; returns the reply (or ``None``)."""
        kind = payload.get("type")
        if kind == "batch":
            return self.receive_batch(
                payload["epoch"], payload["start_index"], payload["ops"]
            )
        if kind == "catchup":
            return self.receive_catchup(
                payload["epoch"],
                payload["start_index"],
                payload["base_lsn"],
                payload["wal"],
                payload.get("snapshot"),
            )
        raise ValueError(f"StandbyReplica: unknown payload type {kind!r}")

    def receive_batch(
        self, epoch: int, start_index: int, ops: Sequence[Op]
    ) -> Optional[Payload]:
        if not self.epoch.admit(epoch):
            return self._reply("fence")
        if epoch != self.stream_epoch:
            return self._reply("resync")
        if start_index > self.applied_index:
            # A gap: the suffix we need was lost.  Ack what we have so
            # the shipper's cumulative resend covers the hole.
            return self._reply()
        offset = self.applied_index - start_index
        for op in list(ops)[offset:]:
            self._apply(op)
            self.applied_index += 1
        return self._reply()

    def receive_catchup(
        self,
        epoch: int,
        start_index: int,
        base_lsn: int,
        data: bytes,
        snapshot_payload: Optional[Payload],
    ) -> Optional[Payload]:
        if not self.epoch.admit(epoch):
            return self._reply("fence")
        if epoch == self.stream_epoch and start_index < self.applied_index:
            # Stale catch-up from before acks we already sent; applying
            # it would rewind the WAL below what we acked.
            return self._reply()
        # Verify before touching the WAL: a refused snapshot must leave
        # it as ``applied_index`` describes it.
        snapshot = None
        if snapshot_payload is not None:
            snapshot = Snapshot.from_shipped(snapshot_payload, self._held)
        self.wal.copy_in(base_lsn, data)
        if snapshot is not None:
            self._install(snapshot)
        self.applied_index = int(start_index)
        self.stream_epoch = int(epoch)
        self.catchups_applied += 1
        return self._reply()

    def _install(self, snapshot: Snapshot) -> None:
        """Store a snapshot :meth:`Snapshot.from_shipped` verified (its
        digest recomputed over the texts as received)."""
        self._held = snapshot
        self.store.save(snapshot)

    def invalidate_stream(self) -> None:
        """Drop off the incremental stream (local WAL was damaged and
        scrubbed, so ``applied_index`` no longer describes its bytes);
        the next batch draws a ``resync`` and a catch-up re-bases us."""
        self.stream_epoch = -1

    def _apply(self, op: Op) -> None:
        tag = op[0]
        if tag == "append":
            _, lsn, kind, body = op
            got = self.wal.append(RecordKind(kind), body)
            if got != lsn:
                raise RuntimeError(
                    f"replica WAL diverged: primary lsn {lsn}, "
                    f"local lsn {got}"
                )
        elif tag == "snapshot":
            self._install(Snapshot.from_shipped(op[1], self._held))
        elif tag == "truncate":
            self.wal.truncate_prefix(int(op[1]))
        else:
            raise ValueError(f"StandbyReplica: unknown op tag {tag!r}")
