"""Crash recovery: snapshot + WAL tail → the broker that crashed.

The restart sequence (deterministic — a pure function of the stored
bytes):

1. load the newest *valid* snapshot (torn/corrupt snapshot files are
   skipped by the store);
2. scan the WAL front to back, stopping at the first torn or
   CRC-invalid record; physically truncate the damaged tail
   (:meth:`~repro.durability.wal.WriteAheadLog.repair`) so the log is
   clean for the next epoch — never replay garbage;
3. replay the surviving records: SUBSCRIBE/UNSUBSCRIBE at or past the
   snapshot's ``checkpoint_lsn`` mutate the table, while PUBLISH /
   DELIVER pairs (at any retained LSN) reconstruct the **in-flight
   set** — every (event, target) whose publish intent was journaled
   but whose delivery completion never was;
4. :func:`restore_broker` then rebuilds the derived state the paper's
   preprocessing produced — the grid, the restored space partition,
   and a freshly packed S-tree via the existing
   :class:`~repro.core.dynamic.DynamicMatchingEngine` machinery — and
   the caller re-hands the in-flight set to the reliable transport,
   whose receiver-side dedup turns redelivery into exactly-once.

Malformed-but-CRC-valid records (impossible under this writer, cheap
insurance against future format skew) are skipped and counted, never
raised on: recovery's contract is that it always terminates with a
usable broker and an honest report of what it could not salvage.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional
from typing import Set, Tuple, TypeVar

from ..clustering.grid import EventGrid
from ..clustering.groups import SpacePartition
from ..core.distribution import typed_eq
from ..core.subscription import SubscriptionTable
from ..io import (
    canonical_json,
    decode_rectangle,
    table_from_dict,
    table_to_dict,
)
from ..telemetry.base import Telemetry, or_null
from .snapshot import Snapshot, SnapshotStore
from .wal import RecordKind, WriteAheadLog

__all__ = [
    "InflightDelivery",
    "ReplayResult",
    "RecoveredState",
    "replay",
    "recover",
    "restore_broker",
]


class InflightDelivery(NamedTuple):
    """One journaled publish intent with its still-unacked targets."""

    sequence: int
    publisher: int
    targets: Tuple[int, ...]
    #: LSN of the PUBLISH record (the truncation low-water mark).
    lsn: int

    __eq__, __ne__, __hash__ = typed_eq, object.__ne__, tuple.__hash__


@dataclass
class ReplayResult:
    """What one :func:`replay` found, whatever state it was folding."""

    #: sequence → unfinished delivery (sorted targets), for redelivery.
    inflight: Dict[int, InflightDelivery] = field(default_factory=dict)
    checkpoint_lsn: int = 0
    snapshot_id: Optional[int] = None
    #: Records decoded and applied from the WAL (all kinds).
    replayed: int = 0
    #: CRC-valid records recovery could not interpret (skipped, loud).
    skipped: int = 0
    #: Bytes cut off the WAL tail because of torn/corrupt records.
    truncated_bytes: int = 0
    corruption: Optional[str] = None
    valid_end: int = 0

    def _digest_body(self) -> Dict[str, object]:
        """What :meth:`digest` covers; subclasses add their state."""
        return {
            "inflight": [
                [seq, entry.publisher, list(entry.targets)]
                for seq, entry in sorted(self.inflight.items())
            ],
            "checkpoint_lsn": self.checkpoint_lsn,
        }

    def digest(self) -> str:
        """Deterministic fingerprint of the recovered state.

        Two recoveries from the same snapshot + WAL bytes produce the
        same digest — the seed-stability property the tests pin.
        """
        text = canonical_json(self._digest_body()).encode("utf-8")
        return hashlib.blake2b(text, digest_size=16).hexdigest()


@dataclass
class RecoveredState(ReplayResult):
    """Everything recovery reconstructed, plus how it got there."""

    table: Optional[SubscriptionTable] = None
    removed: Set[int] = field(default_factory=set)
    partition_state: Optional[Dict[str, Any]] = None
    #: session id → cursor-table entry (subscriber, sids, state,
    #: durable, cursor), rebuilt from the snapshot's session table
    #: plus SESSION/CURSOR records past the checkpoint.  Empty for
    #: brokers without a session layer.
    sessions: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    subscriptions_replayed: int = 0
    removals_replayed: int = 0

    def _digest_body(self) -> Dict[str, object]:
        body = super()._digest_body()
        body.update(
            table=table_to_dict(self.table) if self.table else None,
            removed=sorted(self.removed),
            partition=self.partition_state,
            valid_end=self.valid_end,
        )
        if self.sessions:
            # Only present for session-bearing brokers, so digests of
            # session-less recoveries match their pinned pre-session
            # values byte for byte (canonical_json sorts the keys).
            body["sessions"] = self.sessions
        return body


S = TypeVar("S", bound=ReplayResult)


def replay(
    wal: WriteAheadLog,
    store: SnapshotStore,
    from_snapshot: Callable[[Optional[Snapshot]], S],
    folds: Mapping[RecordKind, Callable[[S, Dict[str, Any]], None]],
    telemetry: Optional[Telemetry] = None,
) -> S:
    """Steps 1-3 of the restart sequence, for any journaled state.

    The caller supplies only its *state fold*: ``from_snapshot`` turns
    the newest valid snapshot (or ``None``) into the starting state —
    setting ``checkpoint_lsn`` / ``snapshot_id`` if it accepts the
    snapshot — and ``folds`` maps each record kind the snapshot
    captures to the function applying one such record's body.  Those
    records are skipped below ``checkpoint_lsn``; PUBLISH / DELIVER
    are paired into ``inflight`` at any retained LSN, the same way for
    every caller.  The ``recovery`` span and the ``recovery.*``
    counters are metered here too, so a broker restart and a shard
    takeover count alike.

    Never raises on damaged input: a torn or corrupt WAL tail is
    truncated at the last valid record (``truncated_bytes`` /
    ``corruption``), a damaged snapshot falls back to the previous one
    (``corruption`` names it when the WAL no longer reaches back to
    it), and a body a fold rejects (``KeyError`` / ``TypeError`` /
    ``ValueError``, or ``OverflowError`` for an infinite integer field)
    is counted in ``skipped``.
    """
    telemetry = or_null(telemetry)
    span = None
    if telemetry.enabled:
        span = telemetry.start_span("recovery")
        telemetry.counter(
            "recovery.runs", help="WAL replays (restarts and takeovers)"
        ).inc()
    state = from_snapshot(store.latest())
    scan = wal.scan()
    state.truncated_bytes = wal.end_lsn - scan.valid_end
    state.corruption = scan.corruption
    state.valid_end = scan.valid_end
    if wal.base_lsn > state.checkpoint_lsn:
        # A checkpoint cut the log at a snapshot the store cannot read.
        had = state.snapshot_id
        gap = (
            f"snapshot {had} ends at lsn {state.checkpoint_lsn}"
            if had is not None else "there is no snapshot"
        ) + (
            f", but the WAL starts at lsn {wal.base_lsn}: the records "
            "between were truncated and are lost"
        )
        state.corruption = "; ".join(filter(None, (gap, scan.corruption)))
    if not scan.clean:
        wal.repair()

    # seq -> [publisher, unacked targets, lsn] of each unfinished intent.
    pending: Dict[int, List[Any]] = {}
    checkpoint_lsn, replayed, skipped = state.checkpoint_lsn, 0, 0
    for lsn, kind, body, _ in scan.records:
        try:
            if kind is RecordKind.PUBLISH:
                publisher = int(body["publisher"])
                targets = {int(t) for t in body["targets"]}
                # An intent with no targets owes nobody a delivery (the
                # journal never tracked it): its ``seq`` is never read.
                if targets:
                    pending[int(body["seq"])] = [publisher, targets, lsn]
            elif kind is RecordKind.DELIVER:
                seq = int(body["seq"])
                entry = pending.get(seq)
                if entry is not None:
                    entry[1].discard(int(body["target"]))
                    if not entry[1]:
                        del pending[seq]
            elif kind in folds:
                if lsn < checkpoint_lsn:
                    continue  # already folded into the snapshot
                folds[kind](state, body)
            # CHECKPOINT / MIGRATE_* markers are informational; the
            # snapshot store is the authority on which checkpoint
            # actually survived.
        except (KeyError, TypeError, ValueError, OverflowError):
            skipped += 1
            continue
        replayed += 1
    state.replayed += replayed
    state.skipped += skipped
    state.inflight = {
        seq: InflightDelivery(seq, publisher, tuple(sorted(targets)), lsn)
        for seq, (publisher, targets, lsn) in sorted(pending.items())
    }
    if telemetry.enabled:
        telemetry.counter(
            "recovery.replayed", help="WAL records replayed on recovery"
        ).inc(state.replayed)
        telemetry.counter(
            "recovery.truncated",
            help="WAL bytes truncated as torn/corrupt on recovery",
        ).inc(state.truncated_bytes)
        telemetry.counter(
            "recovery.inflight",
            help="unacked (event, target) deliveries found on recovery",
        ).inc(sum(len(e.targets) for e in state.inflight.values()))
        span.set_attribute("replayed", state.replayed).set_attribute(
            "truncated_bytes", state.truncated_bytes
        ).set_attribute("inflight", len(state.inflight)).set_attribute(
            "snapshot", -1 if state.snapshot_id is None else state.snapshot_id
        ).finish()
    return state


# -- the broker's state fold: dense positional table + tombstones + sessions --


def _from_snapshot(snapshot: Optional[Snapshot]) -> RecoveredState:
    if snapshot is None:
        return RecoveredState()
    return RecoveredState(
        table=table_from_dict(snapshot.table),
        removed={int(x) for x in snapshot.removed},
        partition_state=snapshot.partition,
        sessions={
            str(sid): dict(entry)
            for sid, entry in (snapshot.sessions or {}).items()
        },
        checkpoint_lsn=snapshot.checkpoint_lsn,
        snapshot_id=snapshot.snapshot_id,
    )


def _fold_subscribe(state: RecoveredState, body: Dict[str, Any]) -> None:
    sid = int(body["sid"])
    if state.table is None:
        state.table = SubscriptionTable(len(body["lows"]))
    if sid != len(state.table):
        raise ValueError("id-space gap: refusing to mis-assign")
    state.table.add(
        int(body["subscriber"]),
        decode_rectangle(body["lows"], body["highs"]),
    )
    state.subscriptions_replayed += 1


def _fold_unsubscribe(state: RecoveredState, body: Dict[str, Any]) -> None:
    sid = int(body["sid"])
    if state.table is None or not 0 <= sid < len(state.table):
        raise ValueError("tombstone for a subscription never seen")
    state.removed.add(sid)
    state.removals_replayed += 1


def _fold_session(state: RecoveredState, body: Dict[str, Any]) -> None:
    action = str(body["action"])
    sid = str(body["id"])
    if action == "register":
        state.sessions[sid] = {
            "subscriber": int(body["subscriber"]),
            "sids": sorted(int(x) for x in body["sids"]),
            "state": "live",
            "durable": True,
            "cursor": int(body.get("cursor", 0)),
            "lease": float(body["lease"]),
        }
        return
    if action not in ("detach", "resume", "expire"):
        raise ValueError(f"unknown session action {action!r}")
    entry = state.sessions[sid]  # KeyError: session never registered
    if action == "detach":
        entry["state"] = "detached"
        entry["detached_at"] = float(body["t"])
    elif action == "resume":
        entry["state"] = "live"
        entry.pop("detached_at", None)
    else:
        entry["durable"] = False


def _fold_cursor(state: RecoveredState, body: Dict[str, Any]) -> None:
    entry = state.sessions[str(body["id"])]  # KeyError: unknown session
    entry["cursor"] = max(int(entry.get("cursor", 0)), int(body["cursor"]))


_BROKER_FOLDS = {
    RecordKind.SUBSCRIBE: _fold_subscribe,
    RecordKind.UNSUBSCRIBE: _fold_unsubscribe,
    RecordKind.SESSION: _fold_session,
    RecordKind.CURSOR: _fold_cursor,
}


def recover(
    wal: WriteAheadLog,
    store: SnapshotStore,
    telemetry: Optional[Telemetry] = None,
) -> RecoveredState:
    """Rebuild broker state from durable storage after a crash.

    :func:`replay` with the broker's fold; never raises on damaged
    input (see there).
    """
    return replay(wal, store, _from_snapshot, _BROKER_FOLDS, telemetry)


def restore_broker(broker, state: RecoveredState) -> None:
    """Point a broker at recovered state, rebuilding the derived pieces.

    The snapshot stores only what cannot be recomputed (the table, the
    tombstones, the group assignment); this function re-derives the
    rest exactly as the original preprocessing did — the event grid
    over the recovered rectangles (same frame, resolution and density,
    so ``locate`` is bit-identical), the restored
    :class:`~repro.clustering.groups.SpacePartition`, and a freshly
    packed S-tree via :class:`~repro.core.dynamic.
    DynamicMatchingEngine` (tombstones seeded, not replayed one by
    one).  Routing caches are invalidated; the cost model and topology
    survive untouched (links don't lose their weights in a crash).
    """
    from ..core.dynamic import DEFAULT_REBUILD_FRACTION, DynamicMatchingEngine

    if state.table is None or len(state.table) == 0:
        raise ValueError(
            "cannot restore a broker from empty recovered state "
            "(no snapshot and no SUBSCRIBE records survived)"
        )
    if state.partition_state is None:
        raise ValueError(
            "recovered state carries no partition assignment; "
            "checkpoint before crashing (see BrokerJournal.checkpoint)"
        )
    partition_state = state.partition_state
    grid = EventGrid(
        state.table.rectangles(),
        [s.subscriber for s in state.table],
        density=broker.partition.grid.density,
        cells_per_dim=int(partition_state["cells_per_dim"]),
        frame=(partition_state["frame_lo"], partition_state["frame_hi"]),
    )
    partition = SpacePartition.restore(grid, partition_state)
    # Subscriptions replayed from the WAL post-date the snapshot, so
    # the restored partition never saw them; re-apply the same group
    # widening their original ``subscribe`` performed (replays are
    # strictly appended, so they are the table's tail).
    tail = len(state.table) - state.subscriptions_replayed
    for replayed in list(state.table)[tail:]:
        partition.add_subscription(replayed.rectangle, replayed.subscriber)
    engine = DynamicMatchingEngine(
        state.table,
        backend=broker.engine.backend,
        rebuild_fraction=getattr(
            broker, "rebuild_fraction", DEFAULT_REBUILD_FRACTION
        ),
        removed=state.removed,
    )
    broker.table = state.table
    broker.partition = partition
    broker.engine = engine
    broker.costs.clear_cache()
