"""Per-shard journaling and recovery over the durability stack.

A shard's durable state is its *entry set* — the scattered
subscriptions it owns, keyed by **global** subscription id — plus the
publish intents it has not finished delivering.  :class:`ShardJournal`
*is* the :class:`~repro.durability.journal.BrokerJournal` a whole
broker uses, pointed at a :class:`~repro.sharding.router.ShardBroker`:
same record writers, same checkpoint and low-water truncation, same
``on_record`` / ``on_checkpoint`` taps, so the replication layer's
:class:`~repro.replication.shipping.LogShipper` streams a shard's log
to its standbys without knowing it is a shard at all.  It adds only
the two entry writers that take a global id instead of a
``Subscription``.

What differs is the state a snapshot holds — ``ShardBroker.
durable_state()`` writes a *sparse* global-id entry list where a
broker writes its dense positional table — and therefore the fold
:func:`recover_shard` hands to the one replay loop
(:func:`repro.durability.recovery.replay`): SUBSCRIBE / UNSUBSCRIBE
set and drop dictionary keys instead of appending rows and
tombstones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..durability.journal import BrokerJournal
from ..durability.recovery import ReplayResult, replay
from ..durability.snapshot import Snapshot, SnapshotStore
from ..durability.wal import RecordKind, WriteAheadLog
from ..geometry.rectangle import Rectangle
from ..io import decode_rectangle
from ..sharding.router import (
    Entries,
    ShardBroker,
    decode_entries,
    encode_entries,
)
from ..telemetry.base import Telemetry

__all__ = ["ShardJournal", "RecoveredShardState", "recover_shard"]


class ShardJournal(BrokerJournal):
    """Write-ahead journaling + periodic checkpoints for one shard.

    The caller (a :class:`~repro.cluster.shard.ReplicatedShard`) wires
    the owning :class:`~repro.sharding.router.ShardBroker`'s mutation
    hooks to :meth:`log_register` / :meth:`log_withdraw`, so scatter,
    migration installs and refresh withdrawals all reach the log.
    """

    def __init__(
        self,
        shard_broker: ShardBroker,
        wal: WriteAheadLog,
        store: SnapshotStore,
        checkpoint_every: int = 64,
        telemetry: Optional[Telemetry] = None,
    ):
        super().__init__(shard_broker, wal, store, checkpoint_every, telemetry)

    # bench/layers.py times these per class and patches only what a
    # class holds in its own ``__dict__``: bind, don't merely inherit.
    log_publish = BrokerJournal.log_publish
    log_delivery = BrokerJournal.log_delivery
    checkpoint = BrokerJournal.checkpoint

    def log_register(
        self, gid: int, subscriber: int, rectangle: Rectangle
    ) -> int:
        """Journal one entry admitted to the shard (global id keyed)."""
        return self._log_entry(gid, subscriber, rectangle)

    def log_withdraw(self, gid: int) -> int:
        """Journal one entry leaving the shard (migration/refresh)."""
        return self._append(RecordKind.UNSUBSCRIBE, {"sid": int(gid)})


@dataclass
class RecoveredShardState(ReplayResult):
    """What :func:`recover_shard` reconstructed from a shard's storage."""

    #: gid → (subscriber, Rectangle), the shard's entry set.
    entries: Entries = field(default_factory=dict)

    def _digest_body(self) -> Dict[str, object]:
        body = super()._digest_body()
        body["entries"] = encode_entries(self.entries)
        return body


# -- the shard's state fold: a sparse entry set keyed by global id -----------


def _from_snapshot(snapshot: Optional[Snapshot]) -> RecoveredShardState:
    if snapshot is None:
        return RecoveredShardState()
    entries = decode_entries(snapshot.table)
    if entries is None:
        # Foreign snapshot encoding: ignore it (replay from LSN 0), loud.
        return RecoveredShardState(skipped=1)
    return RecoveredShardState(
        entries=entries,
        checkpoint_lsn=snapshot.checkpoint_lsn,
        snapshot_id=snapshot.snapshot_id,
    )


def _fold_register(state: RecoveredShardState, body: Dict[str, Any]) -> None:
    state.entries[int(body["sid"])] = (
        int(body["subscriber"]),
        decode_rectangle(body["lows"], body["highs"]),
    )


def _fold_withdraw(state: RecoveredShardState, body: Dict[str, Any]) -> None:
    state.entries.pop(int(body["sid"]), None)


_SHARD_FOLDS = {
    RecordKind.SUBSCRIBE: _fold_register,
    RecordKind.UNSUBSCRIBE: _fold_withdraw,
}


def recover_shard(
    wal: WriteAheadLog,
    store: SnapshotStore,
    telemetry: Optional[Telemetry] = None,
) -> RecoveredShardState:
    """Rebuild one shard's entry set + in-flight intents from storage.

    :func:`~repro.durability.recovery.replay` with the shard's fold;
    never raises on damaged input (see there).
    """
    return replay(wal, store, _from_snapshot, _SHARD_FOLDS, telemetry)
