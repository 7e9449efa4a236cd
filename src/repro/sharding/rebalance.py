"""Live subset migration: snapshot handoff, journaled cutover, fencing.

A migration moves one subset ``S_q`` between shards while publications
keep flowing, in three journaled phases (new
:class:`~repro.durability.wal.RecordKind` members ``MIGRATE_BEGIN`` /
``MIGRATE_CUTOVER`` / ``MIGRATE_DONE``):

1. **begin** — the subscriptions that must follow ``S_q`` are packed
   into a :class:`~repro.durability.snapshot.Snapshot` (digest-verified
   on install, exactly like a recovery checkpoint) and copied onto the
   destination; the source keeps serving.
2. **cutover** — :meth:`ShardMap.migrate` flips ownership and bumps the
   map **epoch** (the fencing token of :mod:`repro.replication.epoch`):
   any publication stamped with the old epoch that still reaches the
   old owner is stale and bounces back to the router.
3. **finish** — the source drops every subscription it no longer owns
   under the new map and the migration is marked done.

Crash semantics mirror the WAL's: a ``BEGIN`` without ``CUTOVER``
rolls *back* (the copy is discarded — the source never stopped
owning), a ``CUTOVER`` without ``DONE`` rolls *forward* (ownership
already flipped; only the source's cleanup is outstanding).

:meth:`Rebalancer.propose` offers a distressed shard's heaviest subset
to the least-loaded eligible shard.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, List, Optional, Tuple

from ..core.subscription import Subscription, SubscriptionTable
from ..durability.snapshot import Snapshot
from ..durability.wal import MemoryWAL, RecordKind, WriteAheadLog
from ..io import TableEncoder, table_from_dict
from ..telemetry.base import Telemetry, or_null
from .router import ShardRouter

__all__ = [
    "MigrationPhase",
    "MigrationTicket",
    "RecoverySummary",
    "Rebalancer",
]


class MigrationPhase(enum.Enum):
    """Where one migration stands in the begin→cutover→finish protocol."""

    COPYING = "copying"
    CUTOVER = "cutover"
    DONE = "done"
    ABORTED = "aborted"


@dataclass
class MigrationTicket:
    """One in-flight (or finished) migration's full paper trail."""

    migration_id: int
    q: int
    source: int
    dest: int
    begun_at: float
    moved_ids: Tuple[int, ...]
    handoff_digest: str
    phase: MigrationPhase = MigrationPhase.COPYING
    epoch: int = 0
    finished_at: float = 0.0
    dropped_at_source: int = 0


@dataclass(frozen=True)
class RecoverySummary:
    """What a journal replay after a crash decided."""

    rolled_forward: Tuple[int, ...] = ()
    rolled_back: Tuple[int, ...] = ()


class Rebalancer:
    """Migrates subsets between shards, journaled and digest-checked."""

    def __init__(
        self,
        router: ShardRouter,
        wal: Optional[WriteAheadLog] = None,
        clock: Optional[Callable[[], float]] = None,
        telemetry: Optional[Telemetry] = None,
        on_cutover: Optional[Callable[[MigrationTicket], None]] = None,
    ):
        self.router = router
        self.map = router.map
        self.clock = clock or (lambda: 0.0)
        self.wal = wal if wal is not None else MemoryWAL(clock=self.clock)
        self.telemetry = or_null(telemetry)
        self.on_cutover = on_cutover
        self.completed = 0
        self.telemetry.expose(
            "sharding.migrations", self, "completed",
            help="completed subset migrations",
        )
        self.aborted = 0
        self._next_id = 0
        self._active: Dict[int, MigrationTicket] = {}

    # -- the three phases -----------------------------------------------------

    def begin(self, q: int, dest: int) -> MigrationTicket:
        """Copy subset ``q``'s subscriptions onto ``dest`` (phase 1)."""
        q = int(q)
        source = self.map.owner_of_subset(q)
        dest = self.map._check_shard(dest)
        if dest == source:
            raise ValueError(
                f"ShardMap: subset {q} already lives on shard {dest}"
            )
        if q in self._active:
            raise ValueError(
                f"Rebalancer: migration of subset {q} already in progress"
            )
        now = float(self.clock())
        moving = self.router.subscriptions_of_subset(q)
        moved_ids = tuple(
            int(s.subscription_id)
            for s in sorted(moving, key=lambda s: s.subscription_id)
        )
        handoff = self._pack(moving, now)
        # The destination's copy, decoded and verified before anything
        # is journaled: a refused handoff leaves no trace.
        arrived = Snapshot.from_shipped(handoff.shipped())
        self.wal.append(
            RecordKind.MIGRATE_BEGIN,
            {
                "migration": self._next_id,
                "q": q,
                "source": source,
                "dest": dest,
                "ids": list(moved_ids),
                "digest": handoff.digest(),
            },
        )
        ticket = MigrationTicket(
            migration_id=self._next_id,
            q=q,
            source=source,
            dest=dest,
            begun_at=now,
            moved_ids=moved_ids,
            handoff_digest=handoff.digest(),
        )
        self._next_id += 1
        self._active[q] = ticket
        self._install(arrived, moved_ids, dest)
        return ticket

    def _pack(self, moving: List[Subscription], now: float) -> Snapshot:
        """The handoff payload: a digest-verified durability snapshot."""
        ordered = sorted(moving, key=lambda s: s.subscription_id)
        table = SubscriptionTable(self.router.broker.table.ndim)
        for subscription in ordered:
            table.add(subscription.subscriber, subscription.rectangle)
        encoded, text = TableEncoder().encode(table)
        return Snapshot(
            snapshot_id=self._next_id,
            checkpoint_lsn=self.wal.end_lsn,
            table=encoded,
            taken_at=now,
            texts={"table": text},
        )

    def _install(
        self, arrived: Snapshot, moved_ids: Tuple[int, ...], dest: int
    ) -> int:
        """Register a verified handoff's subscriptions on ``dest``."""
        decoded = table_from_dict(arrived.table)
        target = self.router.shards[dest]
        installed = 0
        for local, gid in enumerate(moved_ids):
            entry = decoded[local]
            if target.register(
                Subscription(
                    subscription_id=gid,
                    subscriber=entry.subscriber,
                    rectangle=entry.rectangle,
                )
            ):
                installed += 1
        return installed

    def cutover(self, ticket: MigrationTicket) -> int:
        """Flip ownership and bump the fencing epoch (phase 2)."""
        if ticket.phase is not MigrationPhase.COPYING:
            raise ValueError(
                f"Rebalancer: cannot cut over a migration in phase "
                f"{ticket.phase.value!r}"
            )
        epoch = self.map.migrate(ticket.q, ticket.dest)
        self.wal.append(
            RecordKind.MIGRATE_CUTOVER,
            {
                "migration": ticket.migration_id,
                "q": ticket.q,
                "source": ticket.source,
                "dest": ticket.dest,
                "epoch": epoch,
            },
        )
        ticket.phase = MigrationPhase.CUTOVER
        ticket.epoch = epoch
        if self.on_cutover is not None:
            self.on_cutover(ticket)
        return epoch

    def finish(self, ticket: MigrationTicket) -> MigrationTicket:
        """Source cleanup + journal close (phase 3)."""
        if ticket.phase is not MigrationPhase.CUTOVER:
            raise ValueError(
                f"Rebalancer: cannot finish a migration in phase "
                f"{ticket.phase.value!r}"
            )
        ticket.dropped_at_source = self.router.refresh_shard(ticket.source)
        now = float(self.clock())
        self.wal.append(
            RecordKind.MIGRATE_DONE,
            {
                "migration": ticket.migration_id,
                "q": ticket.q,
                "aborted": False,
                "dropped": ticket.dropped_at_source,
            },
        )
        ticket.phase = MigrationPhase.DONE
        ticket.finished_at = now
        self._active.pop(ticket.q, None)
        self.completed += 1
        if self.telemetry.enabled:
            self.telemetry.histogram(
                "sharding.migration_duration",
                help="begin-to-finish migration time, simulated units",
            ).observe(now - ticket.begun_at)
            self.telemetry.gauge(
                "sharding.imbalance",
                help="max/mean planned shard load",
            ).set(self.map.imbalance())
        return ticket

    def abort(self, ticket: MigrationTicket) -> MigrationTicket:
        """Discard a pre-cutover copy (e.g. the destination died)."""
        if ticket.phase is not MigrationPhase.COPYING:
            raise ValueError(
                f"Rebalancer: only a pre-cutover migration can abort "
                f"(phase {ticket.phase.value!r})"
            )
        self.wal.append(
            RecordKind.MIGRATE_DONE,
            {
                "migration": ticket.migration_id,
                "q": ticket.q,
                "aborted": True,
                "dropped": 0,
            },
        )
        # The copies are only stale if nothing else entitles the
        # destination to them — refresh decides per subscription.
        self.router.refresh_shard(ticket.dest)
        ticket.phase = MigrationPhase.ABORTED
        ticket.finished_at = float(self.clock())
        self._active.pop(ticket.q, None)
        self.aborted += 1
        return ticket

    def migrate(self, q: int, dest: int) -> MigrationTicket:
        """The whole protocol in one call (tests, CLI planning)."""
        ticket = self.begin(q, dest)
        self.cutover(ticket)
        return self.finish(ticket)

    # -- rebalance proposals --------------------------------------------------

    def propose(
        self, distressed: int, exclude: Collection[int] = ()
    ) -> Optional[Tuple[int, int]]:
        """``(q, dest)`` moving the heaviest subset off ``distressed``.

        ``dest`` is the least-loaded shard outside ``exclude`` (and not
        the distressed shard itself); ``None`` when the distressed
        shard owns nothing or no destination is eligible.
        """
        distressed = int(distressed)
        subsets = self.map.subsets_of(distressed)
        if not subsets:
            return None
        loads = self.map.shard_loads()
        candidates = [
            shard
            for shard in range(self.map.num_shards)
            if shard != distressed and shard not in exclude
        ]
        if not candidates:
            return None
        q = max(subsets, key=lambda s: (self.map.load_of_subset(s), -s))
        dest = min(candidates, key=lambda s: (loads[s], s))
        return q, dest

    # -- crash recovery -------------------------------------------------------

    def recover(self) -> RecoverySummary:
        """Replay the migration journal and resolve incomplete entries.

        Idempotent against the router's current in-memory state:
        rolled-forward migrations re-run cutover only if the map still
        shows the old owner, and both directions finish with a
        refresh of the affected shard.
        """
        begun: Dict[int, dict] = {}
        cut: Dict[int, dict] = {}
        done: Dict[int, dict] = {}
        for record in self.wal.scan().records:
            body = record.body
            if record.kind is RecordKind.MIGRATE_BEGIN:
                begun[int(body["migration"])] = body
            elif record.kind is RecordKind.MIGRATE_CUTOVER:
                cut[int(body["migration"])] = body
            elif record.kind is RecordKind.MIGRATE_DONE:
                done[int(body["migration"])] = body
        forward: List[int] = []
        back: List[int] = []
        for migration_id in sorted(begun):
            if migration_id in done:
                continue
            body = begun[migration_id]
            q, source, dest = (
                int(body["q"]),
                int(body["source"]),
                int(body["dest"]),
            )
            ticket = self._active.get(q)
            if migration_id in cut:
                # Ownership already flipped; only cleanup is pending.
                if self.map.owner_of_subset(q) == source:
                    self.map.migrate(q, dest)
                if ticket is None:
                    ticket = MigrationTicket(
                        migration_id=migration_id,
                        q=q,
                        source=source,
                        dest=dest,
                        begun_at=float(body.get("t", 0.0)),
                        moved_ids=tuple(int(x) for x in body["ids"]),
                        handoff_digest=str(body["digest"]),
                    )
                ticket.phase = MigrationPhase.CUTOVER
                ticket.epoch = int(cut[migration_id]["epoch"])
                self._active[q] = ticket
                self.finish(ticket)
                forward.append(migration_id)
            else:
                # Copy never cut over: discard it, the source still owns.
                if ticket is None:
                    ticket = MigrationTicket(
                        migration_id=migration_id,
                        q=q,
                        source=source,
                        dest=dest,
                        begun_at=float(body.get("t", 0.0)),
                        moved_ids=tuple(int(x) for x in body["ids"]),
                        handoff_digest=str(body["digest"]),
                    )
                    self._active[q] = ticket
                self.abort(ticket)
                back.append(migration_id)
        return RecoverySummary(
            rolled_forward=tuple(forward), rolled_back=tuple(back)
        )
