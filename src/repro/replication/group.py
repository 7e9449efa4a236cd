"""Replica sets: one primary, ranked standbys, epoch-fenced promotion.

A :class:`ReplicaSet` keeps the standbys of one journaled broker
current.  The **primary** runs the actual matching/routing service and
journals every mutation through a :class:`~repro.durability.journal.
BrokerJournal`; the journal's taps feed a :class:`~repro.replication.
shipping.LogShipper` which streams the WAL to each **standby**'s
:class:`~repro.replication.shipping.StandbyReplica`.  All timing lives
on the injected discrete-event simulator, so failover is a pure
function of the seed.

Promotion is the durability stack re-run on somebody else's disk: the
highest-ranked live standby replays *its own shipped WAL and
snapshots*, the set's **epoch** advances, the
:class:`~repro.replication.epoch.EpochDirectory` (which the reliable
transport consults to re-route in-flight retries) learns the new home,
and the new primary starts journaling + shipping to the surviving
standbys.  The set decides nothing by itself: its one subclass,
:class:`repro.cluster.shard.ReplicatedShard`, is one shard of a
cluster whose :class:`~repro.cluster.membership.Membership` detector
decides when to promote (a one-shard cluster replicates a whole
broker's worth of subscriptions).

A deposed primary that is merely *partitioned* (not dead) keeps
heartbeating and shipping with its stale epoch after the partition
heals; the first reply it provokes carries the higher epoch and
**fences** it — :class:`~repro.replication.epoch.EpochState` demotes
it to ``FENCED`` and every subsequent write admission check at that
node fails.  That rejection counter is the split-brain proof the
chaos verifier asserts on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Optional, Protocol, Sequence

from ..durability.journal import BrokerJournal
from ..durability.recovery import ReplayResult
from ..durability.snapshot import MemorySnapshotStore, Snapshot, SnapshotStore
from ..durability.wal import MemoryWAL, RecordKind, WriteAheadLog
from ..overload.breaker import BreakerBoard
from ..telemetry.base import Telemetry, or_null
from .epoch import EpochDirectory, EpochState, ReplicaRole
from .shipping import (
    LogShipper,
    Payload,
    ShippingConfig,
    ShippingStats,
    StandbyReplica,
)

__all__ = ["ReplicationStats", "ReplicaSet", "SentMessages"]

#: ``send(source, target, payload)``: put one message on the wire.
Send = Callable[[int, int, Payload], None]
#: ``alive(node, time)``: the fail-stop ground truth.
Alive = Callable[[int, float], bool]
#: ``wal_factory(node)``: the write-ahead log backing one member.
WalFactory = Callable[[int], WriteAheadLog]


class Clock(Protocol):
    """All a replica set needs of the simulator: the current time."""

    @property
    def now(self) -> float: ...


@dataclass
class SentMessages:
    """Replication messages put on the wire, by ``payload["type"]``."""

    heartbeat: int = 0
    batch: int = 0
    catchup: int = 0
    ack: int = 0
    resync: int = 0
    fence: int = 0


@dataclass
class ReplicationStats:
    """What one replica set did during one run."""

    #: Messages rejected as stale-epoch across all replicas.
    stale_rejections: int = 0
    #: Write admissions refused at fenced / non-primary replicas.
    fenced_writes: int = 0
    sent: SentMessages = field(default_factory=SentMessages)
    #: Every shipper the set binds counts here, a restarted or
    #: promoted primary's too.
    shipping: ShippingStats = field(default_factory=ShippingStats)


class ReplicaSet:
    """One primary, N ranked standbys, and the machinery between them.

    Journal taps, shipping, the five-message receive path, the
    heartbeat-and-flush round and the promote step are here; a
    subclass decides *when* to promote and how the candidate's storage
    becomes the live ``broker`` again (see :meth:`_promote`).

    ``send(source, target, payload)`` puts one message dict on the
    (simulated) wire; whatever transport the caller wires up must
    eventually call :meth:`deliver` on the receiving end — or drop the
    message, which the protocol tolerates.  With ``send=None``
    messages are delivered synchronously and losslessly, which is what
    the unit tests want.

    ``alive(node, time)`` is the fail-stop ground truth (the chaos
    harnesses back it with the fault injector).  A partitioned node is
    still *alive*: it keeps beating and shipping with its stale epoch,
    which is how it eventually gets fenced instead of resurrected.
    """

    #: The journal class wrapped around ``broker`` on each primary.
    journal_class = BrokerJournal
    #: Prefix of the telemetry metric names (``<prefix>.fenced`` ...).
    metrics = "replication"
    _FENCED_HELP = "ex-primaries fenced by a higher epoch"
    _FENCED_WRITES_HELP = "writes rejected by epoch fencing"

    def __init__(
        self,
        broker: Any,
        primary: int,
        standbys: Sequence[int],
        simulator: Clock,
        send: Optional[Send] = None,
        wal_factory: Optional[WalFactory] = None,
        shipping: Optional[ShippingConfig] = None,
        alive: Optional[Alive] = None,
        checkpoint_every: int = 64,
        breakers: Optional[BreakerBoard] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        ranked = [int(s) for s in standbys]
        if int(primary) in ranked or len(set(ranked)) != len(ranked):
            raise ValueError(
                f"{type(self).__name__}: standbys must be distinct and "
                f"exclude the primary (primary={primary}, standbys={ranked})"
            )
        self.broker = broker
        self.primary = int(primary)
        self.ranked = ranked
        self.members = [self.primary] + ranked
        self.simulator = simulator
        self._send = send
        self.shipping = shipping or ShippingConfig()
        self.alive = alive or (lambda node, time: True)
        self.checkpoint_every = checkpoint_every
        self.breakers = breakers
        self.telemetry = or_null(telemetry)
        #: The set's current configuration epoch.
        self.epoch = 0
        self.stats = ReplicationStats()
        for kind in vars(self.stats.sent):
            self.telemetry.expose(
                "replication.messages", self.stats.sent, kind,
                help="replication messages sent", type=kind,
            )
        #: Extra fields stamped on every outgoing message.
        self._tag: Dict[str, int] = {}

        wal_factory = wal_factory or (
            lambda node: MemoryWAL(clock=lambda: self.simulator.now)
        )
        self.wals: Dict[int, WriteAheadLog] = {
            node: wal_factory(node) for node in self.members
        }
        self.stores: Dict[int, SnapshotStore] = {
            node: MemorySnapshotStore() for node in self.members
        }
        self.epochs: Dict[int, EpochState] = {
            node: EpochState(node=node) for node in self.members
        }
        self.epochs[self.primary].role = ReplicaRole.PRIMARY
        for state in self.epochs.values():
            self.telemetry.expose(
                f"{self.metrics}.fenced_writes", state, "writes_rejected",
                help=self._FENCED_WRITES_HELP,
            )
        self.replicas: Dict[int, StandbyReplica] = {
            node: StandbyReplica(
                self.epochs[node],
                self.wals[node],
                self.stores[node],
                telemetry=telemetry,
            )
            for node in ranked
        }
        self._shippers: Dict[int, LogShipper] = {}
        self.journal = self._bind_primary(self.primary)

    # -- wiring --------------------------------------------------------------

    def _bind_primary(self, node: int) -> BrokerJournal:
        """Attach journal + shipper for ``node`` as the acting primary."""
        shipper = LogShipper(
            self.epochs[node],
            [
                s
                for s in self.members
                if self.epochs[s].role is ReplicaRole.STANDBY
            ],
            send=partial(self._transmit, node),
            wal=self.wals[node],
            snapshots=self.stores[node],
            config=self.shipping,
            breakers=self.breakers,
            telemetry=self.telemetry,
            stats=self.stats.shipping,
        )
        self._shippers[node] = shipper
        journal = self.journal_class(
            self.broker,
            self.wals[node],
            self.stores[node],
            checkpoint_every=self.checkpoint_every,
            telemetry=self.telemetry,
        )
        journal.on_record = partial(self._on_record, shipper)
        journal.on_checkpoint = partial(self._on_checkpoint, shipper)
        return journal

    def _on_record(
        self, shipper: LogShipper, lsn: int, kind: RecordKind, body: Payload
    ) -> None:
        shipper.record(lsn, kind, body)
        if shipper.due:
            shipper.flush(self.simulator.now, due_only=True)

    def _on_checkpoint(
        self, shipper: LogShipper, snapshot: Snapshot, truncate_lsn: int
    ) -> None:
        shipper.checkpoint(snapshot, truncate_lsn)
        # Push checkpoints eagerly: a standby holding the snapshot can
        # take over even if it missed every incremental batch since.
        shipper.flush(self.simulator.now)

    def _transmit(self, source: int, target: int, payload: Payload) -> None:
        vars(self.stats.sent)[payload["type"]] += 1
        payload = {**payload, "from": int(source), **self._tag}
        if self._send is None:
            self.deliver(target, payload, self.simulator.now)
        else:
            self._send(int(source), int(target), payload)

    def _fence(self, node: int, sender: int) -> None:
        """Answer a stale-epoch message with ``node``'s higher epoch."""
        self._transmit(
            node, sender, {"type": "fence", "epoch": self.epochs[node].epoch}
        )

    # -- the receive path ----------------------------------------------------

    def deliver(self, node: int, payload: Payload, time: float) -> None:
        """One replication message arrived at member ``node`` at ``time``."""
        node = int(node)
        if not self.alive(node, time):
            return
        kind = payload.get("type")
        sender = int(payload.get("from", -1))
        epoch_state = self.epochs[node]
        if kind == "heartbeat":
            if not epoch_state.admit(payload["epoch"]):
                self._fence(node, sender)
        elif kind in ("batch", "catchup"):
            replica = self.replicas.get(node)
            if replica is None:
                # Shipped data aimed at a node that is no longer a
                # standby (it took over); its epoch state answers.
                if not epoch_state.admit(payload["epoch"]):
                    self._fence(node, sender)
                return
            reply = replica.receive(payload)
            if reply is not None:
                self._transmit(node, sender, reply)
        elif kind in ("ack", "resync"):
            if not epoch_state.admit(payload["epoch"]):
                return  # an old standby answering an even older stream
            shipper = self._shippers.get(node)
            if shipper is None or not epoch_state.is_primary:
                return
            if kind == "ack":
                shipper.ack(payload["node"], payload["applied"], time)
            else:
                shipper.force_catchup(payload["node"], time)
        elif kind == "fence":
            was_primary = epoch_state.is_primary
            epoch_state.adopt(payload["epoch"])
            if was_primary and self.telemetry.enabled:
                self.telemetry.counter(
                    f"{self.metrics}.fenced", help=self._FENCED_HELP
                ).inc()
        else:
            raise ValueError(
                f"{type(self).__name__}: unknown payload type {kind!r}"
            )

    # -- the clock loop ------------------------------------------------------

    def tick(self, now: float) -> None:
        """One shipping/heartbeat round.

        Every member that *believes* it is primary flushes each standby
        its unacked suffix (the retransmission path), then heartbeats
        the standbys that got no batch or catch-up.  Either carries its
        epoch: a partitioned zombie learns the truth from the fence.
        """
        for node, shipper in self._shippers.items():
            epoch_state = self.epochs[node]
            if not epoch_state.is_primary or not self.alive(node, now):
                continue
            shipped = shipper.flush(now)
            beat = {"type": "heartbeat", "epoch": epoch_state.epoch}
            for standby in shipper.standbys:
                if standby not in shipped:
                    self._transmit(node, standby, beat)

    # -- failover ------------------------------------------------------------

    def mark_dead(self, node: int) -> None:
        """Ground truth: ``node`` is permanently gone (fail-stop kill)."""
        self.epochs[int(node)].role = ReplicaRole.DEAD

    def candidate(
        self,
        now: float,
        eligible: Optional[Callable[[int], bool]] = None,
    ) -> Optional[int]:
        """Highest-ranked standby able to take over right now.

        ``eligible`` lets a coordinator veto standbys it cannot reach
        (e.g. stranded on the wrong side of a partition).
        """
        for node in self.ranked:
            if self.epochs[node].role is not ReplicaRole.STANDBY:
                continue
            if not self.alive(node, now):
                continue
            if eligible is not None and not eligible(node):
                continue
            return node
        return None

    def _promote(
        self,
        candidate: int,
        state: ReplayResult,
        epoch: int,
        directory: Optional[EpochDirectory],
    ) -> int:
        """Make ``candidate`` the primary under ``epoch``; returns the old.

        ``state`` is what the subclass recovered from the candidate's
        own storage and has already put back into the live broker; its
        in-flight intents re-arm the fresh journal.  The candidate may
        be the primary itself, restarted in place: nothing to redirect.
        """
        old = self.primary
        self.replicas.pop(candidate, None)
        self.epoch = int(epoch)
        epoch_state = self.epochs[candidate]
        epoch_state.role = ReplicaRole.PRIMARY
        epoch_state.epoch = self.epoch
        if directory is not None and candidate != old:
            directory.advance(old, candidate, self.epoch)
        self.primary = candidate
        self.journal = self._bind_primary(candidate)
        self.journal.rearm(state)
        return old

    # -- admission & reporting ----------------------------------------------

    def write_allowed(self, node: int) -> bool:
        """Whether a client write at ``node`` may proceed (fencing check).

        The write is stamped with the set's current epoch; only the
        acting primary admits it.  A fenced ex-primary — or any node
        that merely used to matter — rejects, and the rejection is
        counted as the split-brain proof.
        """
        return self.epochs[int(node)].admit_write(self.epoch)

    @property
    def shipper(self) -> LogShipper:
        """The acting primary's shipper."""
        return self._shippers[self.primary]

    def shipping_stats(self) -> ShippingStats:
        """Shipping counters of every (ex-)primary's shipper, summed."""
        return self.stats.shipping

    def finalize_stats(self) -> ReplicationStats:
        """Fold per-replica counters into the set's stats and return them."""
        self.stats.stale_rejections = sum(
            e.stale_rejected for e in self.epochs.values()
        )
        self.stats.fenced_writes = sum(
            e.writes_rejected for e in self.epochs.values()
        )
        return self.stats
