"""One shard as a replicated service: primary, standbys, takeover.

:class:`ReplicatedShard` is a :class:`~repro.replication.group.
ReplicaSet` around one :class:`~repro.sharding.router.ShardBroker`:
journal taps, log shipping, epoch fencing and the promote step are the
set's.  With one shard it is the whole broker replicated (``repro
chaos --cluster --shards 1``).  What a shard adds:

- **the shard broker's taps** — every entry mutation on the live
  shard broker (scatter, migration installs, refresh withdrawals) is
  journaled by the acting primary's
  :class:`~repro.cluster.journal.ShardJournal`, and every message
  carries the ``"shard"`` id so one wire serves all shards;
- **no internal failure detectors** — suspicion and confirmation
  belong to the cluster-wide :class:`~repro.cluster.membership.
  Membership` layer, which sees every node once instead of per-shard;
  the shard only offers :meth:`~ReplicatedShard.candidate` and
  :meth:`~ReplicatedShard.takeover` and lets the coordinator decide
  *when*;
- **cluster-stamped epochs** — takeovers are stamped with the epoch
  the coordinator passes in (the membership view epoch), so all
  shards share one monotone counter and one
  :class:`~repro.replication.epoch.EpochDirectory` for transport
  redirects.

Takeover replays the candidate's shipped WAL
(:func:`~repro.cluster.journal.recover_shard`) and installs the
entries into the live shard broker, which re-homes it
(:meth:`~repro.sharding.router.ShardBroker.install`).  A crashed home
that comes back is the same step with the home as its own candidate
(:meth:`~ReplicatedShard.restart`): its own WAL, no standby needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from ..durability.recovery import InflightDelivery
from ..overload.breaker import BreakerBoard
from ..replication.epoch import EpochDirectory
from ..replication.group import Alive, Clock, ReplicaSet, Send, WalFactory
from ..replication.shipping import ShippingConfig
from ..sharding.router import ShardBroker
from ..telemetry.base import Telemetry
from .journal import ShardJournal, recover_shard

__all__ = ["TakeoverResult", "ReplicatedShard"]


@dataclass(frozen=True)
class TakeoverResult:
    """What one fenced standby takeover (or in-place restart,
    ``old_home == new_home``) produced."""

    shard_id: int
    old_home: int
    new_home: int
    epoch: int
    #: Recovery digest — the determinism witness.
    digest: str
    entries: int
    #: sequence → recovered unfinished delivery, for re-hand.
    inflight: Dict[int, InflightDelivery]
    truncated_bytes: int


class ReplicatedShard(ReplicaSet):
    """One shard broker, a ranked (possibly empty) standby set, fenced
    takeover and in-place restart."""

    journal_class = ShardJournal
    metrics = "cluster"
    _FENCED_HELP = "ex-primary shard homes fenced by a higher epoch"
    _FENCED_WRITES_HELP = "shard writes rejected by epoch fencing"

    journal: ShardJournal

    def __init__(
        self,
        shard_broker: ShardBroker,
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
        super().__init__(
            shard_broker,
            primary,
            standbys,
            simulator,
            send=send,
            wal_factory=wal_factory,
            shipping=shipping,
            alive=alive,
            checkpoint_every=checkpoint_every,
            breakers=breakers,
            telemetry=telemetry,
        )
        self.shard_id = int(shard_broker.shard_id)
        self._tag = {"shard": self.shard_id}
        # Every entry mutation on the live shard broker hits the acting
        # primary's journal — scatter, migration installs, withdrawals.
        shard_broker.on_register = (
            lambda gid, subscriber, rectangle: self.journal.log_register(
                gid, subscriber, rectangle
            )
        )
        shard_broker.on_withdraw = lambda gid: self.journal.log_withdraw(gid)

    # bench/layers.py times these per class and patches only what a
    # class holds in its own ``__dict__``: bind, don't merely inherit.
    deliver = ReplicaSet.deliver
    tick = ReplicaSet.tick

    def takeover(
        self,
        now: float,
        epoch: int,
        directory: Optional[EpochDirectory] = None,
        eligible: Optional[Callable[[int], bool]] = None,
    ) -> Optional[TakeoverResult]:
        """Promote the best standby under cluster epoch ``epoch``.

        Returns ``None`` when no standby is usable — the coordinator
        waits for the home or falls back to ring exclusion.  A
        non-advancing ``epoch`` is refused before anything changes.
        """
        self._check_epoch(epoch)
        candidate = self.candidate(now, eligible)
        if candidate is None:
            return None
        return self._recover_onto(candidate, epoch, directory)

    def restart(
        self, epoch: int, directory: Optional[EpochDirectory] = None
    ) -> TakeoverResult:
        """The crashed primary comes back: :meth:`takeover` with the
        primary as its own candidate, recovering from its own WAL and
        store under cluster epoch ``epoch``."""
        self._check_epoch(epoch)
        return self._recover_onto(self.primary, epoch, directory)

    def _check_epoch(self, epoch: int) -> None:
        if epoch <= self.epoch:
            raise ValueError(
                f"ReplicatedShard: takeover epoch must advance "
                f"(have {self.epoch}, got {epoch})"
            )

    def _recover_onto(
        self, candidate: int, epoch: int, directory: Optional[EpochDirectory]
    ) -> TakeoverResult:
        """Replay ``candidate``'s storage into the live shard broker and
        make it the primary."""
        state = recover_shard(
            self.wals[candidate],
            self.stores[candidate],
            telemetry=self.telemetry,
        )
        self.broker.install(state.entries, candidate)
        old = self._promote(candidate, state, epoch, directory)
        if self.telemetry.enabled:
            self.telemetry.gauge(
                "cluster.shard_epoch",
                help="per-shard configuration epoch",
                shard=str(self.shard_id),
            ).set(self.epoch)
        return TakeoverResult(
            shard_id=self.shard_id,
            old_home=old,
            new_home=candidate,
            epoch=self.epoch,
            digest=state.digest(),
            entries=len(state.entries),
            inflight=dict(state.inflight),
            truncated_bytes=state.truncated_bytes,
        )

    def lag_of(self, standby: int) -> int:
        """Ops ``standby`` is behind the acting primary's stream."""
        if int(standby) not in self.shipper.acked:
            return 0
        return self.shipper.lag(int(standby))
