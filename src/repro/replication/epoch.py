"""Epoch fencing: the replication group's split-brain guard.

Every configuration of a replicated broker group — who is primary,
who are standbys — is stamped with a monotonically increasing
**epoch**.  A failover increments it; every replication message
(heartbeat, shipped batch, catch-up) and every client write carries
the sender's epoch, and receivers apply one rule:

- a message stamped with a *lower* epoch than the receiver's is
  **stale** and rejected outright (the sender is an ex-primary that
  has not yet learned it was deposed);
- a message stamped with a *higher* epoch is proof of a completed
  failover: the receiver adopts the new epoch, and if it believed
  itself primary it is **fenced** — demoted to
  :attr:`ReplicaRole.FENCED`, after which it must reject every write
  addressed to it.

This is the standard fencing-token construction: because epochs only
move forward and a takeover happens at exactly one configuration
boundary, a zombie ex-primary can never double-deliver an event or
accept a subscribe after its successor took over — its writes carry a
dead epoch and bounce.

:class:`EpochDirectory` is the client-side half: a resolver mapping a
fenced node to its live successor, consulted by the reliable
transport so retries addressed to a deposed primary re-route instead
of burning their retry budget (and the target's circuit breaker) on a
node that will never answer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["ReplicaRole", "EpochState", "EpochDirectory"]


class ReplicaRole(enum.Enum):
    """What one replica currently is, from its own point of view."""

    PRIMARY = "primary"    # serves writes, ships its WAL
    STANDBY = "standby"    # applies shipped records, ready to take over
    FENCED = "fenced"      # ex-primary that saw a higher epoch; read-only
    DEAD = "dead"          # permanently killed (fail-stop)


@dataclass
class EpochState:
    """One replica's view of the group epoch, with the fencing rule."""

    node: int
    epoch: int = 0
    role: ReplicaRole = ReplicaRole.STANDBY
    #: Messages rejected as stale (sender's epoch below ours).
    stale_rejected: int = 0
    #: Writes rejected because this replica is fenced or not primary.
    writes_rejected: int = 0

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ValueError(
                f"EpochState: epoch must be >= 0 (got {self.epoch})"
            )

    @property
    def is_primary(self) -> bool:
        return self.role is ReplicaRole.PRIMARY

    @property
    def alive(self) -> bool:
        return self.role is not ReplicaRole.DEAD

    def admit(self, epoch: int) -> bool:
        """Apply the fencing rule to one incoming message.

        Returns False (and counts the rejection) for a stale epoch;
        otherwise adopts any higher epoch — fencing this replica if it
        believed itself primary — and returns True.
        """
        if epoch < self.epoch:
            self.stale_rejected += 1
            return False
        if epoch > self.epoch:
            self.adopt(epoch)
        return True

    def adopt(self, epoch: int) -> None:
        """Learn of a newer configuration; a primary gets fenced by it."""
        if epoch <= self.epoch:
            return
        if self.role is ReplicaRole.PRIMARY:
            self.role = ReplicaRole.FENCED
        self.epoch = epoch

    def admit_write(self, epoch: int) -> bool:
        """Whether a client write stamped ``epoch`` may mutate state here.

        Only a live primary at the same (or older — the client learns
        the newer epoch from the reply) epoch accepts; everything else
        is a post-epoch write against a deposed or never-primary node.
        """
        if self.role is not ReplicaRole.PRIMARY or epoch > self.epoch:
            self.writes_rejected += 1
            return False
        return True


class EpochDirectory:
    """node → live successor, following fencing chains.

    The group updates the directory at each takeover
    (:meth:`advance`); the reliable transport consults
    :meth:`resolve` before every (re)transmission, so a message
    addressed to a fenced ex-primary is re-addressed to whoever holds
    the role now.  Nodes with no entry resolve to themselves —
    ordinary subscribers are never redirected.
    """

    def __init__(self) -> None:
        self._successor: Dict[int, int] = {}
        self.epoch = 0

    def advance(self, old: int, new: int, epoch: int) -> None:
        """Record that ``new`` superseded ``old`` at ``epoch``."""
        old, new = int(old), int(new)
        if epoch <= self.epoch:
            raise ValueError(
                f"EpochDirectory: epoch must advance (have {self.epoch}, "
                f"got {epoch})"
            )
        if old == new:
            raise ValueError(
                f"EpochDirectory: node {old} cannot succeed itself"
            )
        self._successor[old] = new
        self.epoch = epoch

    def resolve(self, node: int) -> int:
        """The live holder of ``node``'s role (possibly ``node`` itself)."""
        node = int(node)
        seen = {node}
        while node in self._successor:
            node = self._successor[node]
            if node in seen:  # defensive: advance() forbids cycles
                break
            seen.add(node)
        return node

    def entries(self) -> Tuple[Tuple[int, int], ...]:
        """Sorted (old, successor) pairs (diagnostics)."""
        return tuple(sorted(self._successor.items()))
