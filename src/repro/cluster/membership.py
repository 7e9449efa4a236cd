"""Cluster membership: who is alive, suspected, or confirmed dead.

:class:`Membership` is the one failure detector of the replicated
stack, for a one-shard cluster (a whole broker replicated) as for K
shards.  The cluster needs one shared answer to "which nodes are up?"
— per-shard or per-standby detectors would let two shards disagree
about a node that hosts a primary for one and a standby for the other.
Every participating node (shard homes and standbys alike) has a
silence clock — the last instant it was heard, never rewound by a
late heartbeat — and transitions run through a two-stage hysteresis:

- ``ALIVE → SUSPECT`` after ``suspect_after`` of silence — cheap to
  enter, cheap to leave (one heartbeat recovers the node);
- ``SUSPECT → DEAD`` after ``confirm_after`` of *total* silence — the
  verdict that triggers a shard takeover.  ``DEAD`` is sticky to
  heartbeats: a partitioned zombie that heals and beats again stays
  dead in the view (its heartbeats are counted as stale, and epoch
  fencing rejects its writes at the replication layer).  Only a home
  restarted from its own storage leaves it, through
  :meth:`Membership.rejoin`, as a new incarnation.

Every transition bumps the cluster **view epoch**, and takeovers bump
it again through :meth:`advance_epoch` — one monotone counter stamps
both membership changes and shard reconfigurations, which is what lets
all shards share a single
:class:`~repro.replication.epoch.EpochDirectory` (its ``advance``
demands strictly increasing epochs).

All timing lives on the caller's injected clock: the chaos harness
feeds :meth:`heard` from its deterministic liveness oracle and calls
:meth:`tick` on a fixed cadence, so suspicion and confirmation — and
therefore failover — are pure functions of the seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

__all__ = [
    "MemberState",
    "MembershipConfig",
    "ClusterView",
    "Membership",
]


class MemberState(enum.Enum):
    """One node's standing in the cluster view."""

    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"


@dataclass(frozen=True)
class MembershipConfig:
    """Cadence and patience of the cluster detector (simulated time)."""

    #: How often members heartbeat (and the view is re-evaluated).
    heartbeat_interval: float = 10.0
    #: Silence longer than this moves ALIVE → SUSPECT (recoverable).
    suspect_after: float = 25.0
    #: Silence longer than this moves SUSPECT → DEAD (sticky).
    confirm_after: float = 55.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0.0:
            raise ValueError(
                f"MembershipConfig: heartbeat_interval must be positive "
                f"(got {self.heartbeat_interval})"
            )
        if self.suspect_after <= self.heartbeat_interval:
            raise ValueError(
                f"MembershipConfig: suspect_after must exceed "
                f"heartbeat_interval (got {self.suspect_after} vs "
                f"{self.heartbeat_interval})"
            )
        if self.confirm_after <= self.suspect_after:
            raise ValueError(
                f"MembershipConfig: confirm_after must exceed "
                f"suspect_after (got {self.confirm_after} vs "
                f"{self.suspect_after})"
            )


@dataclass(frozen=True)
class ClusterView:
    """An immutable epoch-stamped snapshot of the membership."""

    epoch: int
    alive: FrozenSet[int]
    suspect: FrozenSet[int]
    dead: FrozenSet[int]

    @property
    def members(self) -> FrozenSet[int]:
        return self.alive | self.suspect | self.dead


class Membership:
    """The cluster-wide failure detector with suspicion hysteresis."""

    def __init__(
        self,
        nodes: Iterable[int],
        config: MembershipConfig = MembershipConfig(),
        now: float = 0.0,
    ):
        members = sorted({int(n) for n in nodes})
        if not members:
            raise ValueError(
                "Membership: need at least one member node (got none)"
            )
        self.config = config
        self.nodes: Tuple[int, ...] = tuple(members)
        self._state: Dict[int, MemberState] = {
            n: MemberState.ALIVE for n in members
        }
        self._last_heard: Dict[int, float] = {n: float(now) for n in members}
        self.epoch = 0
        #: ALIVE → SUSPECT transitions (including recovered ones).
        self.suspicions = 0
        #: SUSPECT → ALIVE recoveries (a heartbeat beat the verdict).
        self.recoveries = 0
        #: SUSPECT → DEAD confirmations.
        self.confirmed_deaths = 0
        #: Heartbeats from nodes the view already confirmed dead.
        self.stale_heartbeats = 0

    # -- inputs --------------------------------------------------------------

    def heard(self, node: int, now: float) -> bool:
        """One heartbeat from ``node``; returns whether it was admitted.

        A SUSPECT node recovers to ALIVE (epoch bump); a DEAD node
        stays dead — the heartbeat is the zombie talking, and the
        counter is the proof the hysteresis held.
        """
        node = int(node)
        state = self._state[node]
        if state is MemberState.DEAD:
            self.stale_heartbeats += 1
            return False
        if now > self._last_heard[node]:
            self._last_heard[node] = float(now)
        if state is MemberState.SUSPECT:
            self._state[node] = MemberState.ALIVE
            self.recoveries += 1
            self.epoch += 1
        return True

    def mark_dead(self, node: int) -> None:
        """Ground truth (fail-stop kill): skip the hysteresis entirely."""
        node = int(node)
        if self._state[node] is not MemberState.DEAD:
            self._state[node] = MemberState.DEAD
            self.confirmed_deaths += 1
            self.epoch += 1

    def rejoin(self, node: int, now: float) -> None:
        """``node`` restarted from its own storage: unlike a zombie's
        heartbeat, the new incarnation is ALIVE again (epoch bump)."""
        node = int(node)
        if self._state[node] is MemberState.DEAD:
            self._state[node] = MemberState.ALIVE
            self._last_heard[node] = float(now)
            self.epoch += 1

    def tick(self, now: float) -> List[Tuple[int, MemberState]]:
        """Re-evaluate every member; returns the transitions, in node
        order, each already folded into the view (epoch bumped)."""
        transitions: List[Tuple[int, MemberState]] = []
        for node in self.nodes:
            state = self._state[node]
            if state is MemberState.DEAD:
                continue
            silence = now - self._last_heard[node]
            if (
                state is MemberState.SUSPECT
                and silence > self.config.confirm_after
            ):
                self._state[node] = MemberState.DEAD
                self.confirmed_deaths += 1
                self.epoch += 1
                transitions.append((node, MemberState.DEAD))
            elif (
                state is MemberState.ALIVE
                and silence > self.config.suspect_after
            ):
                self._state[node] = MemberState.SUSPECT
                self.suspicions += 1
                self.epoch += 1
                transitions.append((node, MemberState.SUSPECT))
        return transitions

    def advance_epoch(self) -> int:
        """Bump and return the view epoch (a takeover reconfigured a
        shard — the cluster configuration changed without a membership
        transition).  Keeping takeovers on the same counter makes the
        epoch a total order over *all* configuration changes."""
        self.epoch += 1
        return self.epoch

    # -- queries -------------------------------------------------------------

    def state_of(self, node: int) -> MemberState:
        return self._state[int(node)]

    def is_usable(self, node: int) -> bool:
        """Whether ``node`` may hold a primary/standby role right now."""
        return self._state[int(node)] is MemberState.ALIVE

    def last_heard(self, node: int) -> float:
        return self._last_heard[int(node)]

    def view(self) -> ClusterView:
        return ClusterView(
            epoch=self.epoch,
            alive=frozenset(
                n
                for n, s in self._state.items()
                if s is MemberState.ALIVE
            ),
            suspect=frozenset(
                n
                for n, s in self._state.items()
                if s is MemberState.SUSPECT
            ),
            dead=frozenset(
                n for n, s in self._state.items() if s is MemberState.DEAD
            ),
        )
