"""Deterministic, seedable fault injection for the delivery substrate.

The paper's cost model assumes every link delivers and every broker
stays up.  This module supplies the adversary: a declarative
:class:`FaultPlan` describing *what can go wrong* — per-link loss,
duplication and delay rates, link outage windows, broker crash/restart
windows — and a :class:`FaultInjector` that plays the plan out against
individual transmissions.

Determinism is the design constraint everything here bends around:

- probabilistic decisions (drop / duplicate / delay draws) come from a
  single ``numpy`` generator seeded from the plan, consumed in
  transmission order — and the discrete-event engine guarantees the
  transmission order itself is reproducible;
- windowed faults (outages, crashes) are pure functions of simulation
  time, using half-open ``[start, end)`` windows;
- no wall clock, no global RNG, anywhere.

A default-constructed plan injects nothing, and the injector hook in
:class:`~repro.simulation.packet_network.PacketNetwork` is skipped
entirely when no injector is attached, so the fault machinery is
zero-cost when disabled.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

__all__ = [
    "LinkFault",
    "LinkOutage",
    "BrokerCrash",
    "BrokerKill",
    "WalCorruption",
    "FaultPlan",
    "FaultState",
    "FaultStats",
    "TransmissionFate",
    "FaultInjector",
]


def _link_key(u: int, v: int) -> Tuple[int, int]:
    """Canonical undirected link identity."""
    u, v = int(u), int(v)
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class LinkFault:
    """Stochastic misbehaviour of one (undirected) link.

    ``loss``/``duplicate`` are per-transmission probabilities; ``delay``
    is the maximum extra latency, drawn uniformly per transmission.  A
    ``loss`` of 1.0 makes the link effectively dead — the failure
    detector (:meth:`FaultInjector.state_at`) reports it as such.
    """

    u: int
    v: int
    loss: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(
                f"LinkFault: loss must lie in [0, 1] (got {self.loss})"
            )
        if not 0.0 <= self.duplicate <= 1.0:
            raise ValueError(
                f"LinkFault: duplicate must lie in [0, 1] "
                f"(got {self.duplicate})"
            )
        if self.delay < 0.0:
            raise ValueError(
                f"LinkFault: delay must be non-negative (got {self.delay})"
            )


@dataclass(frozen=True)
class LinkOutage:
    """A link is completely dead during ``[start, end)``."""

    u: int
    v: int
    start: float
    end: float

    def __post_init__(self) -> None:
        # A plain raise, not an assert: the validation must survive
        # ``python -O``, where asserts are stripped.
        if not self.start < self.end:
            detail = (
                "a zero-length window never activates"
                if self.start == self.end
                else "the window is inverted"
            )
            raise ValueError(
                f"LinkOutage: window must satisfy start < end "
                f"(got [{self.start}, {self.end}): {detail})"
            )

    def active(self, time: float) -> bool:
        return self.start <= time < self.end


@dataclass(frozen=True)
class BrokerCrash:
    """A node (broker/relay) is down during ``[start, end)``.

    While down it neither sends, forwards nor receives; at ``end`` it
    restarts.  Receiver-side protocol state (the dedup ledger) is
    modelled as durable across restarts, as a store-and-forward broker
    would journal it.
    """

    node: int
    start: float
    end: float

    def __post_init__(self) -> None:
        # A plain raise, not an assert: the validation must survive
        # ``python -O``, where asserts are stripped.
        if not self.start < self.end:
            detail = (
                "a zero-length window never activates"
                if self.start == self.end
                else "the window is inverted"
            )
            raise ValueError(
                f"BrokerCrash: window must satisfy start < end "
                f"(got [{self.start}, {self.end}): {detail})"
            )

    def active(self, time: float) -> bool:
        return self.start <= time < self.end


@dataclass(frozen=True)
class BrokerKill:
    """A node is *permanently* dead from ``at`` onwards (fail-stop).

    Unlike :class:`BrokerCrash` there is no restart: the node never
    sends, forwards or receives again.  This is the fault class that
    motivates replication — a crashed broker recovers itself from its
    own WAL, a killed broker can only be succeeded by a standby
    holding a shipped copy of that WAL.
    """

    node: int
    at: float

    def __post_init__(self) -> None:
        # A plain raise, not an assert: the validation must survive
        # ``python -O``, where asserts are stripped.
        if self.at < 0.0:
            raise ValueError(
                f"BrokerKill: at must be non-negative (got {self.at})"
            )

    def active(self, time: float) -> bool:
        return time >= self.at


@dataclass(frozen=True)
class WalCorruption:
    """Storage damage applied to a broker's own WAL when it crashes.

    One recovery rule covers both failures: a crashed broker restarts
    from its own WAL, a killed one (:class:`BrokerKill`) is succeeded
    by a standby holding a shipped copy.  This damage belongs to the
    first: ``crash_index`` selects which crash window (in plan order)
    it rides on, and the crashed shard home's WAL takes it — the crash
    *is* the corruption moment: a torn tail models an append cut short
    by the power loss, a bit flip models media rot discovered on
    restart.

    ``kind``:

    - ``"torn-tail"`` — the last ``tail_bytes`` bytes never hit disk;
    - ``"bit-flip"`` — flip bit ``flip_bit`` of the byte
      ``flip_offset`` positions back from the physical end.

    Either way, recovery must truncate at the last CRC-valid record
    and replay the rest deterministically — that is what
    :mod:`repro.durability` exists to guarantee and what the chaos
    verifier checks.
    """

    crash_index: int = 0
    kind: str = "torn-tail"
    tail_bytes: int = 5
    flip_offset: int = 3
    flip_bit: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("torn-tail", "bit-flip"):
            raise ValueError(
                f"WalCorruption: kind must be 'torn-tail' or 'bit-flip' "
                f"(got {self.kind!r})"
            )
        if self.crash_index < 0:
            raise ValueError(
                f"WalCorruption: crash_index must be >= 0 "
                f"(got {self.crash_index})"
            )
        if self.tail_bytes < 1:
            raise ValueError(
                f"WalCorruption: tail_bytes must be >= 1 "
                f"(got {self.tail_bytes})"
            )
        if self.flip_offset < 1:
            raise ValueError(
                f"WalCorruption: flip_offset must be >= 1 "
                f"(got {self.flip_offset})"
            )
        if not 0 <= self.flip_bit <= 7:
            raise ValueError(
                f"WalCorruption: flip_bit must lie in 0..7 "
                f"(got {self.flip_bit})"
            )

    def apply(self, wal) -> bool:
        """Damage ``wal`` in place; True if anything actually changed."""
        if self.kind == "torn-tail":
            return wal.tear_tail(self.tail_bytes) > 0
        return wal.flip_bit(self.flip_offset, self.flip_bit)


@dataclass(frozen=True)
class FaultPlan:
    """Everything that will go wrong in one run, declaratively.

    The default plan is empty: no loss, no outages, no crashes.
    ``default_loss``/``default_duplicate``/``default_delay`` apply to
    every link; per-link :class:`LinkFault` entries override the
    defaults for their link entirely.
    """

    seed: int = 0
    default_loss: float = 0.0
    default_duplicate: float = 0.0
    default_delay: float = 0.0
    link_faults: Tuple[LinkFault, ...] = ()
    outages: Tuple[LinkOutage, ...] = ()
    crashes: Tuple[BrokerCrash, ...] = ()
    #: Permanent fail-stop kills (sharded and cluster harnesses).
    broker_kills: Tuple[BrokerKill, ...] = ()
    #: Storage damage riding on crash windows: a crashed shard home
    #: restarts from its own damaged WAL (cluster harness, ``restart``).
    wal_corruptions: Tuple[WalCorruption, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.default_loss <= 1.0:
            raise ValueError(
                f"FaultPlan: default_loss must lie in [0, 1] "
                f"(got {self.default_loss})"
            )
        if not 0.0 <= self.default_duplicate <= 1.0:
            raise ValueError(
                f"FaultPlan: default_duplicate must lie in [0, 1] "
                f"(got {self.default_duplicate})"
            )
        if self.default_delay < 0.0:
            raise ValueError(
                f"FaultPlan: default_delay must be non-negative "
                f"(got {self.default_delay})"
            )
        object.__setattr__(self, "link_faults", tuple(self.link_faults))
        object.__setattr__(self, "outages", tuple(self.outages))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "broker_kills", tuple(self.broker_kills))
        object.__setattr__(
            self, "wal_corruptions", tuple(self.wal_corruptions)
        )

    @property
    def enabled(self) -> bool:
        """Whether the plan injects any fault at all."""
        return bool(
            self.default_loss
            or self.default_duplicate
            or self.default_delay
            or self.link_faults
            or self.outages
            or self.crashes
            or self.broker_kills
            or self.wal_corruptions
        )


@dataclass(frozen=True)
class FaultState:
    """The deterministic fault picture at one instant.

    ``dead_links`` holds canonical ``(min, max)`` node pairs: links in
    an active outage window plus permanently-lossy (``loss >= 1``)
    links.  This is what an omniscient failure detector would report;
    the reliable transport uses it to reroute around known-dead parts.
    """

    time: float
    dead_nodes: FrozenSet[int]
    dead_links: FrozenSet[Tuple[int, int]]

    def link_dead(self, u: int, v: int) -> bool:
        return (
            _link_key(u, v) in self.dead_links
            or int(u) in self.dead_nodes
            or int(v) in self.dead_nodes
        )

    @property
    def clear(self) -> bool:
        return not self.dead_nodes and not self.dead_links


@dataclass
class FaultStats:
    """What the injector actually did during one run."""

    transmissions_seen: int = 0
    random_drops: int = 0
    outage_drops: int = 0
    sender_down_drops: int = 0
    receiver_down_drops: int = 0
    duplicates_injected: int = 0
    delays_injected: int = 0


@dataclass(frozen=True)
class TransmissionFate:
    """What the injector decided for one link transmission.

    ``sent`` is False when the sending node was down (nothing entered
    the link); ``copies`` is 0 for any lost transmission, 1 normally,
    2 when duplicated.
    """

    sent: bool = True
    copies: int = 1
    extra_delay: float = 0.0


_DELIVER = TransmissionFate()
_SENDER_DOWN = TransmissionFate(sent=False, copies=0)
_LOST = TransmissionFate(sent=True, copies=0)

_DRAW_BLOCK = 1024  # doubles the injector takes from its generator at once


class FaultInjector:
    """Executes a :class:`FaultPlan` against individual transmissions.

    One injector instance is bound to one simulation run; call
    :meth:`reset` (or build a fresh injector) before replaying, so the
    probabilistic stream restarts from the plan's seed.

    The simulator asks about every transmission, and in most plans
    most nodes and links are never faulty, so the plan is indexed once
    and the common answers are one probe each:

    - ``_ever_down`` — the nodes some crash window or kill names.  Any
      other node is up at every instant: :meth:`node_down`,
      :meth:`arrival_blocked` and :meth:`filter_transmission` answer
      for it after one membership test, without converting it.
    - ``_outages`` / ``_faults`` — outage windows and stochastic
      faults per canonical link.  When a table is empty (no outage
      anywhere, no per-link fault anywhere) its probe, and the
      canonical key it would need, are skipped.
    - ``_edges`` — every instant at which the plan's fault picture can
      change: each window's start and end, each kill.  Windows are
      half-open ``[start, end)`` and a kill holds from ``at`` on, so
      :meth:`state_at` is **constant between consecutive edges**; it
      bisects the edges and computes an interval's dead sets the first
      time the interval is asked about.

    None of the tables touches the random stream: draws happen per
    transmission, in transmission order, handed out from blocks that
    ``random(n)`` draws (the doubles ``n`` scalar calls would give).
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._faults: Dict[Tuple[int, int], LinkFault] = {
            _link_key(f.u, f.v): f for f in plan.link_faults
        }
        self._permanently_dead: FrozenSet[Tuple[int, int]] = frozenset(
            key for key, f in self._faults.items() if f.loss >= 1.0
        )
        self._outages: Dict[Tuple[int, int], list] = {}
        for outage in plan.outages:
            self._outages.setdefault(_link_key(outage.u, outage.v), []).append(
                outage
            )
        self._crashes: Dict[int, list] = {}
        for crash in plan.crashes:
            self._crashes.setdefault(int(crash.node), []).append(crash)
        # Earliest kill per node; from that instant the node is dead for
        # good, so only the minimum matters.
        self._kills: Dict[int, float] = {}
        for kill in plan.broker_kills:
            node = int(kill.node)
            at = float(kill.at)
            if node not in self._kills or at < self._kills[node]:
                self._kills[node] = at
        self._ever_down: FrozenSet[int] = frozenset(self._crashes) | frozenset(
            self._kills
        )
        self._edges: List[float] = sorted(
            {
                edge
                for window in plan.outages + plan.crashes
                for edge in (window.start, window.end)
            }
            | set(self._kills.values())
        )
        #: Per interval between edges: ``(dead_nodes, dead_links)``, lazily.
        self._dead_between: List[Optional[tuple]] = [None] * (
            len(self._edges) + 1
        )
        self.reset()

    def reset(self) -> None:
        """Restart the probabilistic stream and zero the stats."""
        self._rng = np.random.default_rng(self.plan.seed)
        #: The undrawn rest of the current block, next double last.
        self._block: List[float] = []
        self.stats = FaultStats()

    def _uniform(self) -> float:
        if not self._block:
            self._block = self._rng.random(_DRAW_BLOCK).tolist()[::-1]
        return self._block.pop()

    def stream_state(self) -> dict:
        """The generator's state as of the last double handed out (one
        PCG64 step a double, so rewinding the undrawn block is exact)."""
        bit_generator = copy.deepcopy(self._rng.bit_generator)
        return bit_generator.advance(-len(self._block)).state

    # -- windowed faults -----------------------------------------------------

    def node_down(self, node: int, time: float) -> bool:
        """Whether a node is inside a crash window or permanently killed."""
        if node not in self._ever_down:
            return False
        node = int(node)
        kill = self._kills.get(node)
        if kill is not None and time >= kill:
            return True
        windows = self._crashes.get(node)
        if not windows:
            return False
        return any(w.active(time) for w in windows)

    def node_killed(self, node: int, time: float) -> bool:
        """Whether a node is *permanently* dead at ``time`` (no restart)."""
        kill = self._kills.get(int(node))
        return kill is not None and time >= kill

    def link_down(self, u: int, v: int, time: float) -> bool:
        """Whether a link is inside one of its outage windows."""
        windows = self._outages.get(_link_key(u, v))
        if not windows:
            return False
        return any(w.active(time) for w in windows)

    def arrival_blocked(self, node: int, time: float) -> bool:
        """Receiver-side check: a down node swallows arriving copies."""
        if node in self._ever_down and self.node_down(node, time):
            self.stats.receiver_down_drops += 1
            return True
        return False

    def state_at(self, time: float) -> FaultState:
        """The failure detector's view: dead nodes and links at ``time``.

        Includes permanently-lossy links (``loss >= 1``) — an oracle
        simplification standing in for a real link-state detector,
        which would learn the same fact from repeated timeouts.
        """
        interval = bisect_right(self._edges, time)
        dead = self._dead_between[interval]
        if dead is None:
            # The interval's own left end stands for all of it.
            start = self._edges[interval - 1] if interval else -math.inf
            dead = self._dead_between[interval] = self._dead_at(start)
        return FaultState(time=time, dead_nodes=dead[0], dead_links=dead[1])

    def _dead_at(
        self, time: float
    ) -> Tuple[FrozenSet[int], FrozenSet[Tuple[int, int]]]:
        """Every window and kill tested at ``time``."""
        dead_nodes = frozenset(
            node
            for node, windows in self._crashes.items()
            if any(w.active(time) for w in windows)
        ) | frozenset(
            node for node, at in self._kills.items() if time >= at
        )
        dead_links = frozenset(
            key
            for key, windows in self._outages.items()
            if any(w.active(time) for w in windows)
        ) | self._permanently_dead
        return dead_nodes, dead_links

    # -- the per-transmission decision -------------------------------------

    def filter_transmission(
        self, u: int, v: int, time: float
    ) -> TransmissionFate:
        """Decide the fate of one copy entering link ``(u, v)`` at ``time``."""
        self.stats.transmissions_seen += 1
        if u in self._ever_down and self.node_down(u, time):
            self.stats.sender_down_drops += 1
            return _SENDER_DOWN
        if self._outages and self.link_down(u, v, time):
            self.stats.outage_drops += 1
            return _LOST
        fault = self._faults.get(_link_key(u, v)) if self._faults else None
        if fault is not None:
            loss, duplicate, delay = fault.loss, fault.duplicate, fault.delay
        else:
            plan = self.plan
            loss = plan.default_loss
            duplicate = plan.default_duplicate
            delay = plan.default_delay
        if loss > 0.0 and (loss >= 1.0 or self._uniform() < loss):
            self.stats.random_drops += 1
            return _LOST
        copies = 1
        if duplicate > 0.0 and self._uniform() < duplicate:
            self.stats.duplicates_injected += 1
            copies = 2
        extra_delay = 0.0
        if delay > 0.0:
            extra_delay = self._uniform() * delay
            self.stats.delays_injected += 1
        if copies == 1 and extra_delay == 0.0:
            return _DELIVER
        return TransmissionFate(copies=copies, extra_delay=extra_delay)
