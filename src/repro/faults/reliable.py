"""A reliable delivery protocol on top of the packet simulator.

The :class:`~repro.simulation.packet_network.PacketNetwork` is
fire-and-forget: with a fault injector attached, copies vanish in
flight.  This module layers the classic end-to-end recipe on top:

- **acks** — every application-level arrival is acknowledged back to
  the sender over the same (lossy) network;
- **retries** — an unacknowledged target is retransmitted after an
  exponential-backoff timeout with *deterministic* jitter (derived
  from ``(seed, message, target, attempt)``, never a wall clock);
- **bounded budget** — after ``max_attempts`` data sends the transport
  gives up and reports the target, so failures are loud, not silent;
- **dedup** — receivers keep a per-subscriber set of seen message
  keys, so at-least-once retransmission (and injected duplication)
  yields exactly-once *application* delivery;
- **reroute** — given a failure detector (the injector's
  :meth:`~repro.faults.plan.FaultInjector.state_at`), retries after the
  first few attempts are routed around known-dead links and nodes over
  the surviving graph — the unicast-fallback half of graceful
  degradation.

The first attempt for a message may be a shared multicast pass (the
caller supplies it); retries are always per-target unicasts, which is
exactly the tree-repair-or-fallback behaviour the broker layer needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from ..network.routing import SurvivingGraphs
from ..overload.breaker import BreakerBoard
from ..simulation.packet_network import PacketNetwork
from ..telemetry.base import Telemetry, or_null, tally
from ..telemetry.tracing import Span
from .plan import FaultState

__all__ = [
    "FailureReason",
    "RetryConfig",
    "ReliabilityStats",
    "ReliableTransport",
]

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
# numpy's SeedSequence multiplies its hash constant on at every use, so
# with four entropy words each hash has fixed constants: call c XORs
# with _A[c] and multiplies by _A[c + 1]; output word c likewise, _B.
_A = [0x43B0D7E5 * pow(0x931E8875, c, 1 << 32) & _M32 for c in range(17)]
_B = [0x8B51F9DD * pow(0x58F38DED, c, 1 << 32) & _M32 for c in range(9)]
_IN = list(zip(_A[:4], _A[1:5]))
_PAIRS = [(s, d) for s in range(4) for d in range(4) if s != d]
_MIX = [(s, d, _A[c], _A[c + 1]) for c, (s, d) in enumerate(_PAIRS, 4)]
_OUT = [(c & 3, _B[c], _B[c + 1]) for c in range(8)]


def _first_double(words: Tuple[int, int, int, int]) -> float:
    """``np.random.default_rng(words).random()`` for words in [0, 2**32):
    ``SeedSequence``'s pool and ``generate_state(4, uint64)``, then
    ``pcg64_set_seed`` and one XSL-RR output, as a double."""
    pool = []
    for w, (xor, mult) in zip(words, _IN):
        w = (w ^ xor) * mult & _M32
        pool.append(w ^ w >> 16)
    for src, dst, xor, mult in _MIX:
        w = (pool[src] ^ xor) * mult & _M32
        w = 0xCA01F9DD * pool[dst] - 0x4973F715 * (w ^ w >> 16) & _M32
        pool[dst] = w ^ w >> 16
    out = []
    for src, xor, mult in _OUT:
        w = (pool[src] ^ xor) * mult & _M32
        out.append(w ^ w >> 16)
    seed = out[1] << 96 | out[0] << 64 | out[3] << 32 | out[2]
    inc = (out[5] << 96 | out[4] << 64 | out[7] << 32 | out[6]) << 1 | 1
    mult = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit multiplier
    state = ((inc + seed) * mult + inc) * mult + inc
    w, rotate = (state >> 64 ^ state) & _M64, state >> 122 & 63
    return (((w >> rotate | w << 64 - rotate) & _M64) >> 11) * 2.0**-53


class FailureReason(str):
    """A give-up reason carrying a machine-readable code.

    A plain ``str`` subclass so every existing consumer of the
    ``on_give_up`` reason (ledgers, reports, format strings) keeps
    working unchanged; new consumers (the dead-letter queue) branch on
    :attr:`code` instead of parsing prose.  Codes:

    - ``"timeout"`` — the retry budget died without a single response;
    - ``"nack"`` — the receiver actively rejected at least one attempt
      (a poison delivery, not a connectivity problem);
    - ``"breaker-open"`` — an open circuit breaker short-circuited the
      target before any send.
    """

    TIMEOUT = "timeout"
    NACK = "nack"
    BREAKER_OPEN = "breaker-open"

    code: str

    def __new__(cls, text: str, code: str) -> FailureReason:
        reason = super().__new__(cls, text)
        reason.code = code
        return reason


@dataclass(frozen=True)
class RetryConfig:
    """Timing and budget knobs of the ack/retry protocol.

    ``ack_timeout`` is the base retransmission timeout (time units of
    the simulator); attempt ``n``'s timer is ``ack_timeout *
    backoff**(n-1)`` plus a deterministic jitter in ``[0, max_jitter)``.
    ``reroute_after`` is the attempt count from which retries consult
    the failure detector for a path around dead components.
    """

    ack_timeout: float = 100.0
    backoff: float = 1.5
    max_jitter: float = 1.0
    max_attempts: int = 6
    reroute_after: int = 2

    def __post_init__(self) -> None:
        if self.ack_timeout <= 0:
            raise ValueError("ack_timeout must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_jitter < 0:
            raise ValueError("max_jitter must be non-negative")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.reroute_after < 1:
            raise ValueError("reroute_after must be >= 1")

    def timeout_for(self, attempt: int) -> float:
        """Retransmission timeout armed after sending attempt ``attempt``."""
        return self.ack_timeout * self.backoff ** (attempt - 1)

    @classmethod
    def for_network(cls, network: PacketNetwork, **overrides) -> RetryConfig:
        """A config whose base timeout safely exceeds the network RTT.

        Uses the routing table's diameter (worst finite shortest-path
        cost) to bound one-way propagation; the slack covers per-hop
        transmission times and moderate queueing.
        """
        diameter = network.routing.diameter()
        base = (
            2.5 * diameter * network.propagation_scale
            + 20.0 * network.transmission_time
            + 5.0
        )
        overrides.setdefault("ack_timeout", base)
        return cls(**overrides)


@dataclass
class ReliabilityStats:
    """Protocol-level counters for one run, exposed as ``transport.*``."""

    messages: int = tally()       # publish() calls
    tracked: int = 0              # (message, target) deliveries tracked
    acked: int = tally()
    retries: int = tally("data retransmissions")
    reroutes: int = tally("retries sent on a detector-chosen path")
    redirected: int = tally("deliveries re-addressed to an epoch successor")
    acks_sent: int = tally()
    duplicates_suppressed: int = tally("data copies deduped at receivers")
    gave_up: int = tally("targets abandoned after the retry budget")
    short_circuited: int = tally(
        "targets fast-failed by an open circuit breaker"
    )
    wiped: int = tally("in-flight deliveries lost to a broker crash")
    nacks_sent: int = tally("receiver-side delivery rejections sent")
    nacks_received: int = tally("delivery rejections that reached the sender")
    cancelled: int = tally("in-flight deliveries withdrawn on session detach")


class _Pending:
    """Sender-side state for one (message, target) delivery."""

    __slots__ = (
        "source", "target", "attempts", "acked", "failed", "nacks", "span",
    )

    def __init__(self, source: int, target: int):
        self.source = source
        self.target = target
        self.attempts = 0
        self.acked = False
        self.failed = False
        self.nacks = 0
        self.span: Optional[Span] = None


class ReliableTransport:
    """At-least-once retransmission + receiver dedup = exactly-once.

    Parameters
    ----------
    network:
        The (possibly fault-injected) packet network to send over.
    config:
        Retry/timeout knobs; defaults to :class:`RetryConfig`.
    seed:
        Seeds the deterministic retry jitter.  Jitter for attempt ``a``
        of message ``m`` to target ``t`` depends only on
        ``(seed, m, t, a)``, so reruns are bit-identical regardless of
        event interleaving.
    detector:
        Optional failure detector exposing ``state_at(time) ->
        FaultState`` (a :class:`~repro.faults.plan.FaultInjector`
        fits).  Enables rerouting retries around dead components.
    graph:
        The physical topology graph used to compute surviving paths;
        defaults to ``network.topology.graph``.
    on_deliver:
        ``(target, key, time)`` — called exactly once per (message,
        target) at first application-level arrival.
    on_give_up:
        ``(target, key, reason)`` — called when the retry budget for a
        target is exhausted, or when an open circuit breaker
        short-circuits the target up front.
    on_ack:
        ``(target, key, time)`` — called once per (message, target)
        when the sender-side ack lands.  This is the durability hook:
        a :class:`~repro.durability.journal.BrokerJournal` journals
        the delivery completion here, so recovery knows which targets
        are definitively done.
    breakers:
        Optional :class:`~repro.overload.breaker.BreakerBoard`.  When
        present, each target's breaker gates :meth:`publish`: an OPEN
        breaker fails the target immediately ("short circuit") without
        consuming any retry budget; acked deliveries feed the breaker
        success, exhausted budgets feed it failure, so a permanently
        dead subscriber is isolated after ``failure_threshold``
        give-ups and re-probed once per ``reset_timeout``.
    acceptor:
        Optional receiver-side gate ``(target, key, time) -> bool``
        consulted at each *first* application-level arrival.  ``True``
        accepts (deliver + ack, the default behaviour); ``False``
        rejects the delivery with a **nack** back to the sender — the
        poison-message path.  A nacked delivery is not marked seen, so
        retries keep re-offering it; when the retry budget dies after
        at least one nack the give-up reason carries code ``"nack"``
        instead of ``"timeout"``, which is what lets a dead-letter
        queue distinguish a poison payload from a dead subscriber.
    directory:
        Optional role directory exposing ``resolve(node) -> int`` (an
        :class:`~repro.replication.epoch.EpochDirectory` fits).
        Targets are resolved at publish time and re-resolved at every
        retry timeout, so a retry addressed to a fenced ex-primary
        migrates — retry budget reset — to the epoch's new holder
        instead of burning its attempts (and the old node's breaker)
        against a node that will never ack.
    """

    def __init__(
        self,
        network: PacketNetwork,
        config: Optional[RetryConfig] = None,
        seed: int = 0,
        detector=None,
        graph: Optional[nx.Graph] = None,
        on_deliver: Optional[Callable[[int, int, float], None]] = None,
        on_give_up: Optional[Callable[[int, int, str], None]] = None,
        telemetry: Optional[Telemetry] = None,
        breakers: Optional[BreakerBoard] = None,
        on_ack: Optional[Callable[[int, int, float], None]] = None,
        directory=None,
        acceptor: Optional[Callable[[int, int, float], bool]] = None,
    ):
        self.network = network
        self.simulator = network.simulator
        self.config = config or RetryConfig()
        self.seed = int(seed)
        self.detector = detector
        self.graph = graph if graph is not None else network.topology.graph
        #: ``graph`` minus each fault state's dead parts, one per state;
        #: the harness driving this transport asks it too.
        self.surviving = SurvivingGraphs(self.graph)
        self.on_deliver = on_deliver or (lambda target, key, time: None)
        self.on_give_up = on_give_up or (lambda target, key, reason: None)
        self.on_ack = on_ack or (lambda target, key, time: None)
        self.telemetry = or_null(telemetry)
        self.breakers = breakers
        self.directory = directory
        self.acceptor = acceptor
        self.stats = ReliabilityStats()
        self.telemetry.expose_tallies("transport", self.stats)
        self._pending: Dict[Tuple[int, int], _Pending] = {}
        self._seen: Dict[int, Set[int]] = {}
        self._path_cache: Dict[tuple, Optional[List[int]]] = {}
        self._ack_spans: Dict[Tuple[int, int], Span] = {}

    # -- sender side ---------------------------------------------------------

    def publish(
        self,
        key: int,
        source: int,
        targets: Sequence[int],
        first_pass: Optional[Callable[[Callable[[int, float], None]], None]] = None,
        parent_span: Optional[Span] = None,
    ) -> None:
        """Reliably deliver message ``key`` from ``source`` to ``targets``.

        ``key`` must be a non-negative integer unique per message (an
        event sequence number); receivers dedup on it.  When
        ``first_pass`` is given it is called with the arrival callback
        and must perform attempt #1 itself (e.g. one multicast down a
        group tree); otherwise attempt #1 is one unicast per target.
        Either way, retries are per-target unicasts.

        With telemetry attached, each tracked target gets a ``deliver``
        span (child of ``parent_span``, typically the publisher's
        ``route`` span) that closes at first application-level arrival
        — or with status ``gave_up`` when the retry budget dies.
        """
        key = int(key)
        if key < 0:
            raise ValueError(f"message key must be non-negative (got {key})")
        source = int(source)
        targets = [self._resolve(t) for t in targets]
        self.stats.messages += 1
        telemetry = self.telemetry
        if self.breakers is not None:
            targets = self._gate_targets(key, targets, parent_span)
        for target in targets:
            pending = _Pending(source, target)
            if telemetry.enabled:
                pending.span = telemetry.start_span(
                    "deliver",
                    trace_id=key,
                    parent=parent_span,
                    target=target,
                )
            self._pending[(key, target)] = pending
            self.stats.tracked += 1
        if first_pass is not None:
            first_pass(self._receiver(key, source))
            for target in targets:
                pending = self._pending[(key, target)]
                pending.attempts = 1
                self._arm_timer(key, target)
        else:
            for target in targets:
                self._send_data(key, target, path=None)

    def _gate_targets(
        self,
        key: int,
        targets: List[int],
        parent_span: Optional[Span],
    ) -> List[int]:
        """Drop targets whose breaker is OPEN; they fail fast, untracked.

        A short-circuited target still gets an immediate
        ``on_give_up`` (the failure is loud) and shows up in
        :meth:`failed`, but costs zero transmissions and zero retry
        budget.  A breaker past its reset timeout admits the target as
        its HALF_OPEN probe.
        """
        now = self.simulator.now
        admitted: List[int] = []
        telemetry = self.telemetry
        for target in targets:
            if self.breakers.allow(target, now):
                admitted.append(target)
                continue
            pending = _Pending(-1, target)
            pending.failed = True
            self._pending[(key, target)] = pending
            self.stats.short_circuited += 1
            if telemetry.enabled:
                telemetry.event(
                    "short-circuit", parent=parent_span, target=target
                )
            self.on_give_up(
                target,
                key,
                FailureReason(
                    "short-circuited (breaker open)",
                    FailureReason.BREAKER_OPEN,
                ),
            )
        return admitted

    def _resolve(self, node: int) -> int:
        """The directory's current holder of ``node``'s role."""
        node = int(node)
        if self.directory is None:
            return node
        return int(self.directory.resolve(node))

    def _redirect(self, key: int, target: int, new: int) -> bool:
        """Move one pending delivery to the target's epoch successor.

        The pending entry migrates to the ``(key, new)`` slot — acks
        from the new node look themselves up there — with a fresh
        retry budget, and the data goes out immediately.  Timers still
        armed for the old slot find it empty and no-op.  Returns False
        (nothing to do) when the new slot is already tracked.
        """
        pending = self._pending.pop((key, target))
        self.stats.redirected += 1
        if self.telemetry.enabled:
            self.telemetry.event(
                "redirect", parent=pending.span, target=target, new=new
            )
        if (key, new) in self._pending:
            # The message already tracks the successor (it was a
            # target in its own right); drop the stale slot.
            if pending.span is not None:
                pending.span.finish(status="redirected")
            return False
        pending.target = new
        pending.attempts = 0
        self._pending[(key, new)] = pending
        self._send_data(key, new, path=None)
        return True

    def _receiver(
        self, key: int, source: int
    ) -> Callable[[int, float], None]:
        """The network-level arrival callback for one message."""
        return lambda node, time: self.data_arrived(key, source, node, time)

    def _send_data(
        self, key: int, target: int, path: Optional[List[int]]
    ) -> None:
        pending = self._pending[(key, target)]
        pending.attempts += 1
        if pending.attempts > 1:
            self.stats.retries += 1
            if self.telemetry.enabled:
                self.telemetry.event(
                    "retry",
                    parent=pending.span,
                    attempt=pending.attempts,
                    rerouted=path is not None,
                )
        receive = self._receiver(key, pending.source)
        if path is not None:
            self.network.send_along(path, receive)
        else:
            self.network.send_unicast(pending.source, target, receive)
        self._arm_timer(key, target)

    def _arm_timer(self, key: int, target: int) -> None:
        pending = self._pending[(key, target)]
        attempt = pending.attempts
        delay = self.config.timeout_for(attempt) + self._jitter(
            key, target, attempt
        )
        self.simulator.schedule(
            delay, lambda: self._timeout(key, target, attempt)
        )

    def _jitter(self, key: int, target: int, attempt: int) -> float:
        """Deterministic per-(message, target, attempt) jitter."""
        if self.config.max_jitter <= 0:
            return 0.0
        words = (self.seed, int(key), int(target), int(attempt))
        if 0 <= min(words) and max(words) <= _M32:
            unit = _first_double(words)
        else:  # a wider or negative word: numpy's own seeding
            unit = np.random.default_rng(words).random()
        return float(unit * self.config.max_jitter)

    def _timeout(self, key: int, target: int, attempt: int) -> None:
        pending = self._pending.get((key, target))
        if (
            pending is None
            or pending.acked
            or pending.failed
            or pending.attempts != attempt
        ):
            return
        new_target = self._resolve(target)
        if new_target != target:
            self._redirect(key, target, new_target)
            return
        if pending.attempts >= self.config.max_attempts:
            pending.failed = True
            self.stats.gave_up += 1
            if pending.span is not None:
                pending.span.finish(status="gave_up")
            if self.breakers is not None:
                self.breakers.record_failure(target, self.simulator.now)
            if pending.nacks > 0:
                reason = FailureReason(
                    "retry budget exhausted "
                    f"(rejected by receiver, {pending.nacks} nacks)",
                    FailureReason.NACK,
                )
            else:
                reason = FailureReason(
                    "retry budget exhausted", FailureReason.TIMEOUT
                )
            self.on_give_up(target, key, reason)
            return
        path = None
        if (
            self.detector is not None
            and pending.attempts >= self.config.reroute_after
        ):
            path = self._alternate_path(pending.source, target)
            if path is not None:
                self.stats.reroutes += 1
        self._send_data(key, target, path)

    def _alternate_path(
        self, source: int, target: int
    ) -> Optional[List[int]]:
        """A shortest path over the currently-surviving graph.

        Returns ``None`` when the detector reports nothing dead, when
        no surviving path exists (wait for a restart instead), or when
        the surviving path is the default one anyway.
        """
        state: FaultState = self.detector.state_at(self.simulator.now)
        if state.clear:
            return None
        cache_key = (state.dead_nodes, state.dead_links, source, target)
        if cache_key in self._path_cache:
            return self._path_cache[cache_key]
        path = self.surviving.path(
            source, target, state.dead_nodes, state.dead_links
        )
        if path is not None and path == self.network.routing.path(
            source, target
        ):
            path = None
        self._path_cache[cache_key] = path
        return path

    # -- receiver side -------------------------------------------------------

    def data_arrived(
        self, key: int, source: int, target: int, time: float
    ) -> None:
        """A data copy reached ``target``: dedup, deliver, ack.

        Duplicates (retransmissions or injected duplication) are
        suppressed before the application sees them, but always
        re-acked — the duplicate usually means the previous ack died.
        A delivery the :attr:`acceptor` rejects is nacked instead and
        *not* marked seen, so the sender's retries keep offering it
        (the receiver may recover) until the budget dies with a
        ``"nack"``-coded reason.
        """
        seen = self._seen.setdefault(target, set())
        if key not in seen and self.acceptor is not None:
            if not self.acceptor(target, key, time):
                self._send_nack(key, source, target)
                return
        if key in seen:
            self.stats.duplicates_suppressed += 1
            if self.telemetry.enabled:
                pending = self._pending.get((key, target))
                if pending is not None and pending.span is not None:
                    # A delivery re-handed after a crash or a takeover
                    # to a receiver that already had the event closes
                    # here (no-op once closed at first arrival), or its
                    # ``retry`` / ``ack`` children would hang off nothing.
                    pending.span.finish(time=time, status="duplicate")
        else:
            seen.add(key)
            if self.telemetry.enabled:
                self.telemetry.counter(
                    "transport.delivered",
                    help="first application-level deliveries",
                ).inc()
                pending = self._pending.get((key, target))
                if pending is not None and pending.span is not None:
                    pending.span.set_attribute(
                        "attempts", max(1, pending.attempts)
                    ).finish(time=time)
            self.on_deliver(target, key, time)
        self._send_ack(key, source, target)

    def _send_ack(self, key: int, source: int, target: int) -> None:
        self.stats.acks_sent += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            pending = self._pending.get((key, target))
            if (
                pending is not None
                and pending.span is not None
                and (key, target) not in self._ack_spans
            ):
                # Trace the first ack attempt per (message, target);
                # re-acks of duplicates share its fate.
                self._ack_spans[(key, target)] = telemetry.start_span(
                    "ack", parent=pending.span, target=target
                )
        if target == source:
            self._ack_arrived(key, target)
            return
        arrived = lambda _node, _time: self._ack_arrived(key, target)
        # Acks route around known-dead components too — an ack that
        # insists on a dead default path would never return, and the
        # sender would burn its whole retry budget on a message the
        # application already has.
        path = (
            self._alternate_path(target, source)
            if self.detector is not None
            else None
        )
        if path is not None:
            self.network.send_along(path, arrived)
        else:
            self.network.send_unicast(target, source, arrived)

    def _send_nack(self, key: int, source: int, target: int) -> None:
        """Return a rejection to the sender over the same lossy network."""
        self.stats.nacks_sent += 1
        if target == source:
            self._nack_arrived(key, target)
            return
        arrived = lambda _node, _time: self._nack_arrived(key, target)
        self.network.send_unicast(target, source, arrived)

    def _nack_arrived(self, key: int, target: int) -> None:
        pending = self._pending.get((key, target))
        if pending is None or pending.acked or pending.failed:
            return
        pending.nacks += 1
        self.stats.nacks_received += 1
        if pending.span is not None:
            self.telemetry.event(
                "nack", parent=pending.span, nacks=pending.nacks
            )

    def _ack_arrived(self, key: int, target: int) -> None:
        pending = self._pending.get((key, target))
        if pending is None or pending.acked:
            return
        pending.acked = True
        self.stats.acked += 1
        if self.breakers is not None:
            self.breakers.record_success(target, self.simulator.now)
        if self.telemetry.enabled:
            ack_span = self._ack_spans.pop((key, target), None)
            if ack_span is not None:
                ack_span.finish()
        self.on_ack(target, key, self.simulator.now)

    # -- crash support -------------------------------------------------------

    def wipe_pending(self) -> List[Tuple[int, int]]:
        """Forget every in-flight delivery — the crash model's hook.

        A broker crash loses the sender-side retry state: timers,
        attempt counts, the lot.  This removes every (key, target)
        that is neither acked nor failed *without* firing
        ``on_give_up`` or feeding the breakers (the sender did not
        decide anything; it simply ceased to exist).  Outstanding
        retry timers become no-ops because their pending entry is
        gone.  Returns the wiped pairs, sorted, so recovery can check
        them against the WAL's reconstructed in-flight set.

        Receiver-side dedup state is deliberately kept: subscriber
        nodes did not crash, so post-recovery redelivery of an
        already-delivered message is suppressed exactly-once-style.
        """
        wiped = sorted(
            pair
            for pair, pending in self._pending.items()
            if not pending.acked and not pending.failed
        )
        for pair in wiped:
            pending = self._pending.pop(pair)
            if pending.span is not None:
                pending.span.finish(status="wiped")
            ack_span = self._ack_spans.pop(pair, None)
            if ack_span is not None:
                ack_span.finish(status="wiped")
        self.stats.wiped += len(wiped)
        return wiped

    def cancel_target(self, target: int) -> List[int]:
        """Withdraw every in-flight delivery addressed to ``target``.

        The session layer's detach hook: when a subscriber disconnects
        (or its node crashes), its unacked deliveries must stop
        consuming retry budget *without* being declared failed — the
        session keeps them outstanding and the catch-up replayer will
        re-send them on resume.  Like :meth:`wipe_pending` this fires
        neither ``on_give_up`` nor the breakers; unlike it, it is
        scoped to one target and keeps that target's dedup state (the
        replay path relies on it to suppress redelivery of anything
        the application already consumed).  Returns the cancelled
        message keys, sorted.
        """
        target = int(target)
        cancelled = sorted(
            key
            for (key, node), pending in self._pending.items()
            if node == target and not pending.acked and not pending.failed
        )
        for key in cancelled:
            pending = self._pending.pop((key, target))
            if pending.span is not None:
                pending.span.finish(status="cancelled")
            ack_span = self._ack_spans.pop((key, target), None)
            if ack_span is not None:
                ack_span.finish(status="cancelled")
        self.stats.cancelled += len(cancelled)
        return cancelled

    # -- introspection -------------------------------------------------------

    def failed(self) -> List[Tuple[int, int]]:
        """(key, target) pairs whose retry budget was exhausted."""
        return [
            pair
            for pair, pending in self._pending.items()
            if pending.failed
        ]
