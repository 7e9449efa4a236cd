"""Dead-letter quarantine: where undeliverable events go instead of looping.

At-least-once delivery has a failure mode worse than loss: a *poison*
event the subscriber rejects (or times out on) every single time.
Without a pressure-relief valve the retry machinery redelivers it
forever, the session's cursor pins behind it, and retention can never
reclaim the log prefix it sits in.

The :class:`DeadLetterQueue` is that valve.  When the transport
exhausts its retry budget for a session-charged event, the delivery is
**quarantined**: recorded here with a structured reason code (from
:class:`~repro.faults.reliable.FailureReason` — ``timeout``, ``nack``
or ``breaker-open``), and *settled* on the session via
``SessionManager.discard`` so the cursor advances past it.  The
ledger invariant stays closed — every matched event is exactly one of
delivered, dead-lettered, or expired-with-its-ephemeral-session — and
nothing is silently dropped: entries remain inspectable (``repro
sessions dlq``) and re-drivable once the operator fixes the consumer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..telemetry.base import Telemetry, or_null

__all__ = ["DeadLetterEntry", "DeadLetterQueue"]


@dataclass
class DeadLetterEntry:
    """One quarantined delivery (mutable: redrive bumps ``attempts``)."""

    sequence: int
    session_id: str
    subscriber: int
    #: Structured failure class: ``timeout``, ``nack`` or ``breaker-open``.
    reason_code: str
    #: Human-readable failure detail from the transport.
    reason: str
    quarantined_at: float
    #: Redrive attempts made since quarantine.
    attempts: int = 0


class DeadLetterQueue:
    """FIFO quarantine of poison deliveries, inspectable and re-drivable."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.clock = clock or (lambda: 0.0)
        self.telemetry = or_null(telemetry)
        self._entries: List[DeadLetterEntry] = []
        self.quarantined = 0
        self.redriven = 0
        self.telemetry.expose(
            "sessions.redriven", self, "redriven",
            help="quarantined deliveries successfully re-driven",
        )

    def __len__(self) -> int:
        return len(self._entries)

    def quarantine(
        self,
        sequence: int,
        session_id: str,
        subscriber: int,
        reason,
    ) -> DeadLetterEntry:
        """Record one exhausted delivery; returns the entry.

        ``reason`` may be a plain string or a
        :class:`~repro.faults.reliable.FailureReason`; the structured
        code is taken from the latter when present.
        """
        entry = DeadLetterEntry(
            sequence=int(sequence),
            session_id=str(session_id),
            subscriber=int(subscriber),
            reason_code=str(getattr(reason, "code", "timeout")),
            reason=str(reason),
            quarantined_at=float(self.clock()),
        )
        self._entries.append(entry)
        self.quarantined += 1
        if self.telemetry.enabled:
            self.telemetry.counter(
                "sessions.deadlettered",
                help="deliveries quarantined after retry exhaustion",
                reason=entry.reason_code,
            ).inc()
        return entry

    def entries(self) -> List[DeadLetterEntry]:
        """Current quarantine contents, oldest first (a copy)."""
        return list(self._entries)

    def by_reason(self) -> Dict[str, int]:
        """Entry counts per structured reason code."""
        counts: Dict[str, int] = {}
        for entry in self._entries:
            counts[entry.reason_code] = counts.get(entry.reason_code, 0) + 1
        return dict(sorted(counts.items()))

    def redrive(
        self, handler: Callable[[DeadLetterEntry], bool]
    ) -> List[DeadLetterEntry]:
        """Re-attempt every quarantined delivery through ``handler``.

        ``handler(entry) -> bool`` performs the redelivery; ``True``
        removes the entry from quarantine, ``False`` re-queues it with
        ``attempts`` incremented.  Returns the successfully redriven
        entries, in quarantine order.
        """
        pending = self._entries
        self._entries = []
        succeeded: List[DeadLetterEntry] = []
        for entry in pending:
            if handler(entry):
                succeeded.append(entry)
                self.redriven += 1
            else:
                entry.attempts += 1
                self._entries.append(entry)
        return succeeded
