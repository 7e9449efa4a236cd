"""Catch-up replay: streaming the reconnect gap without drowning the live path.

When a durable session resumes, everything it is owed lies in the
retained log between its delivery cursor and the head.  The
:class:`CatchupReplayer` walks that gap in small batches, re-matching
each retained event against the session's subscriptions with the same
matching engine the live path uses (the paper's matcher, reused — see
``docs/paper-mapping.md``), and streams the hits through the ordinary
:class:`~repro.faults.reliable.ReliableTransport`.  Replay traffic is
therefore retried, deduplicated, breaker-gated and dead-letterable
exactly like live traffic — there is no second delivery machine.

Two properties keep replay from becoming its own overload event:

* **Flow control.**  Each replayed send spends a token from an
  optional :class:`~repro.overload.admission.TokenBucket`.  When the
  bucket runs dry the pump rewinds to the event it could not afford
  and reschedules itself for when the next token accrues, so a big
  backlog drains at a bounded rate instead of bursting into the
  network alongside live publishes.
* **Self-termination.**  The pump reschedules itself only while its
  session is still catching up.  The moment a read at ``replay_pos``
  comes back empty the gap is closed: the session is marked LIVE and
  the pump stops — no periodic timer survives convergence, which is
  what lets the discrete-event simulator's run loop terminate.

Events the session already settled (acked or dead-lettered) are
skipped via its ``done`` set; events delivered live but not yet acked
are re-sent and deduplicated by the transport's receiver-side dedup,
so the subscriber application never observes a duplicate.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from ..telemetry.base import Telemetry, or_null
from .session import SessionManager, SessionState, SubscriberSession

__all__ = ["CatchupReplayer"]


class CatchupReplayer:
    """Pumps ``[cursor, head)`` back to resumed sessions, budgeted.

    Parameters
    ----------
    manager:
        The broker's :class:`~repro.sessions.session.SessionManager`.
    transport:
        The :class:`~repro.faults.reliable.ReliableTransport` replayed
        events are sent through (same instance as the live path).
    source:
        Node id the replayed unicasts originate from (the home broker).
    simulator:
        The discrete-event simulator; the pump schedules itself on it.
    rematch:
        ``event -> set[subscription_id]`` — re-evaluates a retained
        event against the *current* subscription table.  Sessions see
        only the intersection with their own subscription ids.
    bucket:
        Optional token bucket bounding the replay send rate.
    batch:
        Max events examined per pump invocation.
    pump_interval:
        Delay between pump invocations while catching up.
    """

    def __init__(
        self,
        manager: SessionManager,
        transport,
        source: int,
        simulator,
        rematch: Callable[[object], Set[int]],
        bucket=None,
        batch: int = 8,
        pump_interval: float = 5.0,
        telemetry: Optional[Telemetry] = None,
    ):
        if batch < 1:
            raise ValueError(f"batch must be >= 1 (got {batch})")
        if pump_interval <= 0:
            raise ValueError(
                f"pump_interval must be positive (got {pump_interval})"
            )
        self.manager = manager
        self.transport = transport
        self.source = int(source)
        self.simulator = simulator
        self.rematch = rematch
        self.bucket = bucket
        self.batch = int(batch)
        self.pump_interval = float(pump_interval)
        self.telemetry = or_null(telemetry)
        self._pumping: Set[str] = set()
        self.replay_sends = 0
        self.telemetry.expose(
            "sessions.replay_sends", self, "replay_sends",
            help="retained events re-sent by catch-up replay",
        )
        self.throttled = 0
        self.convergences = 0

    # -- public --------------------------------------------------------------

    def start(self, session: SubscriberSession) -> None:
        """Begin (or continue) replaying for one catching-up session.

        Idempotent: a session already being pumped is not double-
        scheduled, so callers may invoke this on every demotion signal
        without bookkeeping.
        """
        session_id = session.session_id
        if session_id in self._pumping:
            return
        self._pumping.add(session_id)
        self.simulator.schedule(0.0, lambda: self._pump(session_id))

    @property
    def active(self) -> int:
        """How many sessions are currently being pumped."""
        return len(self._pumping)

    # -- the pump ------------------------------------------------------------

    def _lag_gauge(self, session: SubscriberSession, lag: int) -> None:
        if self.telemetry.enabled:
            self.telemetry.gauge(
                "sessions.replay_lag",
                help="retained-log bytes between replay position and head",
                session=session.session_id,
            ).set(lag)

    def _pump(self, session_id: str) -> None:
        session = self.manager.sessions.get(session_id)
        if (
            session is None
            or not session.durable
            or session.state is not SessionState.CATCHING_UP
        ):
            # Detached again, lease-expired, or already live: stop.
            self._pumping.discard(session_id)
            return
        sent = 0
        while sent < self.batch:
            events = self.manager.log.read(
                session.replay_pos, max_events=1
            )
            if not events:
                # Gap closed: everything retained up to the head has
                # been examined.  The session rejoins the live path.
                self._pumping.discard(session_id)
                self.manager.mark_live(session_id)
                self.convergences += 1
                self._lag_gauge(session, 0)
                if self.telemetry.enabled:
                    self.telemetry.event(
                        "replay-converged",
                        session=session_id,
                        replayed=session.replayed,
                    )
                return
            event = events[0]
            session.replay_pos = event.end_lsn
            if event.sequence in session.done:
                continue
            matched = self.rematch(event) & session.subscription_ids
            if not matched:
                continue
            if not session.is_outstanding(event.sequence):
                # Post-recovery: the obligation table was rebuilt empty
                # and this event predates the crash — re-charge it so
                # settlement advances the cursor past it.
                session.charge(
                    event.lsn,
                    event.sequence,
                    max(session.frontier, event.end_lsn),
                )
            if self.bucket is not None and not self.bucket.try_acquire(
                self.simulator.now
            ):
                # Budget exhausted: rewind to this event and come back
                # when the next token has accrued.
                session.replay_pos = event.lsn
                self.throttled += 1
                deficit = max(
                    0.0, 1.0 - self.bucket.tokens_at(self.simulator.now)
                )
                delay = max(deficit / self.bucket.rate, 1e-9)
                self.simulator.schedule(
                    delay, lambda: self._pump(session_id)
                )
                self._lag_gauge(session, session.frontier - session.replay_pos)
                return
            self.transport.publish(
                event.sequence, self.source, [session.subscriber]
            )
            session.replayed += 1
            self.replay_sends += 1
            sent += 1
        self._lag_gauge(session, session.frontier - session.replay_pos)
        self.simulator.schedule(
            self.pump_interval, lambda: self._pump(session_id)
        )
