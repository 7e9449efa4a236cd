"""Durable subscriber sessions: journaled cursors, leases, reconnects.

A :class:`SubscriberSession` is the broker-side memory of one
subscriber's connection.  It owns a **delivery cursor** — an LSN into
the :class:`~repro.sessions.log.RetainedEventLog` below which every
event this session matched has been settled (acked by the application
or quarantined to the dead-letter queue).  The cursor advances *only*
on settlement, never on send, which is what makes delivery
session-durable: a subscriber that crashes mid-stream finds its
cursor exactly where its acks stopped, and the catch-up replayer
(:mod:`repro.sessions.replay`) re-derives everything owed from
``[cursor, head)``.

Lifecycle::

    register ──▶ LIVE ──detach()──▶ DETACHED ──resume()──▶ CATCHING_UP
                  ▲                     │                      │
                  └──── replay converges┼──────────────────────┘
                                        │ lease expires
                                        ▼
                              demoted to ephemeral
                        (outstanding events expired, retention
                         hold released, cursor meaningless)

Every lifecycle transition and every cursor advance is journaled
through the broker's :class:`~repro.durability.journal.BrokerJournal`
(``SESSION`` / ``CURSOR`` records), so the cursor table ships to
replication standbys via the existing ``on_record`` tap, lands in
snapshots, and replays on crash recovery — sessions survive broker
failover with no machinery of their own.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..telemetry.base import Telemetry, or_null
from .log import RetainedEventLog

__all__ = ["SessionState", "SubscriberSession", "SessionManager"]


class SessionState(str, enum.Enum):
    """Where one session sits in its lifecycle."""

    LIVE = "live"                # attached, receiving events as published
    CATCHING_UP = "catching-up"  # attached, replaying the reconnect gap
    DETACHED = "detached"        # disconnected, lease ticking


class SubscriberSession:
    """Broker-side state of one durable subscriber connection."""

    def __init__(
        self,
        session_id: str,
        subscriber: int,
        subscription_ids: Iterable[int],
        lease: float,
        cursor: int = 0,
    ):
        if lease <= 0:
            raise ValueError(
                f"session lease must be positive (got {lease})"
            )
        self.session_id = str(session_id)
        self.subscriber = int(subscriber)
        self.subscription_ids: FrozenSet[int] = frozenset(
            int(s) for s in subscription_ids
        )
        self.lease = float(lease)
        self.state = SessionState.LIVE
        #: False once the lease expired: the session no longer holds
        #: retention, accrues no delivery obligations, and any resume
        #: is best-effort from the live frontier.
        self.durable = True
        self.detached_at: Optional[float] = None
        #: Everything the session matched below this LSN is settled.
        self.cursor = int(cursor)
        #: Log frontier the session has observed (cursor's resting
        #: point while nothing is outstanding).
        self.frontier = int(cursor)
        #: lsn → sequence of matched-but-unsettled events.
        self.outstanding: Dict[int, int] = {}
        self._lsn_by_seq: Dict[int, int] = {}
        #: Sequences settled at the application layer (ack or DLQ);
        #: the replay pump's skip set.
        self.done: set = set()
        #: Where the catch-up pump reads next (only meaningful while
        #: CATCHING_UP).
        self.replay_pos = int(cursor)
        # lifetime counters
        self.delivered = 0
        self.deadlettered = 0
        self.replayed = 0

    # -- cursor arithmetic ---------------------------------------------------

    def _recompute_cursor(self) -> bool:
        new = min(self.outstanding) if self.outstanding else self.frontier
        if new > self.cursor:
            self.cursor = new
            return True
        return False

    def charge(self, lsn: int, sequence: int, new_head: int) -> None:
        """One matched event becomes this session's obligation."""
        self.outstanding[int(lsn)] = int(sequence)
        self._lsn_by_seq[int(sequence)] = int(lsn)
        self.frontier = int(new_head)

    def observe(self, new_head: int) -> bool:
        """A non-matching event passed; idle cursors ride the frontier."""
        self.frontier = max(self.frontier, int(new_head))
        return self._recompute_cursor()

    def settle(self, sequence: int) -> Optional[bool]:
        """Remove one obligation; returns whether the cursor advanced
        (``None`` when the sequence was not outstanding)."""
        lsn = self._lsn_by_seq.pop(int(sequence), None)
        if lsn is None:
            return None
        del self.outstanding[lsn]
        self.done.add(int(sequence))
        return self._recompute_cursor()

    def rewind_to(self, sequence: int) -> None:
        """Point the replay pump back at an outstanding event."""
        lsn = self._lsn_by_seq.get(int(sequence))
        if lsn is not None:
            self.replay_pos = min(self.replay_pos, lsn)

    def is_outstanding(self, sequence: int) -> bool:
        return int(sequence) in self._lsn_by_seq

    @property
    def low_water(self) -> int:
        """The LSN retention must preserve for this session."""
        return min(self.outstanding) if self.outstanding else self.cursor

    @property
    def lag(self) -> int:
        """Bytes of retained log between cursor and frontier."""
        return max(0, self.frontier - self.cursor)

    def lease_deadline(self) -> Optional[float]:
        if self.detached_at is None:
            return None
        return self.detached_at + self.lease

    def to_state(self) -> Dict:
        state = {
            "subscriber": self.subscriber,
            "sids": sorted(self.subscription_ids),
            "state": self.state.value,
            "durable": self.durable,
            "cursor": self.cursor,
            "lease": self.lease,
        }
        if self.detached_at is not None:
            state["detached_at"] = float(self.detached_at)
        return state


class SessionManager:
    """The broker's session table: registration, leases, cursors.

    Parameters
    ----------
    log:
        The broker's :class:`~repro.sessions.log.RetainedEventLog`.
    journal:
        Optional :class:`~repro.durability.journal.BrokerJournal`;
        when present every lifecycle change and cursor advance is
        journaled (and therefore shipped/snapshotted/recovered).
    clock:
        Injected time source (the simulator's ``now``).
    default_lease:
        Lease granted to sessions that don't specify one: how long a
        detached session may hold retention before being demoted.
    """

    def __init__(
        self,
        log: RetainedEventLog,
        journal=None,
        clock: Optional[Callable[[], float]] = None,
        default_lease: float = 500.0,
        telemetry: Optional[Telemetry] = None,
    ):
        if default_lease <= 0:
            raise ValueError(
                f"default_lease must be positive (got {default_lease})"
            )
        self.log = log
        self.journal = journal
        self.clock = clock or (lambda: 0.0)
        self.default_lease = float(default_lease)
        self.telemetry = or_null(telemetry)
        self.sessions: Dict[str, SubscriberSession] = {}
        self.lease_expirations = 0
        self.telemetry.expose(
            "sessions.lease_expired", self, "lease_expirations",
            help="sessions demoted to ephemeral by lease expiry",
        )

    # -- journaling ----------------------------------------------------------

    def _journal_session(self, body: Dict) -> None:
        if self.journal is not None:
            self.journal.log_session({**body, "t": float(self.clock())})

    def _journal_cursor(self, session: SubscriberSession) -> None:
        if self.journal is not None:
            self.journal.log_cursor(session.session_id, session.cursor)

    def _count(self, name: str, help: str) -> None:
        if self.telemetry.enabled:
            self.telemetry.counter(f"sessions.{name}", help=help).inc()

    # -- lifecycle -----------------------------------------------------------

    def register(
        self,
        session_id: str,
        subscriber: int,
        subscription_ids: Iterable[int],
        lease: Optional[float] = None,
    ) -> SubscriberSession:
        """Create a durable session; its cursor starts at the live head."""
        session_id = str(session_id)
        if session_id in self.sessions:
            raise ValueError(
                f"session {session_id!r} is already registered"
            )
        session = SubscriberSession(
            session_id,
            subscriber,
            subscription_ids,
            lease=lease if lease is not None else self.default_lease,
            cursor=self.log.head,
        )
        self.sessions[session_id] = session
        self._journal_session(
            {
                "action": "register",
                "id": session_id,
                "subscriber": session.subscriber,
                "sids": sorted(session.subscription_ids),
                "lease": session.lease,
                "cursor": session.cursor,
            }
        )
        self._count("registered", "durable sessions registered")
        if self.telemetry.enabled:
            self.telemetry.start_span(
                "session-register",
                session=session_id,
                subscriber=session.subscriber,
            ).finish()
        return session

    def get(self, session_id: str) -> SubscriberSession:
        try:
            return self.sessions[str(session_id)]
        except KeyError:
            raise ValueError(f"unknown session {session_id!r}") from None

    def detach(self, session_id: str) -> SubscriberSession:
        """The subscriber disconnected; start the lease clock."""
        session = self.get(session_id)
        if session.state is SessionState.DETACHED:
            return session
        session.state = SessionState.DETACHED
        session.detached_at = float(self.clock())
        self._journal_session({"action": "detach", "id": session.session_id})
        self._count("detached", "session detaches")
        return session

    def resume(self, session_id: str) -> SubscriberSession:
        """The subscriber reconnected; catch-up replay owns it now."""
        session = self.get(session_id)
        session.state = SessionState.CATCHING_UP
        session.detached_at = None
        session.replay_pos = session.cursor
        self._journal_session({"action": "resume", "id": session.session_id})
        self._count("resumed", "session resumes")
        if self.telemetry.enabled:
            self.telemetry.start_span(
                "session-resume",
                session=session.session_id,
                lag=session.lag,
            ).finish()
        return session

    def mark_live(self, session_id: str) -> SubscriberSession:
        """Replay converged: the session rides the live path again."""
        session = self.get(session_id)
        session.state = SessionState.LIVE
        return session

    def expire_leases(
        self, now: float
    ) -> List[Tuple[SubscriberSession, List[int]]]:
        """Demote every detached session whose lease ran out.

        Returns ``(session, expired_sequences)`` pairs: the events the
        demoted session was owed become *expired-ephemeral* (the
        caller accounts them), and the session stops holding
        retention.  The demotion is journaled, not silent.
        """
        demoted: List[Tuple[SubscriberSession, List[int]]] = []
        for session in self.sessions.values():
            deadline = session.lease_deadline()
            if (
                not session.durable
                or deadline is None
                or now < deadline
            ):
                continue
            expired = sorted(session.outstanding.values())
            session.outstanding.clear()
            session._lsn_by_seq.clear()
            session.durable = False
            session.cursor = session.frontier = self.log.head
            self._journal_session(
                {"action": "expire", "id": session.session_id}
            )
            self.lease_expirations += 1
            demoted.append((session, expired))
        return demoted

    # -- the publish hook ----------------------------------------------------

    def on_publish(
        self, event, match
    ) -> Tuple[int, List[SubscriberSession], List[SubscriberSession]]:
        """Retain one published event and charge the sessions it matched.

        Returns ``(lsn, charged, live)``: the event's retained-log
        LSN, every *durable* session it matched (their ledger
        obligation), and the subset currently LIVE (deliver now; the
        rest pick it up via catch-up replay).  Non-durable sessions
        are never charged — ephemeral delivery is best-effort by
        definition.
        """
        lsn = self.log.append(event)
        head = self.log.head
        matched_sids = set(match.subscription_ids)
        charged: List[SubscriberSession] = []
        live: List[SubscriberSession] = []
        for session in self.sessions.values():
            if not session.durable:
                session.observe(head)
                continue
            if session.subscription_ids & matched_sids:
                session.charge(lsn, event.sequence, head)
                charged.append(session)
                if session.state is SessionState.LIVE:
                    live.append(session)
            else:
                if session.observe(head):
                    self._journal_cursor(session)
        if self.telemetry.enabled:
            self.telemetry.gauge(
                "sessions.outstanding",
                help="matched-but-unsettled (event, session) obligations",
            ).set(
                sum(len(s.outstanding) for s in self.sessions.values())
            )
        return lsn, charged, live

    # -- settlement ----------------------------------------------------------

    def ack(self, session_id: str, sequence: int) -> bool:
        """The application consumed one event; advance the cursor.

        Returns False when the sequence was not outstanding (already
        settled, or never charged) — callers treat that as a no-op,
        not an error, because transport-level dedup makes redundant
        acks routine.
        """
        session = self.get(session_id)
        advanced = session.settle(sequence)
        if advanced is None:
            return False
        session.delivered += 1
        self._count("acked", "application-level delivery acks")
        if advanced:
            self._journal_cursor(session)
        return True

    def discard(self, session_id: str, sequence: int) -> bool:
        """Settle one event *without* delivery (dead-letter path)."""
        session = self.get(session_id)
        advanced = session.settle(sequence)
        if advanced is None:
            return False
        session.deadlettered += 1
        if advanced:
            self._journal_cursor(session)
        return True

    # -- retention interface -------------------------------------------------

    def low_water(self) -> Optional[int]:
        """The smallest LSN any durable session still needs."""
        marks = [
            s.low_water for s in self.sessions.values() if s.durable
        ]
        return min(marks) if marks else None

    # -- durability ----------------------------------------------------------

    def to_state(self) -> Dict:
        """The cursor table, snapshot-ready (sorted, JSON-safe)."""
        return {
            sid: self.sessions[sid].to_state()
            for sid in sorted(self.sessions)
        }

    def restore(self, state: Dict) -> None:
        """Rebuild the session table from a recovered cursor table.

        Recovered sessions come back DETACHED (their subscribers must
        resume and replay regardless of what state the crash caught
        them in); outstanding obligations are *not* restored — the
        catch-up replayer re-derives them by re-matching
        ``[cursor, head)``, which is the whole point of journaling
        cursors instead of per-event obligations.
        """
        for session_id, entry in sorted(state.items()):
            session = SubscriberSession(
                session_id,
                int(entry["subscriber"]),
                entry["sids"],
                lease=float(entry.get("lease", self.default_lease)),
                cursor=int(entry.get("cursor", 0)),
            )
            session.durable = bool(entry.get("durable", True))
            session.state = SessionState.DETACHED
            session.detached_at = float(
                entry.get("detached_at", self.clock())
            )
            session.frontier = max(session.cursor, self.log.base)
            self.sessions[session_id] = session
