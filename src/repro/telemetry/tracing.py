"""Span-based tracing of the event lifecycle.

One published event produces one *trace* (its trace id is the event
sequence number) made of parent/child *spans*:

    event ─┬─ match
           ├─ distribution-decision
           └─ route ─┬─ deliver(target) ─┬─ retry(attempt 2)
                     │                   └─ ack
                     └─ deliver(target') ...

Two properties are deliberate and load-bearing:

- **Deterministic span ids.**  Ids derive from ``(tracer seed,
  creation ordinal)`` via BLAKE2b — never from a clock or a global
  RNG.  The discrete-event engine already guarantees a reproducible
  creation order, so the same seeded run emits byte-identical traces.
- **Injected clock.**  Timestamps come from whatever callable the
  tracer was given: ``time.perf_counter`` for live (non-simulated)
  code, the simulator's ``now`` inside a simulation.  Nothing in this
  module ever consults the wall clock on its own.

The :class:`NullTracer` twin hands out one shared, inert span, making
tracing free when disabled.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Union

__all__ = ["Span", "Tracer", "NullTracer", "NULL_SPAN"]

TraceId = Union[int, str]


class Span:
    """One timed operation inside a trace."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "status",
        "attributes",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        trace_id: TraceId,
        span_id: str,
        parent_id: Optional[str],
        start: float,
        tracer: Optional[Tracer] = None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.attributes: Dict[str, object] = {}
        self._tracer = tracer

    @property
    def is_recording(self) -> bool:
        return True

    def set_attribute(self, key: str, value: object) -> Span:
        self.attributes[key] = value
        return self

    def finish(
        self, time: Optional[float] = None, status: Optional[str] = None
    ) -> Span:
        """End the span (idempotent); at the injected clock by default."""
        if self.end is None:
            if status is not None:
                self.status = status
            if time is not None:
                self.end = time
            elif self._tracer is not None:
                self.end = self._tracer.clock()
            else:
                self.end = self.start
            if self._tracer is not None:
                self._tracer._finished(self)
        return self

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (exporters and tests use this)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id}, "
            f"id={self.span_id}, parent={self.parent_id})"
        )


class _NullSpan(Span):
    """A shared span that records nothing and parents nothing."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("", 0, "", None, 0.0, tracer=None)

    @property
    def is_recording(self) -> bool:
        return False

    def set_attribute(self, key: str, value: object) -> Span:
        return self

    def finish(
        self, time: Optional[float] = None, status: Optional[str] = None
    ) -> Span:
        return self


#: The single inert span every NullTracer call returns.
NULL_SPAN = _NullSpan()


class Tracer:
    """Creates spans with deterministic ids and collects finished ones.

    Parameters
    ----------
    clock:
        Zero-argument callable giving the current time.  Use the
        simulator clock in simulations; defaults to a logical counter
        (0, 1, 2, ...) so a bare tracer is still fully deterministic.
    seed:
        Folded into every span id; two tracers with equal seeds and
        equal call orders produce identical ids.
    max_spans:
        Retention cap on the finished-span buffer (oldest dropped),
        bounding memory on long runs.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        seed: int = 0,
        max_spans: int = 1_000_000,
    ):
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.clock = clock if clock is not None else self._logical_clock()
        self.seed = int(seed)
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self._ordinal = 0

    @staticmethod
    def _logical_clock() -> Callable[[], float]:
        state = {"tick": -1.0}

        def tick() -> float:
            state["tick"] += 1.0
            return state["tick"]

        return tick

    def _span_id(self) -> str:
        ordinal = self._ordinal
        self._ordinal += 1
        digest = hashlib.blake2b(
            f"{self.seed}:{ordinal}".encode(), digest_size=8
        )
        return digest.hexdigest()

    def start_span(
        self,
        name: str,
        trace_id: Optional[TraceId] = None,
        parent: Optional[Span] = None,
        start: Optional[float] = None,
        **attributes: object,
    ) -> Span:
        """Open a span; inherit the trace from ``parent`` when given."""
        if parent is not None and parent.is_recording:
            trace = parent.trace_id if trace_id is None else trace_id
            parent_id = parent.span_id
        else:
            trace = trace_id if trace_id is not None else 0
            parent_id = None
        span = Span(
            name,
            trace,
            self._span_id(),
            parent_id,
            self.clock() if start is None else start,
            tracer=self,
        )
        if attributes:
            span.attributes.update(attributes)
        return span

    def event(
        self,
        name: str,
        parent: Optional[Span] = None,
        trace_id: Optional[TraceId] = None,
        **attributes: object,
    ) -> Span:
        """A zero-duration span (instant marker, e.g. one retry)."""
        span = self.start_span(
            name, trace_id=trace_id, parent=parent, **attributes
        )
        return span.finish(time=span.start)

    @contextmanager
    def span(
        self,
        name: str,
        trace_id: Optional[TraceId] = None,
        parent: Optional[Span] = None,
        **attributes: object,
    ) -> Iterator[Span]:
        """Context-managed span: finished (status=error on raise) at exit."""
        span = self.start_span(
            name, trace_id=trace_id, parent=parent, **attributes
        )
        try:
            yield span
        except BaseException:
            span.finish(status="error")
            raise
        span.finish()

    def _finished(self, span: Span) -> None:
        if len(self.spans) >= self.max_spans:
            # Drop the oldest half in one move: amortized O(1).
            keep = self.max_spans // 2
            self.dropped += len(self.spans) - keep
            self.spans = self.spans[-keep:]
        self.spans.append(span)

    def trace(self, trace_id: TraceId) -> List[Span]:
        """All finished spans of one trace, in finish order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def clear(self) -> None:
        self.spans.clear()
        self.dropped = 0


class NullTracer(Tracer):
    """Hands out the shared inert span; never stores anything."""

    def __init__(self) -> None:
        super().__init__(clock=lambda: 0.0, seed=0, max_spans=1)

    def start_span(
        self,
        name: str,
        trace_id: Optional[TraceId] = None,
        parent: Optional[Span] = None,
        start: Optional[float] = None,
        **attributes: object,
    ) -> Span:
        return NULL_SPAN

    def event(
        self,
        name: str,
        parent: Optional[Span] = None,
        trace_id: Optional[TraceId] = None,
        **attributes: object,
    ) -> Span:
        return NULL_SPAN

    @contextmanager
    def span(
        self,
        name: str,
        trace_id: Optional[TraceId] = None,
        parent: Optional[Span] = None,
        **attributes: object,
    ) -> Iterator[Span]:
        yield NULL_SPAN

    def _finished(self, span: Span) -> None:
        pass
