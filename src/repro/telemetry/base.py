"""The telemetry facade the rest of the pipeline is instrumented with.

Every instrumentable component (broker, matcher, cost model, reliable
transport, packet network, chaos harness) takes an optional
``telemetry=`` argument.  Passing nothing gets the shared
:data:`NULL_TELEMETRY` — a true no-op whose counters, histograms and
spans are inert singletons — so an uninstrumented run executes the
exact same decision/cost code paths it always did.

A real :class:`Telemetry` bundles one :class:`~repro.telemetry.metrics.
MetricsRegistry` and one :class:`~repro.telemetry.tracing.Tracer`
behind convenience pass-throughs.  A count an object keeps is exposed
once, at construction; ``.inc()`` is for counts no object keeps::

    telemetry.expose("sessions.replay_sends", self, "replay_sends")
    telemetry.counter("broker.events").inc()
    with telemetry.span("match", trace_id=event.sequence) as span:
        ...

Clocks: span timestamps come from ``telemetry.clock``.  Simulated
components rebind it to the simulator clock (:meth:`Telemetry.
bind_clock`) so traces carry simulated time and stay deterministic;
outside a simulation the default is ``time.perf_counter``.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    tally,
)
from .tracing import NullTracer, Span, Tracer

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY", "or_null", "tally"]


class Telemetry:
    """A live metrics registry + tracer pair."""

    enabled = True

    def __init__(self, seed: int = 0):
        self.clock: Callable[[], float] = time.perf_counter
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=lambda: self.clock(), seed=seed)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point span timestamps at a different time source.

        Simulations call this with the engine's ``now`` so traces are
        in simulated time (and therefore reproducible); already-open
        spans pick the new clock up on finish.
        """
        self.clock = clock

    # -- metrics pass-throughs ------------------------------------------------

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self.metrics.counter(name, help, **labels)

    def expose(
        self, name: str, source, attr: str, help: str = "", **labels: str
    ) -> None:
        self.metrics.expose(name, source, attr, help, **labels)

    def expose_tallies(self, prefix: str, stats) -> None:
        self.metrics.expose_tallies(prefix, stats)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self.metrics.gauge(name, help, **labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        return self.metrics.histogram(name, help, bounds, **labels)

    # -- tracing pass-throughs ------------------------------------------------

    def start_span(self, name: str, **kwargs) -> Span:
        return self.tracer.start_span(name, **kwargs)

    def span(self, name: str, **kwargs):
        return self.tracer.span(name, **kwargs)

    def event(self, name: str, **kwargs) -> Span:
        return self.tracer.event(name, **kwargs)


class NullTelemetry(Telemetry):
    """Same interface, guaranteed to do nothing.

    ``enabled`` is False so hot paths can skip even the cheap
    bookkeeping (``if telemetry.enabled: ...``); calls that are made
    anyway land on shared inert instruments.
    """

    enabled = False

    def __init__(self) -> None:
        self.clock = lambda: 0.0
        self.metrics = NullMetricsRegistry()
        self.tracer = NullTracer()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass


#: The shared default for every ``telemetry=`` parameter.
NULL_TELEMETRY = NullTelemetry()


def or_null(telemetry: Optional[Telemetry]) -> Telemetry:
    """Resolve an optional telemetry argument to a usable object."""
    return telemetry if telemetry is not None else NULL_TELEMETRY
