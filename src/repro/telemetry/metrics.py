"""Counters, gauges and fixed-bucket histograms for hot paths.

The pipeline's hot loops (matching, per-link forwarding, retry
timers) cannot afford per-observation allocation or locking, so every
metric here is a plain mutable object with ``__slots__`` and integer/
float arithmetic only:

- :class:`Counter` — monotone float accumulator;
- :class:`Gauge` — last-write-wins level;
- :class:`Histogram` — fixed upper-bound buckets (chosen at creation,
  never resized), with quantile *estimates* by linear interpolation
  inside the winning bucket — the classic Prometheus scheme, accurate
  to one bucket width, O(#buckets) per quantile and O(log #buckets)
  per observation.

A :class:`MetricsRegistry` names metrics and fans each name out into
label children (``registry.counter("net.link.tx", link="3-7")``), so
per-link / per-group series stay cheap: one dict lookup per
observation.  A count an object already keeps is exposed, not counted
again (:meth:`MetricsRegistry.expose`).  The :class:`NullMetricsRegistry`
twin returns shared do-nothing instruments, which is what makes
``NullTelemetry`` a true no-op (see :mod:`repro.telemetry.base`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import field, fields
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Exposure",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "DEFAULT_BUCKETS",
    "exponential_buckets",
    "tally",
]


def exponential_buckets(
    start: float, factor: float, count: int
) -> Tuple[float, ...]:
    """``count`` upper bounds ``start, start*factor, ...`` (no +inf)."""
    if start <= 0:
        raise ValueError(f"start must be positive, got {start}")
    if factor <= 1.0:
        raise ValueError(f"factor must exceed 1, got {factor}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return tuple(start * factor**i for i in range(count))


#: Default histogram layout: 1e-2 .. ~1e5 in half-decade steps, wide
#: enough for both microsecond match latencies (recorded in µs) and
#: simulated delivery times (recorded in engine time units).
DEFAULT_BUCKETS = exponential_buckets(0.01, 10.0**0.5, 15)


class Counter:
    """Monotonically increasing accumulator."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Exposure:
    """A counter read from other objects: ``getattr(source, attr)``
    summed over the distinct sources added (re-adding one is a no-op)."""

    __slots__ = ("_sources",)

    def __init__(self) -> None:
        self._sources: Dict[int, Tuple[object, str]] = {}

    def add(self, source: object, attr: str) -> None:
        self._sources.setdefault(id(source), (source, attr))

    @property
    def value(self) -> float:
        return float(sum(getattr(s, a) for s, a in self._sources.values()))


def tally(help: str = "", name: str = "") -> Any:
    """A zero dataclass field, declared with its metric's help text;
    :meth:`MetricsRegistry.expose_tallies` exposes it."""
    return field(default=0, metadata={"help": help, "name": name})


class Gauge:
    """A level that can move both ways."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with interpolated quantile estimates.

    ``bounds`` are the finite bucket upper edges in increasing order;
    an implicit +inf bucket catches the overflow.  ``quantile`` walks
    the cumulative counts and interpolates linearly inside the winning
    bucket (the overflow bucket reports its lower edge — there is no
    upper edge to interpolate toward), so estimates are exact to one
    bucket width, which is what fixed-cost instrumentation can promise.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "_min", "_max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("need at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bounds must be strictly increasing: {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 = overflow bucket
        self.sum = 0.0
        self.count = 0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) of the sample."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                if index == len(self.bounds):  # overflow bucket
                    return max(self.bounds[-1], self._min)
                hi = self.bounds[index]
                lo = self.bounds[index - 1] if index > 0 else min(
                    0.0, self._min
                )
                fraction = (rank - cumulative) / bucket_count
                estimate = lo + (hi - lo) * fraction
                # Never report outside the observed range.
                return min(max(estimate, self._min), self._max)
            cumulative += bucket_count
        return self._max

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)


_LabelKey = Tuple[Tuple[str, str], ...]


class MetricFamily:
    """All label children of one metric name (``kind`` ``"exposed"``
    is a counter whose children are :class:`Exposure` views)."""

    __slots__ = ("name", "kind", "help", "bounds", "children")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        bounds: Optional[Sequence[float]] = None,
    ):
        self.name = name
        self.kind = kind
        self.help = help
        self.bounds = bounds
        self.children: Dict[_LabelKey, object] = {}

    def child(self, labels: _LabelKey):
        instrument = self.children.get(labels)
        if instrument is None:
            if self.kind == "counter":
                instrument = Counter()
            elif self.kind == "exposed":
                instrument = Exposure()
            elif self.kind == "gauge":
                instrument = Gauge()
            else:
                instrument = Histogram(self.bounds or DEFAULT_BUCKETS)
            self.children[labels] = instrument
        return instrument


class MetricsRegistry:
    """Names → metric families; the single source for exporters.

    Metrics are created on first touch and shared thereafter — calling
    ``registry.counter("x")`` twice returns the same object, so
    instrumented code never needs set-up ceremony.  Re-registering a
    name as a different kind is an error (it would silently fork the
    series), including incrementing a name that is exposed.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        bounds: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help, bounds)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"cannot re-register as {kind}"
            )
        return family

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        family = self._family(name, "counter", help)
        return family.child(tuple(sorted(labels.items())))

    def expose(
        self, name: str, source, attr: str, help: str = "", **labels: str
    ) -> None:
        """Count ``name`` as ``getattr(source, attr)``, read when asked;
        distinct sources exposed under one name and labels add up."""
        family = self._family(name, "exposed", help)
        family.child(tuple(sorted(labels.items()))).add(source, attr)

    def expose_tallies(self, prefix: str, stats) -> None:
        """Expose each :func:`tally` field of ``stats`` as
        ``<prefix>.<the tally's name, or the field's>``."""
        for spec in fields(stats):
            if "help" in spec.metadata:
                name = f"{prefix}.{spec.metadata['name'] or spec.name}"
                self.expose(name, stats, spec.name, spec.metadata["help"])

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        family = self._family(name, "gauge", help)
        return family.child(tuple(sorted(labels.items())))

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        family = self._family(name, "histogram", help, bounds)
        return family.child(tuple(sorted(labels.items())))

    def families(self) -> Iterator[MetricFamily]:
        """Families in registration order (exporters iterate this)."""
        return iter(self._families.values())

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def value(self, name: str, default: float = 0.0, **labels: str) -> float:
        """Convenience: a counter/gauge child's value, or ``default``."""
        family = self._families.get(name)
        if family is None:
            return default
        child = family.children.get(tuple(sorted(labels.items())))
        if child is None or isinstance(child, Histogram):
            return default
        return child.value  # type: ignore[union-attr]


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullMetricsRegistry(MetricsRegistry):
    """Accepts every call, records nothing, allocates nothing."""

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return _NULL_COUNTER

    def expose(
        self, name: str, source, attr: str, help: str = "", **labels: str
    ) -> None:
        pass

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return _NULL_GAUGE

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        return _NULL_HISTOGRAM
