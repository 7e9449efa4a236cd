"""Runs one workload in this process and reduces its reps to metrics.

A *rep* is a fixed, frozen amount of work (see ``workloads/``); a run
repeats reps until ``--seconds`` of timed work have been done.  The host
this runs on changes speed, within seconds and over minutes, so each
rep reads the host's speed beside its work (``reference.py``) and its
time is put on the reference host's scale; the run's rate is the median
over reps of that.  With ``--trace 1`` traced and untraced reps
alternate, traced first: the first traced rep always sees the same
inputs for a seed, which is what makes its counts repeat exactly, and
the untraced reps give the rate the traced ones are compared with (both
as the clock read them: nothing is rescaled in a traced run).
"""

from __future__ import annotations

import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Callable, ContextManager, Dict, List, Optional, Sequence

import numpy as np

from .layers import OBJECT_METRICS, PATCH_POINTS, SCHEDULER, span_metrics
from .reference import REFERENCE_NS, SENSITIVITY, reference_ns
from .tracing import Patches, Tracer

#: Set-up is repeated (and the median reported) until this many
#: samples exist or this much time has gone into it.
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 4.0
#: Readings of the host's speed before and after a set-up.
SETUP_READINGS = 5

#: Timed work between two readings of the host's speed.
REFERENCE_EVERY_NS = 40_000_000


@dataclass
class Rep:
    """What one rep did."""

    events: int
    #: Nanoseconds of each consecutive unit of timed work — a call of a
    #: closed loop, the stretch between two ticks of a simulation.  They
    #: add up to the time the events took.
    work_ns: np.ndarray
    #: How much slower than the reference the host ran during each unit
    #: (filled in by the harness; ``None``, taken as 1, in a traced run).
    slowdown: Optional[np.ndarray] = None
    #: Per-rep build time, for workloads that build a fresh system
    #: for every rep (the simulations are single-use).
    setup_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Host-clock samples in nanoseconds, pooled across reps.
    samples: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Further per-rep values, reduced by median across reps.
    values: Dict[str, float] = field(default_factory=dict)
    #: Counts read from the objects' public stats; exact per seed on
    #: the first traced rep.
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return float(self.work_ns.sum()) / 1e9

    @property
    def steady_seconds(self) -> float:
        """``seconds`` as the reference host would have taken them."""
        if self.slowdown is None:
            return self.seconds
        return float((self.work_ns / self.slowdown).sum()) / 1e9

    @property
    def rate(self) -> float:
        return self.events / self.seconds


def steady_rate(reps: Sequence[Rep]) -> float:
    """Events per second of the reference host: the median rep."""
    return reps[0].events / statistics.median(r.steady_seconds for r in reps)


def _timed_call(fn: Callable, *args):
    started = perf_counter_ns()
    result = fn(*args)
    return result, perf_counter_ns() - started


class Timer:
    """How a rep times its calls; the traced variant also records spans.

    With ``calibrate`` it also reads the host's speed (``reference.py``)
    whenever the rep asks (:meth:`read`: before its first unit, after
    a stretch of its own untimed work), after every
    ``REFERENCE_EVERY_NS`` of work the rep reports through
    :meth:`worked`, and when the rep has ended.
    """

    def __init__(
        self, tracer: Optional[Tracer] = None, calibrate: bool = False
    ):
        self.tracer = tracer
        self.calibrate = calibrate
        #: Index of the unit about to start at each reading, and the
        #: reading.
        self.read_at: List[int] = []
        self.readings: List[float] = []
        self._since = 0

    def now(self, readings: int = 1) -> float:
        """How much slower than on the reference host the program runs
        right now, from the median of ``readings`` kernel readings."""
        if not self.calibrate:
            return 1.0
        kernel = statistics.median(reference_ns() for _ in range(readings))
        return (kernel / REFERENCE_NS) ** SENSITIVITY

    def read(self, unit: int) -> None:
        """Read the host's speed now; unit ``unit`` is about to start."""
        if self.calibrate:
            if self.read_at and self.read_at[-1] == unit:
                del self.read_at[-1], self.readings[-1]
            self.read_at.append(unit)
            self.readings.append(self.now())
            self._since = 0

    def worked(self, unit: int, ns: int) -> None:
        """Unit ``unit`` has just taken ``ns``; no timer is running."""
        self._since += ns
        if self._since >= REFERENCE_EVERY_NS:
            self.read(unit + 1)

    def slowdown(self, units: int) -> np.ndarray:
        """How much slower than the reference the host ran, per unit."""
        self.read(units)
        return np.interp(np.arange(units) + 0.5, self.read_at, self.readings)

    def call(self, name: str) -> Callable:
        """``call(fn, *args) -> (result, ns)``."""
        if self.tracer is None:
            return _timed_call
        return self.tracer.timed(name)

    def phase(self, phase: str) -> ContextManager[None]:
        if self.tracer is None:
            return nullcontext()
        return self.tracer.segment(phase)

    def shared(self, identifier: int) -> None:
        if self.tracer is not None:
            self.tracer.shared_now = identifier


class Workload:
    """One fixed, seeded workload.  Subclasses fill in the four hooks."""

    name = ""
    #: What one "event" is, for the record.
    event_unit = "publish"

    def prepare(self, seed: int) -> None:
        """Build everything up to the first warm-up call (timed)."""

    def warm_up(self) -> None:
        """Fill caches; not timed, not reported."""

    def rep(self, timer: Timer) -> Rep:
        raise NotImplementedError

    def reduce(self, samples: Dict[str, np.ndarray]) -> Dict[str, float]:
        """Per-layer metrics from the untraced reps' pooled samples."""
        return {}

    def probes(self) -> Dict[str, float]:
        """Side measurements for the per-layer pass (untraced)."""
        return {}

    def close(self) -> None:
        """Release what ``prepare`` opened."""


def percentile_us(samples_ns: np.ndarray, q: float) -> float:
    if len(samples_ns) == 0:
        return 0.0
    return float(np.percentile(samples_ns, q)) / 1e3


@dataclass
class Outcome:
    """Everything one run measured; ``run.py`` picks what to print."""

    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    attempted: int
    failed: int
    details: Dict[str, object]
    tracer: Optional[Tracer] = None


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool
) -> Outcome:
    tracer = Tracer() if trace else None
    patches = (
        Patches(tracer, PATCH_POINTS, SCHEDULER) if tracer is not None else None
    )
    setup_samples: List[float] = []
    host = Timer(calibrate=True)
    try:
        if tracer is not None:
            prepare = tracer.timed("bench.prepare")
            with patches, tracer.segment("setup"):
                _, ns = prepare(workload.prepare, seed)
            setup_samples.append(ns / 1e9)
        else:
            while (
                len(setup_samples) < SETUP_SAMPLES
                and sum(setup_samples) < SETUP_BUDGET_S
            ):
                if setup_samples:
                    workload.close()
                before = host.now(SETUP_READINGS)
                started = perf_counter()
                workload.prepare(seed)
                took = perf_counter() - started
                after = host.now(SETUP_READINGS)
                setup_samples.append(took / ((before + after) / 2))
        workload.warm_up()

        plain: List[Rep] = []
        traced: List[Rep] = []
        spent = 0.0
        while spent < seconds or not plain:
            if tracer is not None and len(traced) <= len(plain):
                tracer.shared_now = len(traced)
                with patches:
                    rep = workload.rep(Timer(tracer))
                traced.append(rep)
                if len(traced) == 1:
                    tracer.first_rep_end = tracer.n
            else:
                timer = Timer(calibrate=tracer is None)
                rep = workload.rep(timer)
                if timer.calibrate:
                    rep.slowdown = timer.slowdown(len(rep.work_ns))
                plain.append(rep)
            spent += rep.seconds
        probes = workload.probes() if trace else {}
    finally:
        workload.close()

    reps = plain + traced
    rate = steady_rate(plain)
    setup_s = statistics.median(setup_samples) + statistics.median(
        r.setup_s for r in reps
    )
    pooled: Dict[str, np.ndarray] = {}
    for key in plain[0].samples:
        pooled[key] = np.concatenate([r.samples[key] for r in plain])
    values = {
        key: statistics.median(r.values[key] for r in plain)
        for key in plain[0].values
    }
    end_to_end = {
        "setup_s": setup_s,
        "events_per_s": rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    details: Dict[str, object] = {
        "reps_untraced": len(plain),
        "reps_traced": len(traced),
        "events_per_rep": plain[0].events,
        "event_unit": workload.event_unit,
        "timed_seconds": spent,
        "setup_samples_s": setup_samples,
        "rep_setup_s": [r.setup_s for r in reps],
        "rep_rates_per_s": [r.rate for r in plain],
        "rep_slowdowns": [r.seconds / r.steady_seconds for r in plain],
        "units_per_rep": int(len(plain[0].work_ns)),
        "sample_counts": {k: int(len(v)) for k, v in pooled.items()},
    }
    per_layer: Dict[str, float] = {}
    if tracer is not None:
        summary = tracer.summary()
        per_layer = dict.fromkeys(OBJECT_METRICS, 0.0)
        per_layer.update(span_metrics(summary))
        per_layer.update(traced[0].counts)
        per_layer.update(values)
        per_layer.update(workload.reduce(pooled))
        per_layer.update(probes)
        traced_rate = steady_rate(traced)
        per_layer["trace.overhead_pct"] = 100.0 * (1.0 - traced_rate / rate)
        details["spans"] = summary.spans
        details["spans_dropped"] = tracer.dropped
        details["span_calls"] = {
            name: summary.calls("timed", name) for name in summary.names
        }
    return Outcome(
        end_to_end=end_to_end,
        per_layer=per_layer,
        attempted=sum(r.attempted for r in reps),
        failed=sum(r.failed for r in reps)
        + (1 if tracer is not None and tracer.dropped else 0),
        details=details,
        tracer=tracer,
    )
