"""Spans recorded from the benchmark's own files.

Nothing under ``src/`` knows it is being traced: :class:`Patches`
replaces public entry points (class attributes and module functions)
with timing wrappers for the length of a traced rep and puts the
originals back afterwards.  A span is one row of five preallocated
arrays (name id, start, end, parent, shared id); rows stay in memory
and are written once, by the caller, when the run ends.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of all spans under a root add up to the
root's duration exactly.  The wrapper's own bookkeeping runs outside
the span's ``[start, end]`` and therefore lands in the *parent's* self
time; ``trace.overhead_pct`` says how large that distortion is.
"""

from __future__ import annotations

import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Rows preallocated per tracer.  ``np.empty`` touches no page until a
#: row is written, so the unused tail costs address space only.
CAPACITY = 1 << 22

#: Phase under which the first traced rep's timed spans are *also*
#: summarised: its inputs depend on the seed alone, so its call counts
#: repeat exactly however many reps the time allowed afterwards.
FIRST_REP = "timed/first-rep"

#: ``(module, class or None, attribute, span name)``.
PatchPoint = Tuple[str, Optional[str], str, str]


class Tracer:
    """Five parallel arrays of spans plus the stack of open ones."""

    def __init__(self, capacity: int = CAPACITY):
        self.capacity = capacity
        self.name = np.empty(capacity, np.int16)
        self.start = np.empty(capacity, np.int64)
        self.end = np.empty(capacity, np.int64)
        self.parent = np.empty(capacity, np.int32)
        self.shared = np.empty(capacity, np.int64)
        self.n = 0
        #: Spans not recorded because the arrays were full; a run with
        #: any is reported as failed, since its shares would be wrong.
        self.dropped = 0
        #: Identifier copied into every span opened from now on (the
        #: event sequence for per-event roots, the rep index otherwise).
        self.shared_now = -1
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._stack: List[int] = []
        #: ``(phase, first row, one past last row)``.
        self.segments: List[Tuple[str, int, int]] = []
        #: Rows below this belong to set-up or the first traced rep.
        self.first_rep_end: Optional[int] = None

    def name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with one span recorded around every call."""
        nid = self.name_id(name)
        tracer = self
        stack = self._stack
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            i = tracer.n
            if i >= tracer.capacity:
                tracer.dropped += 1
                return fn(*args, **kwargs)
            tracer.n = i + 1
            tracer.parent[i] = stack[-1] if stack else -1
            tracer.name[i] = nid
            tracer.shared[i] = tracer.shared_now
            stack.append(i)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                tracer.start[i] = started
                tracer.end[i] = ended

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def timed(self, name: str) -> Callable:
        """``call(fn, *args) -> (result, ns)`` recording a root span."""
        nid = self.name_id(name)
        tracer = self
        stack = self._stack
        clock = perf_counter_ns

        def call(fn, *args):
            i = tracer.n
            if i >= tracer.capacity:
                tracer.dropped += 1
                started = clock()
                result = fn(*args)
                return result, clock() - started
            tracer.n = i + 1
            tracer.parent[i] = -1
            tracer.name[i] = nid
            tracer.shared[i] = tracer.shared_now
            stack.append(i)
            started = clock()
            try:
                result = fn(*args)
            finally:
                ended = clock()
                stack.pop()
                tracer.start[i] = started
                tracer.end[i] = ended
            return result, ended - started

        return call

    @contextmanager
    def segment(self, phase: str) -> Iterator[None]:
        """Label every span opened inside the block with ``phase``."""
        first = self.n
        try:
            yield
        finally:
            self.segments.append((phase, first, self.n))

    def summary(self) -> TraceSummary:
        return TraceSummary(self)

    def save(self, path) -> None:
        """Write the span table (one ``.npz``), called once at exit."""
        n = self.n
        phases = sorted({phase for phase, _, _ in self.segments})
        phase_of = np.full(n, -1, np.int8)
        for phase, first, last in self.segments:
            phase_of[first:last] = phases.index(phase)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            phases=np.array(phases),
            name=self.name[:n],
            start_ns=self.start[:n],
            end_ns=self.end[:n],
            parent=self.parent[:n],
            shared=self.shared[:n],
            phase=phase_of,
        )


class TraceSummary:
    """Per-phase, per-name calls, self time and inclusive time."""

    def __init__(self, tracer: Tracer):
        n = tracer.n
        self.names = list(tracer.names)
        self.spans = n
        width = max(len(self.names), 1)
        duration = (tracer.end[:n] - tracer.start[:n]).astype(np.float64)
        parent = tracer.parent[:n]
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=n
        )
        own = duration - covered
        ids = tracer.name[:n]
        self._calls: Dict[str, np.ndarray] = {}
        self._self: Dict[str, np.ndarray] = {}
        self._total: Dict[str, np.ndarray] = {}
        self._wall: Dict[str, float] = {}
        segments = list(tracer.segments)
        if tracer.first_rep_end is not None:
            segments.extend(
                (FIRST_REP, first, last)
                for label, first, last in tracer.segments
                if label == "timed" and last <= tracer.first_rep_end
            )
        for phase in {phase for phase, _, _ in segments}:
            mask = np.zeros(n, bool)
            for label, first, last in segments:
                if label == phase:
                    mask[first:last] = True
            chosen = ids[mask]
            self._calls[phase] = np.bincount(chosen, minlength=width)
            self._self[phase] = np.bincount(
                chosen, weights=own[mask], minlength=width
            )
            self._total[phase] = np.bincount(
                chosen, weights=duration[mask], minlength=width
            )
            self._wall[phase] = float(duration[mask & ~nested].sum())

    def _rows(self, names: Sequence[str]) -> List[int]:
        return [self.names.index(n) for n in names if n in self.names]

    def calls(self, phase: str, *names: str) -> int:
        table = self._calls.get(phase)
        if table is None:
            return 0
        return int(sum(table[i] for i in self._rows(names)))

    def self_ns(self, phase: str, *names: str) -> float:
        table = self._self.get(phase)
        if table is None:
            return 0.0
        return float(sum(table[i] for i in self._rows(names)))

    def total_ns(self, phase: str, *names: str) -> float:
        """Inclusive time; meaningful for names that never nest."""
        table = self._total.get(phase)
        if table is None:
            return 0.0
        return float(sum(table[i] for i in self._rows(names)))

    def wall_ns(self, phase: str) -> float:
        """Summed duration of the phase's root spans."""
        return self._wall.get(phase, 0.0)

    def layer_self_ns(self, phase: str, layer: str) -> float:
        prefix = layer + "."
        return self.self_ns(
            phase, *[n for n in self.names if n.startswith(prefix)]
        )


def _callback_span(callback: Callable) -> str:
    """``<package>.callback`` from the module that defined ``callback``."""
    module = getattr(callback, "__module__", None)
    if module is None:  # functools.partial
        module = getattr(getattr(callback, "func", None), "__module__", "")
    parts = (module or "").split(".")
    layer = parts[1] if len(parts) > 1 and parts[0] == "repro" else "bench"
    return layer + ".callback"


class Patches:
    """Install timing wrappers on live classes; remove them again."""

    def __init__(
        self,
        tracer: Tracer,
        points: Sequence[PatchPoint],
        scheduler: Optional[Tuple[str, str, Sequence[str]]] = None,
    ):
        self.tracer = tracer
        self.points = list(points)
        #: ``(module, class, methods)`` whose second positional
        #: argument is a callback to be traced when it later runs.
        self.scheduler = scheduler
        self._undo: List[Tuple[object, str, object]] = []

    def _replace(self, owner: object, attr: str, make: Callable) -> None:
        if inspect.ismodule(owner):
            raw = getattr(owner, attr)
        else:
            if attr not in vars(owner):
                raise AttributeError(
                    f"{owner!r} does not define {attr!r} itself; patch "
                    "the class that does"
                )
            raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            new: object = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def install(self) -> None:
        tracer = self.tracer
        for module, owner_name, attr, span in self.points:
            owner: object = importlib.import_module(module)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            self._replace(
                owner, attr, lambda fn, span=span: tracer.wrap(fn, span)
            )
        if self.scheduler is not None:
            module, owner_name, methods = self.scheduler
            owner = getattr(importlib.import_module(module), owner_name)

            def defer(fn):
                def schedule(self, when, callback):
                    return fn(
                        self,
                        when,
                        tracer.wrap(callback, _callback_span(callback)),
                    )

                return schedule

            for attr in methods:
                self._replace(owner, attr, defer)

    def remove(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> Patches:
        try:
            self.install()
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
