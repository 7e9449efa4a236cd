"""Half-open intervals on the real line.

The paper (Section 1) assumes without loss of generality that every
predicate range is *open on the left and closed on the right*: an
interval ``(lo, hi]`` contains a value ``x`` iff ``lo < x <= hi``.
This convention lets adjacent intervals "fit together" cleanly: the
intervals ``(0, 1]`` and ``(1, 2]`` tile ``(0, 2]`` with no overlap and
no gap, which matters for the regular grid used by the clustering
algorithms (see :mod:`repro.clustering.grid`).

Unbounded predicates (``volume >= 1000``, i.e. ``(999, +inf)``) are
represented with ``math.inf`` endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = ["Interval", "FULL_LINE"]


@dataclass(frozen=True)
class Interval:
    """A half-open interval ``(lo, hi]``.

    An interval is *empty* when ``hi <= lo``; all empty intervals behave
    identically (they contain nothing and intersect nothing).

    Parameters
    ----------
    lo:
        Open (excluded) lower endpoint; may be ``-math.inf``.
    hi:
        Closed (included) upper endpoint; may be ``+math.inf``.
    """

    lo: float
    hi: float

    # -- basic predicates ------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the interval contains no points (``hi <= lo``)."""
        return self.hi <= self.lo

    def contains(self, x: float) -> bool:
        """Whether ``x`` lies in ``(lo, hi]``."""
        return self.lo < x <= self.hi

    def __contains__(self, x: float) -> bool:
        return self.contains(x)

    # -- measures --------------------------------------------------------

    @property
    def length(self) -> float:
        """Length of the interval; 0 for empty intervals, inf if unbounded."""
        if self.is_empty:
            return 0.0
        return self.hi - self.lo

    # -- set operations ----------------------------------------------------

    def intersection(self, other: Interval) -> Interval:
        """The (possibly empty) intersection of two intervals."""
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    # -- helpers -----------------------------------------------------------

    def __iter__(self) -> Iterator[float]:
        yield self.lo
        yield self.hi

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.lo}, {self.hi}]"


#: The whole real line, ``(-inf, +inf]`` — the wildcard predicate ``*``.
FULL_LINE = Interval(-math.inf, math.inf)


def parse_predicate(
    op: str, value: float, second: Optional[float] = None
) -> Interval:
    """Translate a comparison predicate into an :class:`Interval`.

    Supported operators mirror the paper's examples:

    - ``"=="``  → the degenerate-width interval ``(value - 0, value]``
      is *not* representable half-open; equality on a discrete domain is
      encoded as ``(value - 1ulp..]``; we use ``(prev, value]`` where
      ``prev = math.nextafter(value, -inf)``.
    - ``">"``   → ``(value, +inf]``
    - ``">="``  → ``(prev(value), +inf]``
    - ``"<"``   → ``(-inf, prev(value)]``
    - ``"<="``  → ``(-inf, value]``
    - ``"between"`` → ``(value, second]`` (requires ``second``)
    - ``"*"``   → the full line.
    """
    if op == "*":
        return FULL_LINE
    if op == "between":
        if second is None:
            raise ValueError("'between' predicate requires two endpoints")
        return Interval(value, second)
    prev = math.nextafter(value, -math.inf)
    if op == "==":
        return Interval(prev, value)
    if op == ">":
        return Interval(value, math.inf)
    if op == ">=":
        return Interval(prev, math.inf)
    if op == "<":
        return Interval(-math.inf, prev)
    if op == "<=":
        return Interval(-math.inf, value)
    raise ValueError(f"unknown predicate operator: {op!r}")
