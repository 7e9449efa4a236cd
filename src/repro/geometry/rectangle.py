"""Axis-aligned rectangles in N-dimensional space.

A subscription in a content-based pub-sub system is the conjunction of
one range predicate per attribute, which is exactly an axis-aligned
("aligned", in the paper's terminology) rectangle in the event space
``Omega ⊆ R^N``.  Each side is a half-open interval ``(lo, hi]`` (see
:mod:`repro.geometry.interval`), and a published event is a point.

This module also provides the volume the S-tree packing algorithm
needs.  Because unbounded predicates are common (``volume >= 1000``), volumes
are computed against a *clipping frame* when one is supplied; an
unclipped unbounded rectangle has infinite volume, which is a legal but
rarely useful answer during packing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from .interval import Interval

__all__ = ["Rectangle"]


@dataclass(frozen=True)
class Rectangle:
    """An axis-aligned rectangle: the Cartesian product of half-open intervals.

    Stored as two tuples ``lows`` and ``highs`` so instances are
    hashable and safely shareable.  A rectangle is *empty* when any side
    is empty.
    """

    lows: Tuple[float, ...]
    highs: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lows) != len(self.highs):
            raise ValueError(
                f"dimension mismatch: {len(self.lows)} lows vs "
                f"{len(self.highs)} highs"
            )
        if len(self.lows) == 0:
            raise ValueError("rectangles must have at least one dimension")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_intervals(cls, intervals: Sequence[Interval]) -> Rectangle:
        """Build from one :class:`Interval` per dimension."""
        return cls(
            tuple(i.lo for i in intervals),
            tuple(i.hi for i in intervals),
        )

    @classmethod
    def from_bounds(
        cls, lows: Sequence[float], highs: Sequence[float]
    ) -> Rectangle:
        """Build from parallel low/high sequences (e.g. numpy rows)."""
        return cls(tuple(float(x) for x in lows), tuple(float(x) for x in highs))

    # -- structure -----------------------------------------------------------

    @property
    def ndim(self) -> int:
        """Number of dimensions (attributes)."""
        return len(self.lows)

    @property
    def sides(self) -> Tuple[Interval, ...]:
        """All per-dimension intervals."""
        return tuple(Interval(lo, hi) for lo, hi in zip(self.lows, self.highs))

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.sides)

    # -- predicates ------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when any side is empty, i.e. the set contains no points."""
        return any(hi <= lo for lo, hi in zip(self.lows, self.highs))

    def contains_point(self, point: Sequence[float]) -> bool:
        """Point query membership: ``lo < x <= hi`` in every dimension."""
        if len(point) != self.ndim:
            raise ValueError(
                f"point has {len(point)} coordinates, rectangle has "
                f"{self.ndim} dimensions"
            )
        return all(
            lo < x <= hi for lo, hi, x in zip(self.lows, self.highs, point)
        )

    def __contains__(self, point: Sequence[float]) -> bool:
        return self.contains_point(point)

    # -- set operations ----------------------------------------------------------

    def intersection(self, other: Rectangle) -> Rectangle:
        """The (possibly empty) intersection rectangle."""
        self._check_ndim(other)
        return Rectangle(
            tuple(max(a, b) for a, b in zip(self.lows, other.lows)),
            tuple(min(a, b) for a, b in zip(self.highs, other.highs)),
        )

    # -- measures -------------------------------------------------------------------

    @property
    def volume(self) -> float:
        """Product of side lengths; 0 if empty, inf if unbounded."""
        if self.is_empty:
            return 0.0
        result = 1.0
        for lo, hi in zip(self.lows, self.highs):
            result *= hi - lo
        # Every side is positive here, so NaN can only be ``0.0 * inf``:
        # finite sides underflowed the product before an unbounded one.
        return math.inf if result != result else result

    # -- conversions -------------------------------------------------------------

    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(lows, highs)`` as float64 numpy arrays."""
        return (
            np.asarray(self.lows, dtype=np.float64),
            np.asarray(self.highs, dtype=np.float64),
        )

    def _check_ndim(self, other: Rectangle) -> None:
        if self.ndim != other.ndim:
            raise ValueError(
                f"dimension mismatch: {self.ndim} vs {other.ndim}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sides = " x ".join(
            f"({lo}, {hi}]" for lo, hi in zip(self.lows, self.highs)
        )
        return f"Rectangle[{sides}]"
