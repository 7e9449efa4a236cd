"""Geometric primitives: half-open intervals, aligned rectangles, points.

The event space ``Omega ⊆ R^N`` is modelled exactly as in the paper:
subscriptions are axis-aligned rectangles whose sides are half-open
intervals ``(lo, hi]``, and publications are points.
"""

from .interval import FULL_LINE, Interval, parse_predicate
from .point import Point, as_point
from .rectangle import Rectangle

__all__ = [
    "FULL_LINE",
    "Interval",
    "parse_predicate",
    "Point",
    "as_point",
    "Rectangle",
]
