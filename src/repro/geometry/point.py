"""Points in the event space.

A published event is a point ``omega`` in ``Omega ⊆ R^N``.  Points are
plain tuples of floats throughout the library (cheap, hashable, and
directly usable as numpy rows); this module provides the small amount
of validation and conversion glue the rest of the code shares.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

__all__ = ["Point", "as_point"]

#: Type alias for an event-space point.
Point = Tuple[float, ...]


def as_point(coords: Sequence[float], ndim: int | None = None) -> Point:
    """Normalize a coordinate sequence into a float tuple.

    Raises ``ValueError`` when ``ndim`` is given and does not match, or
    when any coordinate is not a finite real number (events are always
    concrete values; infinities belong to subscriptions only).
    """
    point = tuple(map(float, coords))
    if ndim is not None and len(point) != ndim:
        raise ValueError(f"expected {ndim} coordinates, got {len(point)}")
    if not all(map(math.isfinite, point)):
        raise ValueError(f"event coordinates must be finite: {point}")
    return point
