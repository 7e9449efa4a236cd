"""Vectorized bulk-geometry kernels over rectangle collections.

The spatial indexes and the brute-force matcher all operate on *large*
collections of rectangles.  Rather than looping over
:class:`~repro.geometry.rectangle.Rectangle` objects, they keep two
``(k, N)`` float64 arrays — ``lows`` and ``highs`` — and use the
kernels here.  All kernels respect the library-wide half-open
``(lo, hi]`` convention.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from .rectangle import Rectangle

__all__ = [
    "rectangles_to_arrays",
    "arrays_to_rectangles",
    "contains_points_mask",
    "point_membership_mask",
    "bulk_volume",
    "bulk_centers",
    "mbr_of",
]


def rectangles_to_arrays(
    rectangles: Sequence[Rectangle],
) -> Tuple[np.ndarray, np.ndarray]:
    """Stack rectangles into ``(k, N)`` lows/highs arrays."""
    if not rectangles:
        raise ValueError("need at least one rectangle")
    ndim = rectangles[0].ndim
    lows = np.empty((len(rectangles), ndim), dtype=np.float64)
    highs = np.empty((len(rectangles), ndim), dtype=np.float64)
    for i, rect in enumerate(rectangles):
        if rect.ndim != ndim:
            raise ValueError("all rectangles must share one dimensionality")
        lows[i] = rect.lows
        highs[i] = rect.highs
    return lows, highs


def arrays_to_rectangles(
    lows: np.ndarray, highs: np.ndarray
) -> list[Rectangle]:
    """Inverse of :func:`rectangles_to_arrays`."""
    return [
        Rectangle.from_bounds(lo_row, hi_row)
        for lo_row, hi_row in zip(lows, highs)
    ]


def point_membership_mask(
    lows: np.ndarray, highs: np.ndarray, point: Sequence[float]
) -> np.ndarray:
    """Boolean mask of the rectangles containing ``point``.

    Implements the half-open test ``lo < x <= hi`` across all ``k``
    rectangles at once; this is the brute-force matching kernel.
    """
    p = np.asarray(point, dtype=np.float64)
    return np.all((lows < p) & (p <= highs), axis=1)


def contains_points_mask(
    lows: np.ndarray, highs: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """``(k, m)`` mask: entry ``[i, j]`` iff rectangle i contains point j."""
    pts = np.asarray(points, dtype=np.float64)
    below = lows[:, None, :] < pts[None, :, :]
    above = pts[None, :, :] <= highs[:, None, :]
    return np.all(below & above, axis=2)


def bulk_volume(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Per-rectangle volume; 0 for empty rectangles."""
    extents = np.clip(highs - lows, 0.0, None)
    return np.prod(extents, axis=-1)


def bulk_centers(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Per-rectangle geometric centers, mirroring :meth:`Interval.center`.

    Bounded sides use the midpoint; half-infinite sides use their
    finite endpoint; fully unbounded sides use 0.  (These centers feed
    the S-tree binarization sweep ordering, so the convention only
    needs to be monotone-sensible, not metrically exact.)
    """
    lo_finite = np.isfinite(lows)
    hi_finite = np.isfinite(highs)
    centers = np.zeros_like(lows)
    both = lo_finite & hi_finite
    centers[both] = (lows[both] + highs[both]) / 2.0
    only_lo = lo_finite & ~hi_finite
    centers[only_lo] = lows[only_lo]
    only_hi = ~lo_finite & hi_finite
    centers[only_hi] = highs[only_hi]
    return centers


def mbr_of(lows: np.ndarray, highs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Minimum bounding rectangle of all rows, as ``(lo, hi)`` vectors."""
    return lows.min(axis=0), highs.max(axis=0)
