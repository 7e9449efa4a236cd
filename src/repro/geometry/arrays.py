"""Vectorized bulk-geometry kernels over rectangle collections.

The spatial indexes and the brute-force matcher all operate on *large*
collections of rectangles.  Rather than looping over
:class:`~repro.geometry.rectangle.Rectangle` objects, they keep two
``(k, N)`` float64 arrays — ``lows`` and ``highs`` — and use the
kernels here.  All kernels respect the library-wide half-open
``(lo, hi]`` convention.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bulk_centers"]


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
