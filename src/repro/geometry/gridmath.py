"""Shared, rounding-safe grid-cell arithmetic.

Both regular grids in the library (the clustering grid of Appendix A.2
and the grid-bucket matcher) must answer the same two questions:

- which cells does a half-open rectangle ``(lo, hi]`` intersect, and
- which cell contains a point?

The subtlety is floating-point rounding at cell boundaries: an
endpoint one ulp away from a boundary can quantize *onto* it, which —
with exact-arithmetic formulas — silently shifts the first/last
covered cell by one and loses matches.  Correctness is preserved by
being conservative in rectangle registration: whenever a quantized
endpoint lands exactly on a boundary, the range is widened by one cell
in that direction.  Spurious extra candidates are filtered by the
exact containment test downstream; missing candidates can never be
recovered, so the asymmetry is deliberate.
"""

from __future__ import annotations

from math import ceil
from typing import Sequence, Tuple

import numpy as np

__all__ = ["covered_cell_range", "locate_cell"]


def covered_cell_range(
    lo: np.ndarray,
    hi: np.ndarray,
    frame_lo: np.ndarray,
    cell_width: np.ndarray,
    cells_per_dim: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-dimension ``[first, last]`` cell coordinates for ``(lo, hi]``.

    Cell ``i`` covers ``(frame_lo + i*w, frame_lo + (i+1)*w]``.  The
    range is computed with the *same* quantization as
    :func:`locate_cell` — ``cell(x) = ceil((x - frame_lo)/w) - 1`` —
    applied to both endpoints.  Because float division and ceil are
    monotone, every point ``p`` with ``lo < p <= hi`` then locates
    inside ``[cell(lo), cell(hi)]`` *by construction*, regardless of
    rounding; exact-arithmetic formulas (``floor`` on the low side)
    can shift by one when an endpoint sits within an ulp of a
    boundary and silently lose matches.

    The price is that an endpoint lying exactly on a boundary admits
    the neighbouring cell as a candidate even though the half-open
    overlap is empty; callers that need tight membership (the
    clustering grid) filter candidates with an exact intersection
    test, and candidate-bucket callers (the grid matcher) simply carry
    the extra candidate.
    """
    t = (lo - frame_lo) / cell_width
    u = (hi - frame_lo) / cell_width
    first = np.ceil(t).astype(int) - 1
    last = np.ceil(u).astype(int) - 1
    first = np.clip(first, 0, cells_per_dim - 1)
    last = np.clip(last, 0, cells_per_dim - 1)
    return first, np.maximum(last, first)


def locate_cell(
    point: Sequence[float],
    frame_lo: Sequence[float],
    frame_hi: Sequence[float],
    cell_width: Sequence[float],
    cells_per_dim: int,
) -> Tuple[int, ...] | None:
    """Cell coordinates of a point, or ``None`` outside the frame.

    Half-open convention: a point exactly on the frame's low edge is
    outside; one exactly on a cell's high boundary belongs to that
    cell (``ceil - 1``).

    Runs once per published event, on a handful of coordinates: plain
    float arithmetic, so callers keep the frame as lists (indexing an
    array would box every element).
    """
    last = cells_per_dim - 1
    coords = []
    for x, lo, hi, width in zip(point, frame_lo, frame_hi, cell_width):
        if not lo < x <= hi:
            return None
        cell = ceil((x - lo) / width) - 1
        coords.append(0 if cell < 0 else last if cell > last else cell)
    return tuple(coords)
