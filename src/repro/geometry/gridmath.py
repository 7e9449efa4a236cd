"""Shared, rounding-safe grid-cell arithmetic.

Both regular grids in the library (the clustering grid of Appendix A.2
and the grid-bucket matcher) must answer the same two questions:

- which cells does a half-open rectangle ``(lo, hi]`` intersect, and
- which cell contains a point?

The second has one answer, :func:`locate_cell`: ``cell(x) =
clamp(ceil((x - frame_lo) / w) - 1)``.  The first is always answered
*through* that quantisation, never through the cells' edges: an edge
computed as ``frame_lo + i * w`` and a point quantised by ``ceil``
round differently, so an "exact" edge comparison can list a rectangle
in one cell while a point inside it lands in the next — and a missing
candidate is never recovered downstream.  A rectangle meets a cell iff
it does on every axis, so an answer is a ``[first, last]`` per axis and
the cells are their product; no cell is tested.  There are two:

- :func:`overlapped_cell_range`, **tight**: from the cell of the
  smallest representable point above ``lo`` to the cell of ``hi`` —
  exactly the cells a point of the rectangle can locate to.  The
  clustering grid takes it: its lists ``l(g)`` become multicast groups
  and shard placements and nothing re-tests them later.  For one
  rectangle under churn, :func:`overlapped_cell_box` does the same
  arithmetic in plain floats, as :func:`locate_cell` does for a point.
- :func:`covered_cell_range`, **wide**: both ends quantised as points,
  so a low edge on a boundary also admits the cell below it.  The
  bucket matcher keeps it: it runs the exact containment test on every
  candidate at query time anyway, so a spurious one costs a comparison.
"""

from __future__ import annotations

from math import ceil, inf, isfinite, nextafter
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "covered_cell_range",
    "locate_cell",
    "overlapped_cell_box",
    "overlapped_cell_range",
]


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

    The price is that a low endpoint lying exactly on a boundary
    admits the cell below it as a candidate even though the half-open
    overlap is empty; the grid matcher carries the extra candidate to
    its exact test at query time.  Callers that need tight membership
    take :func:`overlapped_cell_range`.
    """
    t = (lo - frame_lo) / cell_width
    u = (hi - frame_lo) / cell_width
    first = np.ceil(t).astype(int) - 1
    last = np.ceil(u).astype(int) - 1
    first = np.clip(first, 0, cells_per_dim - 1)
    last = np.clip(last, 0, cells_per_dim - 1)
    return first, np.maximum(last, first)


def overlapped_cell_range(
    lo: np.ndarray,
    hi: np.ndarray,
    frame_lo: np.ndarray,
    cell_width: np.ndarray,
    cells_per_dim: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Tight per-dimension ``[first, last]`` cells meeting ``(lo, hi]``.

    :func:`locate_cell`'s quantisation and clamp, applied to the
    smallest representable point above ``lo`` and to ``hi``.  Subtract,
    divide and ceil are monotone, so every point of the rectangle
    locates inside the range, and its two ends are the cells of two
    such points, so nothing narrower would do.  Sides beyond the frame,
    unbounded ones included, clamp to its first / last cell.  Takes
    one rectangle ``(ndim,)`` or a table ``(n, ndim)``, ``lo < hi``.
    """
    # ``maximum``: a ``-inf`` side would overflow the division.
    ends = np.stack([np.nextafter(np.maximum(lo, frame_lo), np.inf), hi])
    cells = np.ceil((ends - frame_lo) / cell_width) - 1
    first, last = np.clip(cells, 0, cells_per_dim - 1).astype(int)
    return first, last


def overlapped_cell_box(
    lows: Sequence[float],
    highs: Sequence[float],
    frame_lo: Sequence[float],
    frame_hi: Sequence[float],
    cell_width: Sequence[float],
    cells_per_dim: int,
) -> List[range]:
    """One rectangle's cells as a ``range`` per axis; ``[]`` when it is
    empty or misses the frame.

    What the grid's table-wide build computes for a row — unbounded
    sides clipped to the frame, then :func:`overlapped_cell_range` —
    float for float, without an array per call.
    """
    last = cells_per_dim - 1
    box = []
    for lo, hi, f_lo, f_hi, width in zip(
        lows, highs, frame_lo, frame_hi, cell_width
    ):
        a = max(lo if isfinite(lo) else f_lo, f_lo)
        b = min(hi if isfinite(hi) else f_hi, f_hi)
        if hi <= lo or b <= a:
            return []
        first = ceil((nextafter(a, inf) - f_lo) / width) - 1
        end = ceil((b - f_lo) / width) - 1
        box.append(range(min(max(first, 0), last), min(max(end, 0), last) + 1))
    return box


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
