"""Regular-grid matcher: a bucketing baseline.

Imposes the same kind of regular grid the clustering framework uses
(Appendix A.2): each dimension is cut into ``cells_per_dim`` equal
half-open intervals over the data's bounding frame.  A build keeps
each rectangle's ``[first, last]`` cells per axis; a point query
locates its cell in O(N) and tests only that cell's candidates, the
rows whose ranges cover it, listed on the cell's first query and kept
(a ray spanning ``cells_per_dim ** N`` cells is one range, not an
entry in each).  Lookups degrade when subscriptions are large
relative to cells — a useful contrast to the trees.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..geometry.gridmath import covered_cell_range, locate_cell
from .base import PointMatcher, finite_frame

__all__ = ["GridIndexMatcher"]

DEFAULT_CELLS_PER_DIM = 16


class GridIndexMatcher(PointMatcher):
    """Uniform-grid bucket index over subscription rectangles."""

    def __init__(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        ids: np.ndarray,
        cells_per_dim: int = DEFAULT_CELLS_PER_DIM,
    ):
        super().__init__(lows, highs, ids)
        if cells_per_dim < 1:
            raise ValueError("cells_per_dim must be positive")
        self.cells_per_dim = cells_per_dim
        self._frame_lo, self._frame_hi = self._fit_frame()
        span = np.maximum(self._frame_hi - self._frame_lo, 1e-300)
        self._cell_width = span / cells_per_dim
        #: The frame as ``locate_cell`` takes it (lists, made once).
        self._locate_frame = (
            self._frame_lo.tolist(),
            self._frame_hi.tolist(),
            self._cell_width.tolist(),
            cells_per_dim,
        )
        self._listed, self._first, self._last = self._cell_ranges()
        #: Candidate rows of each cell a query has reached.
        self._cells: Dict[Tuple[int, ...], np.ndarray] = {}

    def _fit_frame(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounding frame over the finite coordinates of the data."""
        lo, hi = finite_frame(self._lows, self._highs)
        hi = np.where(hi > lo, hi, lo + 1.0)
        return lo, hi

    def _cell_ranges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows that can match, and each one's ``[first, last]``
        cells per axis."""
        lo = np.where(np.isfinite(self._lows), self._lows, self._frame_lo)
        hi = np.where(np.isfinite(self._highs), self._highs, self._frame_hi)
        # A genuinely empty rectangle matches nothing.
        empty = np.any(hi <= lo, axis=1) & np.any(
            self._highs <= self._lows, axis=1
        )
        listed = np.flatnonzero(~empty)
        # Rounding-safe (see :mod:`repro.geometry.gridmath`): an
        # endpoint on a cell boundary widens the range by one cell;
        # the exact test at query time filters the extras.
        first, last = covered_cell_range(
            lo[listed],
            hi[listed],
            self._frame_lo,
            self._cell_width,
            self.cells_per_dim,
        )
        return listed, first, last

    def _candidates(self, cell: Tuple[int, ...]) -> np.ndarray:
        """Ascending rows whose range covers ``cell`` on every axis."""
        rows = self._cells.get(cell)
        if rows is None:
            at = np.asarray(cell)
            covers = np.all((self._first <= at) & (at <= self._last), axis=1)
            rows = self._cells[cell] = self._listed[covers]
        return rows

    def _locate(self, point: np.ndarray) -> Tuple[int, ...] | None:
        """Cell coordinates of a point, or None when outside the frame."""
        return locate_cell(point.tolist(), *self._locate_frame)

    def _match_ids(self, point: np.ndarray) -> np.ndarray:
        cell = self._locate(point)
        if cell is None:
            # Outside the frame only unbounded rectangles can match;
            # fall back to testing everything (rare in practice).
            candidates = np.arange(self.size)
        else:
            self.stats.leaves_visited += 1
            candidates = self._candidates(cell)
        self.stats.entries_tested += len(candidates)
        lows = self._lows[candidates]
        highs = self._highs[candidates]
        mask = np.all((lows < point) & (point <= highs), axis=1)
        return np.sort(self._ids[candidates[mask]])
