"""Brute-force matcher: test every subscription against every event.

This is the obvious O(k·N) baseline the tree indexes are measured
against.  It is fully vectorized, so for small ``k`` it can beat the
trees on wall-clock time — one of the crossovers the matching benchmark
(`benchmarks/test_bench_matching.py`) maps out.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .base import PointMatcher

__all__ = ["LinearScanMatcher"]


class LinearScanMatcher(PointMatcher):
    """Exhaustive vectorized scan over all subscription rectangles."""

    def _match_ids(self, point: np.ndarray) -> np.ndarray:
        self.stats.entries_tested += self.size
        mask = np.all((self._lows < point) & (point <= self._highs), axis=1)
        return np.sort(self._ids[mask])

    def _match_rows(self, points: np.ndarray) -> List[np.ndarray]:
        """Bulk path: one (k, m) containment mask for the whole batch."""
        below = self._lows[:, None, :] < points[None, :, :]
        above = points[None, :, :] <= self._highs[:, None, :]
        mask = np.all(below & above, axis=2)
        self.stats.queries += points.shape[0]
        self.stats.entries_tested += self.size * points.shape[0]
        return [np.sort(self._ids[column]) for column in mask.T]
