"""Brute-force matcher: test every subscription against every event.

The O(k·N) baseline the tree indexes are measured against.  It tests
the folded bounds laid out as the packed trees' entry slab
(:mod:`repro.spatial.packed`): one ``<=`` over a dimension-major
``(2N, k)`` array against ``[x ; -x]``, then a numpy sort.  With the
layout shared, the trees' lead over it is their pruning alone;
EXPERIMENTS.md Section 3 gives the crossover by table size.
"""

from __future__ import annotations

import numpy as np

from .base import PointMatcher
from .packed import FOLD_SIGNS, _fold

__all__ = ["LinearScanMatcher"]


class LinearScanMatcher(PointMatcher):
    """Exhaustive vectorized scan over all subscription rectangles."""

    def __init__(self, lows: np.ndarray, highs: np.ndarray, ids: np.ndarray):
        super().__init__(lows, highs, ids)
        self._folds = _fold(
            np.ascontiguousarray(lows.T), np.ascontiguousarray(highs.T)
        )

    def _match_ids(self, point: np.ndarray) -> np.ndarray:
        self.stats.entries_tested += self.size
        at = (FOLD_SIGNS * point).reshape(-1, 1)
        ids = self._ids[np.logical_and.reduce(self._folds <= at, axis=0)]
        ids.sort()
        return ids
