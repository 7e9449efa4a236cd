"""The counting algorithm: per-attribute indexes + predicate counters.

The matching algorithm family of Fabret, Llirbat, Pereira & Shasha
(the paper's reference [6], also behind Gryphon's matcher [3]): index
each attribute separately, and for a published event count, per
subscription, how many of its predicates are satisfied — a
subscription matches exactly when all ``N`` are.

Here every attribute index is a
:class:`~repro.spatial.intervaltree.StaticIntervalTree` answering the
1-D stabbing query "whose interval on this attribute contains the
event's value?".  Wildcard predicates (the full line) are excluded
from the trees and pre-counted: a subscription with ``w`` wildcard
dimensions matches when ``N - w`` of its indexed predicates are
satisfied.

Complexity per event: ``O(sum_d (log k + s_d))`` where ``s_d`` is the
number of satisfied predicates in dimension ``d`` — cheap when
predicates are selective, degrading toward ``O(N k)`` when most
predicates match everything (which the matching benchmark shows on
wildcard-heavy workloads).
"""

from __future__ import annotations

from typing import List

import numpy as np

from .base import PointMatcher
from .intervaltree import StaticIntervalTree

__all__ = ["CountingMatcher"]


class CountingMatcher(PointMatcher):
    """Predicate-counting matcher over per-dimension interval trees."""

    def __init__(self, lows: np.ndarray, highs: np.ndarray, ids: np.ndarray):
        super().__init__(lows, highs, ids)
        #: ``(-inf, +inf]`` sides: pre-counted, never indexed.  An empty
        #: side such as ``(+inf, +inf]`` is indexed (and matches nothing).
        self._wildcard = (lows == -np.inf) & (highs == np.inf)
        #: per-subscription number of non-wildcard predicates.
        self._required = (self.ndim - self._wildcard.sum(axis=1)).astype(
            np.int64
        )
        self._trees: List[StaticIntervalTree] = []
        for dim in range(self.ndim):
            rows = np.flatnonzero(~self._wildcard[:, dim])
            self._trees.append(
                StaticIntervalTree(
                    lows[rows, dim], highs[rows, dim], ids=rows
                )
            )

    def _match_ids(self, point: np.ndarray) -> np.ndarray:
        counts = np.zeros(self.size, dtype=np.int64)
        for dim, tree in enumerate(self._trees):
            stabbed = tree.stab(float(point[dim]))
            self.stats.entries_tested += len(stabbed)
            self.stats.nodes_visited += 1
            if stabbed:
                counts[stabbed] += 1
        matched = counts == self._required
        # A wildcard holds every value but -inf (and NaN).
        outside = ~(point > -np.inf)
        if outside.any():
            matched &= ~self._wildcard[:, outside].any(axis=1)
        return np.sort(self._ids[matched])
