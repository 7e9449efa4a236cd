"""One packed layout and one traversal for the tree indexes.

The S-tree and the Hilbert R-tree pack differently but *query* alike —
descend from the root, pruning every child whose MBR misses the query —
so they share one layout and one kernel.  **Nodes** are numbered
breadth-first (root 0) in parallel arrays: MBRs ``lows`` / ``highs``,
``child_start`` / ``child_count`` (children are contiguous), ``is_leaf``.
**Entries** fill one slab, leaf by leaf: ``entry_lows`` / ``entry_highs``
/ ``entry_ids``, a leaf owning rows ``entry_start .. + entry_count``.
Bounds are dimension-major, ``(N, count)``: a column ``take`` and a test
reduced along the short axis cost 3-6x less than the row-major forms.

A query takes the *flat reach*.  Every MBR is built bottom-up, so a
box lies inside its parent's and, under ``(lo, hi]``, a node is reached
exactly when its own box passes (the root always): one test over every
node box, one over the entries of the leaves it kept, whatever the
depth.  The point query and the S-tree's region query run their own
tests inline and share the step between (:meth:`PackedTree.candidates`).
Point tests read the bounds folded (``folds`` / ``entry_folds``):
``[nextafter(lo, +inf) ; -hi]``, NaN where ``lo`` is ``+inf``, so
``lo < x <= hi`` is one ``<=`` against ``[x ; -x]``, exact for every
``x`` including ±inf and NaN (EXPERIMENTS.md Section 3 weighs the
speed it buys against the bytes it stores).
:class:`~repro.spatial.base.QueryStats` reads what a node-at-a-time
recursive walk reads: each internal node and leaf reached counts once
per query, each entry of a reached leaf as tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, nan, nextafter
from typing import List, Sequence

import numpy as np

from .base import PointMatcher, QueryStats

__all__ = ["FOLD_SIGNS", "PackedTree", "PackedTreeMatcher", "fold_box"]

#: ``(FOLD_SIGNS * x).reshape(-1, 1)`` is the column ``[x ; -x]`` a
#: folded test reads: a product by ±1 is exact, and costs less than a
#: ``concatenate``.
FOLD_SIGNS = np.array([[1.0], [-1.0]])
_all = np.logical_and.reduce


@dataclass(frozen=True)
class PackedTree:
    """A tree index flattened into arrays (see the module docstring)."""

    lows: np.ndarray
    highs: np.ndarray
    child_start: np.ndarray
    child_count: np.ndarray
    is_leaf: np.ndarray
    entry_start: np.ndarray
    entry_count: np.ndarray
    entry_lows: np.ndarray
    entry_highs: np.ndarray
    entry_ids: np.ndarray
    folds: np.ndarray
    entry_folds: np.ndarray

    @classmethod
    def pack(
        cls,
        lows: np.ndarray,
        highs: np.ndarray,
        ids: np.ndarray,
        order: np.ndarray,
        child_count: Sequence[int],
        entry_count: Sequence[int],
    ) -> PackedTree:
        """Lay out a tree from its breadth-first shape.

        ``child_count[i]`` / ``entry_count[i]`` describe node ``i`` (one
        of them is 0); ``order`` lists the rectangle rows leaf by leaf.
        Numbered breadth-first, every start is a running sum.
        """
        children = np.asarray(child_count, dtype=np.int64)
        entries = np.asarray(entry_count, dtype=np.int64)
        child_start = 1 + children.cumsum() - children
        entry_start = entries.cumsum() - entries
        is_leaf = children == 0
        entry_lows = np.ascontiguousarray(lows[order].T)
        entry_highs = np.ascontiguousarray(highs[order].T)
        node_lows = np.empty((lows.shape[1], len(children)))
        node_highs = np.empty_like(node_lows)
        leaf_starts = entry_start[is_leaf]
        node_lows[:, is_leaf] = np.minimum.reduceat(
            entry_lows, leaf_starts, axis=1
        )
        node_highs[:, is_leaf] = np.maximum.reduceat(
            entry_highs, leaf_starts, axis=1
        )
        # Children carry larger numbers than their parent, so walking
        # the internal nodes backwards finds every child MBR ready.
        for node in np.flatnonzero(~is_leaf)[::-1].tolist():
            first = child_start[node]
            last = first + children[node]
            node_lows[:, node] = node_lows[:, first:last].min(axis=1)
            node_highs[:, node] = node_highs[:, first:last].max(axis=1)
        return cls(
            node_lows, node_highs, child_start, children, is_leaf,
            entry_start, entries, entry_lows, entry_highs, ids[order],
            _fold(node_lows, node_highs), _fold(entry_lows, entry_highs),
        )

    def depths(self) -> np.ndarray:
        """Depth of every node (root 0), read off the level boundaries."""
        depth = np.empty(len(self.is_leaf), dtype=np.int64)
        start, end, level = 0, 1, 0
        while start < end:
            depth[start:end] = level
            below = int(self.child_count[start:end].sum())
            start, end, level = end, end + below, level + 1
        return depth

    def candidates(self, hit: np.ndarray, stats: QueryStats) -> np.ndarray:
        """Slab rows of the leaves one query reaches.

        ``hit`` is the query's test over every node box (modified: the
        root is entered untested); the reach is counted into ``stats``.
        """
        hit[0] = True
        leaves = np.count_nonzero(hit & self.is_leaf)
        stats.nodes_visited += np.count_nonzero(hit) - leaves
        stats.leaves_visited += leaves
        # Internal nodes own no entries; leaves own theirs in slab order.
        rows = hit.repeat(self.entry_count).nonzero()[0]
        stats.entries_tested += rows.size
        return rows


def _fold(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """``[nextafter(lows, +inf) ; -highs]``, NaN where a low is ``+inf``."""
    with np.errstate(over="ignore"):
        above = np.nextafter(lows, np.inf)
    above[lows == np.inf] = np.nan
    return np.concatenate((above, -highs))


def fold_box(lows: Sequence[float], highs: Sequence[float]) -> List[float]:
    """The fold of one box (``_fold``'s), in plain floats."""
    above = [nan if x == inf else nextafter(x, inf) for x in lows]
    return above + [-x for x in highs]


class PackedTreeMatcher(PointMatcher):
    """Queries over ``self._packed``; a subclass only packs the tree."""

    _packed: PackedTree

    def _match_ids(self, point: np.ndarray) -> np.ndarray:
        packed = self._packed
        at = (FOLD_SIGNS * point).reshape(-1, 1)
        rows = packed.candidates(_all(packed.folds <= at, axis=0), self.stats)
        inside = _all(packed.entry_folds.take(rows, axis=1) <= at, axis=0)
        ids = packed.entry_ids.take(rows[inside])
        ids.sort()
        return ids
