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

:meth:`PackedTree.search` is level-synchronous: the children of the
whole frontier are tested in one numpy call per level, leaves reached on
any level are collected (the S-tree is unbalanced) and their entries
tested in one call.  :class:`~repro.spatial.base.QueryStats` reads what
a node-at-a-time recursive walk reads: each internal node and leaf
reached counts once per query, each entry of a reached leaf as tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .base import PointMatcher, QueryStats

__all__ = ["PackedTree", "PackedTreeMatcher"]

#: ``inside(lows, highs, owner) -> mask``: which boxes the query reaches.
#: ``owner`` is each box's query number in a batch, ``None`` otherwise.
Predicate = Callable[[np.ndarray, np.ndarray, Optional[np.ndarray]], np.ndarray]

#: Most (point, entry) pairs one ``match_many`` chunk should test.
#: Measured (EXPERIMENTS.md Section 3, a fresh process per cell), µs per
#: point at 1k / 4k / 8k / 16k stock subscriptions: 1k pairs 10 / 24 /
#: 45 / 101, **8k pairs 6 / 19 / 36 / 79**, 32k 10 / 31 / 56 / 105, the
#: whole 2000-point batch 8 / 24 / 51 / 112.  Small chunks pay per-call
#: overhead; big ones gather into arrays that the allocator maps afresh
#: on every call and that no longer fit the cache.
_CHUNK_PAIRS = 8192
#: Points in the first chunk, before any pairs-per-point was observed.
_FIRST_CHUNK = 16


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

    def search(
        self,
        inside: Predicate,
        stats: QueryStats,
        owner: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Slab rows of the entries the query reaches and ``inside`` keeps.

        With ``owner`` (one number per query) the frontier holds (query,
        node) pairs and each returned row comes with its query's number.
        """
        nodes = np.zeros(1 if owner is None else owner.size, np.int64)
        leaf_nodes: List[np.ndarray] = []
        leaf_owner: List[np.ndarray] = []
        while nodes.size:
            leaf = self.is_leaf.take(nodes)
            inner = ~leaf
            leaf_nodes.append(nodes[leaf])
            nodes = nodes[inner]
            if owner is not None:
                leaf_owner.append(owner[leaf])
                owner = owner[inner]
            if nodes.size:
                stats.nodes_visited += nodes.size
                nodes, owner = _descend(
                    inside, nodes, owner, self.child_start,
                    self.child_count, self.lows, self.highs,
                )
        leaves = np.concatenate(leaf_nodes)
        if not leaves.size:
            return leaves, owner
        stats.leaves_visited += leaves.size
        stats.entries_tested += int(self.entry_count.take(leaves).sum())
        if owner is not None:
            owner = np.concatenate(leaf_owner)
        return _descend(
            inside, leaves, owner, self.entry_start,
            self.entry_count, self.entry_lows, self.entry_highs,
        )


def _descend(
    inside: Predicate,
    parents: np.ndarray,
    owner: Optional[np.ndarray],
    start: np.ndarray,
    count: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The boxes under ``parents`` that ``inside`` keeps, in one test.

    A parent's boxes are the rows ``start .. start + count`` of ``lows``
    / ``highs``: child nodes of a node, slab entries of a leaf.
    """
    counts = count.take(parents)
    if parents.size == 1:  # every single query starts here, at the root
        below = np.arange(counts[0]) + start[parents[0]]
    else:
        ends = counts.cumsum()
        below = np.arange(ends[-1]) + (
            start.take(parents) - ends + counts
        ).repeat(counts)
    if owner is not None:
        owner = owner.repeat(counts)
    hit = inside(lows.take(below, axis=1), highs.take(below, axis=1), owner)
    return below[hit], None if owner is None else owner[hit]


class PackedTreeMatcher(PointMatcher):
    """Queries over ``self._packed``; a subclass only packs the tree."""

    _packed: PackedTree

    def _query(self, inside: Predicate) -> List[int]:
        rows, _ = self._packed.search(inside, self.stats)
        ids = self._packed.entry_ids.take(rows)
        ids.sort()
        result: List[int] = ids.tolist()
        return result

    def _match_ids(self, point: np.ndarray) -> List[int]:
        at = point[:, None]
        return self._query(
            lambda lows, highs, _: ((lows < at) & (at <= highs)).all(axis=0)
        )

    def _match_rows(self, points: np.ndarray) -> List[List[int]]:
        """Chunks sized to ~``_CHUNK_PAIRS`` pairs, each one pair frontier."""
        result: List[List[int]] = []
        step = _FIRST_CHUNK
        while len(result) < len(points):
            chunk = points[len(result) : len(result) + step]
            before = self.stats.entries_tested
            result.extend(self._match_chunk(chunk))
            tested = self.stats.entries_tested - before
            step = max(1, _CHUNK_PAIRS * len(chunk) // max(tested, 1))
        return result

    def _match_chunk(self, points: np.ndarray) -> List[List[int]]:
        columns = np.ascontiguousarray(points.T)

        def inside(
            lows: np.ndarray, highs: np.ndarray, owner: Optional[np.ndarray]
        ) -> np.ndarray:
            at = columns.take(owner, axis=1)
            return ((lows < at) & (at <= highs)).all(axis=0)

        self.stats.queries += len(points)
        rows, owner = self._packed.search(
            inside, self.stats, np.arange(len(points))
        )
        ids = self._packed.entry_ids.take(rows)
        # Sorted by (owner, id); two plain sorts beat one ``lexsort``.
        by_id = np.argsort(ids)
        order = by_id[np.argsort(np.take(owner, by_id), kind="stable")]
        flat = ids.take(order).tolist()
        cuts = np.searchsorted(
            np.take(owner, order), np.arange(len(points) + 1)
        ).tolist()
        return [flat[a:b] for a, b in zip(cuts, cuts[1:])]

    @property
    def height(self) -> int:
        """Number of edges from the root to the deepest leaf."""
        return int(self._packed.depths()[-1])
