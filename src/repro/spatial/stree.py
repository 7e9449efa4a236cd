"""The S-tree: an unbalanced spatial index packed for point queries.

This is the paper's matching structure (Section 3), following
Aggarwal, Wolf, Yu and Epelman, *Using unbalanced trees for indexing
multidimensional objects* (KAIS 1999).  Leaf and internal node records
look exactly like R-tree records — ``(MBR, subscription-id)`` at the
leaves and ``(MBR, child)`` internally — but the packing is different
and the tree is deliberately *not* height balanced.

Construction proceeds in the paper's two stages:

1. **Binarization** — a top-down recursive split.  A node holding
   ``N_A`` objects becomes a leaf when ``N_A <= M``.  Otherwise we take
   the node's minimum bounding rectangle, choose its *longest*
   dimension, order the objects by their centers along that dimension,
   and sweep candidate split positions ``q`` with
   ``p*N_A <= q <= (1-p)*N_A`` in increments of ``M`` (``p`` is the
   *skew factor*, typically 0.3).  The split minimizing the sum of the
   two child MBR volumes wins; ties go to the smaller total perimeter.
   One pass sweeps every candidate dimension (by default all of them):
   a stable sort of the ``(N_A, D)`` centers, one gather, and a
   ``reduceat`` over the blocks between cuts whose running min / max
   give both child MBRs of every cut.

2. **Compression** — turn the binary tree into an M-ary tree.  First,
   every deepest internal node whose number of *leaf-node* descendants
   is at most ``M`` (while its parent's exceeds ``M``) swallows all
   internal nodes beneath it, becoming a *penultimate* node that
   directly parents its leaves.  Then, walking the remaining internal
   nodes top-down (breadth-first), each parent repeatedly collapses
   with its non-leaf child of highest *leaf number* (descendant object
   count) — growing its branch factor one child at a time — until the
   branch factor reaches ``M`` or all children are leaves.

Volumes of unbounded subscriptions (``volume >= 1000`` has an infinite
side) are measured against a bounded *packing frame* derived from the
finite coordinates present in the data, so the sweep objective stays
informative; query-time MBRs always use the true, unclipped bounds, so
correctness never depends on the frame.

The compressed node graph is not kept: it is emitted, breadth-first,
into the packed array layout of :mod:`repro.spatial.packed` (node MBR
arrays with contiguous children, one leaf-entry slab).  Every query,
point and region, takes that module's flat reach.  Packing decides *which* nodes a query reaches; the layout
only changes how fast reaching them is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.arrays import bulk_centers
from .base import finite_frame
from .packed import PackedTree, PackedTreeMatcher

__all__ = ["STree", "STreeParams", "TreeShape"]

#: Default maximum branch factor ("about 40" in the paper).
DEFAULT_BRANCH_FACTOR = 40
#: Default skew factor ("typically p is chosen to be about 0.3").
DEFAULT_SKEW_FACTOR = 0.3
#: Relative margin added around the data when deriving the packing frame.
_FRAME_MARGIN = 0.5
#: Build-only packing geometry: clipped lows, clipped highs, their centers.
_Frame = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class STreeParams:
    """Build-time knobs of the S-tree.

    Parameters
    ----------
    branch_factor:
        Maximum fanout ``M`` (also the leaf capacity).
    skew_factor:
        ``p ∈ (0, 1/2]``; smaller values allow more skew.
    sweep_increment:
        Stride of the binarization sweep.  ``None`` uses the paper's
        choice of ``M``; 1 evaluates every legal split (slower, used by
        the ablation benchmark).
    split_dimension:
        ``"best"`` (default) sweeps every dimension and keeps the
        globally volume-minimizing split; ``"longest"`` is the ICDCS
        text's literal heuristic — sweep only the dimension in which
        the node's MBR is longest.  On workloads mixing wildcards and
        rays into a few wide dimensions, ``"longest"`` spends every
        level on those dimensions and prunes poorly; the ablation
        benchmark quantifies the gap.
    """

    branch_factor: int = DEFAULT_BRANCH_FACTOR
    skew_factor: float = DEFAULT_SKEW_FACTOR
    sweep_increment: Optional[int] = None
    split_dimension: str = "best"

    def __post_init__(self) -> None:
        if self.branch_factor < 2:
            raise ValueError("branch_factor must be at least 2")
        if not 0.0 < self.skew_factor <= 0.5:
            raise ValueError("skew_factor must lie in (0, 1/2]")
        if self.sweep_increment is not None and self.sweep_increment < 1:
            raise ValueError("sweep_increment must be positive")
        if self.split_dimension not in ("best", "longest"):
            raise ValueError(
                "split_dimension must be 'best' or 'longest', got "
                f"{self.split_dimension!r}"
            )

    @property
    def effective_sweep_increment(self) -> int:
        """The stride actually used (defaults to the branch factor)."""
        return self.sweep_increment or self.branch_factor


@dataclass(frozen=True)
class TreeShape:
    """Structural summary of a built tree (for benchmarks and tests)."""

    height: int
    internal_nodes: int
    leaf_nodes: int
    entries: int
    min_leaf_depth: int
    max_leaf_depth: int
    mean_branch_factor: float

    @property
    def skewness(self) -> int:
        """Depth spread between the shallowest and deepest leaf."""
        return self.max_leaf_depth - self.min_leaf_depth


class _BinaryNode:
    """Intermediate node used during binarization and compression."""

    __slots__ = ("children", "indices", "leaf_number")

    def __init__(
        self,
        indices: Optional[np.ndarray] = None,
        children: Optional[List["_BinaryNode"]] = None,
        leaf_number: int = 0,
    ):
        self.indices = indices  # set only on leaves
        self.children = children if children is not None else []
        self.leaf_number = leaf_number

    @property
    def is_leaf(self) -> bool:
        return self.indices is not None


class STree(PackedTreeMatcher):
    """Point-query index over subscription rectangles (paper Section 3)."""

    def __init__(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        ids: np.ndarray,
        params: Optional[STreeParams] = None,
    ):
        super().__init__(lows, highs, ids)
        self.params = params or STreeParams()
        pack_lows, pack_highs = _packing_frame_clip(lows, highs)
        # Centers of the *clipped* rectangles drive the sweep ordering.
        # On the finite domains the S-tree paper assumes, a half-open
        # ray's center is the midpoint of its clipped extent — far from
        # the bounded population — so rays and wildcards sort to the
        # edges and get segregated into their own subtrees instead of
        # poisoning every leaf MBR with an unbounded side.
        frame = (pack_lows, pack_highs, bulk_centers(pack_lows, pack_highs))
        binary_root = self._binarize(
            np.arange(self.size, dtype=np.int64), frame
        )
        # Compression: binary tree -> M-ary tree, in place.
        _form_penultimate_nodes(binary_root, self.params.branch_factor)
        _collapse_top_down(binary_root, self.params.branch_factor)
        self._packed = self._flatten(binary_root)

    # -- binarization -------------------------------------------------------

    def _binarize(self, indices: np.ndarray, frame: _Frame) -> _BinaryNode:
        """Recursively split ``indices`` per the sweep rule."""
        count = len(indices)
        if count <= self.params.branch_factor:
            return _BinaryNode(indices=indices, leaf_number=count)
        left_idx, right_idx = self._best_split(indices, frame)
        left = self._binarize(left_idx, frame)
        right = self._binarize(right_idx, frame)
        return _BinaryNode(children=[left, right], leaf_number=count)

    def _best_split(
        self, indices: np.ndarray, frame: _Frame
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One binarization step.

        Sweeps candidate split positions (respecting the skew bounds,
        in strides of the sweep increment) along each candidate
        dimension's center order, all in one pass, and returns the
        split minimizing the summed child-MBR volumes, ties broken by
        total perimeter, then by the lower dimension and earlier cut.
        """
        pack_lows, pack_highs, pack_centers = frame
        count = len(indices)
        centers = pack_centers[indices]
        if self.params.split_dimension == "longest":
            lows, highs = pack_lows[indices], pack_highs[indices]
            extents = highs.max(axis=0) - lows.min(axis=0)
            centers = centers[:, [int(np.argmax(extents))]]

        p = self.params.skew_factor
        q_min = max(1, math.ceil(p * count))
        q_max = min(count - 1, math.floor((1 - p) * count))
        if q_min > q_max:
            q_min = q_max = count // 2
        step = self.params.effective_sweep_increment
        cuts = list(range(q_min, q_max + 1, step))
        if cuts[-1] != q_max:
            # Always consider the last legal split so the sweep covers
            # the whole admissible range regardless of the stride.
            cuts.append(q_max)

        # ``(dims, count)``: each candidate dimension's center order.
        orders = indices.take(np.argsort(centers, axis=0, kind="stable").T)
        blocks = [0] + cuts  # block ``i`` ends at cut ``i``
        lo = np.minimum.reduceat(pack_lows.take(orders, 0), blocks, axis=1)
        hi = np.maximum.reduceat(pack_highs.take(orders, 0), blocks, axis=1)
        # Cut ``i``'s left child is blocks ``0..i``, its right the rest.
        left = (
            np.maximum.accumulate(hi[:, :-1], axis=1)
            - np.minimum.accumulate(lo[:, :-1], axis=1)
        )
        right = (
            np.maximum.accumulate(hi[:, :0:-1], axis=1)
            - np.minimum.accumulate(lo[:, :0:-1], axis=1)
        )[:, ::-1]
        volumes = np.prod(left, axis=2) + np.prod(right, axis=2)
        perimeters = left.sum(axis=2) + right.sum(axis=2)
        # Each dimension's best cut, then the best dimension by tuple
        # ``<`` (first wins ties; a NaN volume is never replaced).
        picks = np.lexsort((perimeters, volumes))[:, 0].tolist()
        keys = [(volumes[d, q], perimeters[d, q]) for d, q in enumerate(picks)]
        dim = min(range(len(keys)), key=keys.__getitem__)
        cut = cuts[picks[dim]]
        return orders[dim, :cut], orders[dim, cut:]

    # -- flattening --------------------------------------------------------------

    def _flatten(self, root: _BinaryNode) -> PackedTree:
        """Emit the compressed node graph in the packed layout."""
        nodes = [root]
        child_count: List[int] = []
        entry_count: List[int] = []
        order: List[np.ndarray] = []
        for node in nodes:  # grows as it is walked: breadth-first
            if node.indices is not None:
                order.append(node.indices)
            nodes.extend(node.children)
            child_count.append(len(node.children))
            entry_count.append(0 if node.indices is None else len(node.indices))
        rows = np.concatenate(order)
        return PackedTree.pack(
            self._lows, self._highs, self._ids, rows, child_count, entry_count
        )

    # -- queries --------------------------------------------------------------------

    def region_query(self, lows: Sequence[float], highs: Sequence[float]) -> List[int]:
        """All rectangle ids intersecting the query rectangle ``(lows, highs]``.

        Both sides follow the half-open convention, so a region with a
        zero-width side is empty and intersects nothing.  Bounds with
        ``lows > highs`` or NaN are rejected.
        """
        q_lo = np.asarray(lows, dtype=np.float64)
        q_hi = np.asarray(highs, dtype=np.float64)
        if q_lo.shape != (self.ndim,) or q_hi.shape != (self.ndim,):
            raise ValueError("query bounds must have one value per dimension")
        if not np.all(q_lo <= q_hi):  # also false for a NaN bound
            raise ValueError(
                "query bounds must satisfy lows <= highs without NaN, got "
                f"{q_lo.tolist()} and {q_hi.tolist()}"
            )
        self.stats.queries += 1
        q_lo, q_hi = q_lo[:, None], q_hi[:, None]

        def overlaps(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
            return (np.maximum(lo, q_lo) < np.minimum(hi, q_hi)).all(axis=0)

        packed = self._packed
        rows = packed.candidates(overlaps(packed.lows, packed.highs), self.stats)
        entries = (packed.entry_lows, packed.entry_highs)
        rows = rows[overlaps(*(box.take(rows, axis=1) for box in entries))]
        return sorted(packed.entry_ids.take(rows).tolist())

    # -- introspection ----------------------------------------------------------------

    def shape(self) -> TreeShape:
        """Structural summary (height, node counts, balance)."""
        packed = self._packed
        leaf_depths = packed.depths()[packed.is_leaf]
        internal = int((~packed.is_leaf).sum())
        return TreeShape(
            height=int(leaf_depths.max()),
            internal_nodes=internal,
            leaf_nodes=len(leaf_depths),
            entries=len(packed.entry_ids),
            min_leaf_depth=int(leaf_depths.min()),
            max_leaf_depth=int(leaf_depths.max()),
            mean_branch_factor=(
                int(packed.child_count.sum()) / internal if internal else 0.0
            ),
        )


def _packing_frame_clip(
    lows: np.ndarray, highs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Clip bounds to a finite frame for packing-geometry purposes.

    The frame spans the finite coordinates present in the data,
    extended by a relative margin so clipped unbounded sides remain
    strictly larger than any bounded side they dominate.
    """
    frame_lo, frame_hi = finite_frame(lows, highs)
    span = np.maximum(frame_hi - frame_lo, 1.0)
    frame_lo = frame_lo - _FRAME_MARGIN * span
    frame_hi = frame_hi + _FRAME_MARGIN * span
    return np.maximum(lows, frame_lo), np.minimum(highs, frame_hi)


def _form_penultimate_nodes(root: _BinaryNode, branch_factor: int) -> None:
    """First compression pass (bottom-up one level).

    Every highest node whose subtree contains at most ``M`` leaf nodes
    swallows all internal structure beneath it and directly parents its
    leaves.
    """
    def visit(node: _BinaryNode) -> List[_BinaryNode]:
        """The subtree's leaf nodes, left to right, collapsing when <= M."""
        if node.is_leaf:
            return [node]
        leaves = [leaf for child in node.children for leaf in visit(child)]
        if len(leaves) <= branch_factor:
            node.children = leaves
        return leaves

    visit(root)


def _collapse_top_down(root: _BinaryNode, branch_factor: int) -> None:
    """Second compression pass: grow branch factors toward ``M``.

    Processes internal nodes in breadth-first order; each repeatedly
    splices in the non-leaf child with the highest leaf number, one
    child at a time, while its branch factor stays within ``M``.
    """
    queue: List[_BinaryNode] = [root]
    while queue:
        node = queue.pop(0)
        if node.is_leaf:
            continue
        while len(node.children) < branch_factor:
            eligible = [
                child
                for child in node.children
                if not child.is_leaf
                and len(node.children) - 1 + len(child.children)
                <= branch_factor
            ]
            if not eligible:
                break
            best = max(eligible, key=lambda c: c.leaf_number)
            position = node.children.index(best)
            node.children[position : position + 1] = best.children
        queue.extend(child for child in node.children if not child.is_leaf)
