"""Hilbert-packed R-tree: the bottom-up packed baseline index.

Kamel & Faloutsos (VLDB 1994, reference [8] of the paper) bulk-load an
R-tree by sorting data rectangles along a Hilbert curve through their
centers, slicing the sorted order into capacity-``M`` leaves, and then
recursively packing the leaves' MBR records the same way.  Unlike the
S-tree's top-down binarization this is a *bottom-up* packing (the paper
draws this exact contrast in Section 3.1), and the result is perfectly
height balanced.

Queries are identical to the S-tree's — descend from the root, pruning
every child whose MBR misses the query point — and literally so: the
packing below only decides how many children and entries each node
gets, level by level, and emits the shared breadth-first array layout
of :mod:`repro.spatial.packed`, whose one kernel, the flat reach,
answers for both trees.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..geometry.arrays import bulk_centers
from .hilbert import hilbert_indices, quantize_to_lattice
from .packed import PackedTree, PackedTreeMatcher

__all__ = ["HilbertRTree"]

#: Default curve order (bits per dimension) for center quantization.
DEFAULT_CURVE_BITS = 10


class HilbertRTree(PackedTreeMatcher):
    """Height-balanced packed R-tree over subscription rectangles."""

    def __init__(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        ids: np.ndarray,
        branch_factor: int = 40,
        curve_bits: int = DEFAULT_CURVE_BITS,
    ):
        super().__init__(lows, highs, ids)
        if branch_factor < 2:
            raise ValueError("branch_factor must be at least 2")
        if curve_bits < 1:
            raise ValueError("curve_bits must be positive")
        self.branch_factor = branch_factor
        self.curve_bits = curve_bits
        self._packed = self._pack()

    def _pack(self) -> PackedTree:
        """Bottom-up bulk load along the Hilbert order of the centers."""
        centers = bulk_centers(self._lows, self._highs)
        lattice = quantize_to_lattice(centers, self.curve_bits)
        order = np.argsort(hilbert_indices(lattice, self.curve_bits))
        m = self.branch_factor

        # Slice the Hilbert order into leaves of capacity M, then pack M
        # consecutive nodes under one parent until a single root is left;
        # root level first is breadth-first order.
        leaves = _slice_sizes(self.size, m)
        parents: List[np.ndarray] = []
        level = leaves
        while len(level) > 1:
            level = _slice_sizes(len(level), m)
            parents.insert(0, level)
        child_count = np.concatenate(parents + [np.zeros_like(leaves)])
        entry_count = np.zeros_like(child_count)
        entry_count[-len(leaves) :] = leaves
        return PackedTree.pack(
            self._lows, self._highs, self._ids, order, child_count, entry_count
        )


def _slice_sizes(count: int, capacity: int) -> np.ndarray:
    """Sizes of the slices when ``count`` items are cut every ``capacity``."""
    starts = np.arange(0, count, capacity)
    return np.minimum(capacity, count - starts)
