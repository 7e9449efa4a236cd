"""Static centered interval trees for 1-D stabbing queries.

The building block of the counting matcher: given ``k`` half-open
intervals ``(lo, hi]`` on one attribute, report every interval
containing a query value ``x`` in ``O(log k + answer)``.

The structure is the classic centered interval tree, built once over
static data: each node holds a center value, the intervals straddling
it (stored twice, sorted by low and by high endpoint), and subtrees
for the intervals entirely left/right of the center.  Unbounded
endpoints (rays and wildcards) are fully supported — ``-inf``/``inf``
sort like any other float.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = ["StaticIntervalTree"]


def _interior_point(lo: float, hi: float) -> float:
    """A value strictly inside the non-empty interval ``(lo, hi)``."""
    lo_finite = np.isfinite(lo)
    hi_finite = np.isfinite(hi)
    if lo_finite and hi_finite:
        return (lo + hi) / 2.0
    if hi_finite:
        return hi - 1.0
    if lo_finite:
        return lo + 1.0
    return 0.0


class _Node:
    __slots__ = (
        "center",
        "by_low_ids",
        "by_low",
        "by_high_ids",
        "by_high",
        "left",
        "right",
    )
    center: float
    by_low_ids: np.ndarray
    by_low: np.ndarray
    by_high_ids: np.ndarray
    by_high: np.ndarray
    left: Optional[_Node]
    right: Optional[_Node]


class StaticIntervalTree:
    """Stabbing queries over a fixed set of half-open intervals."""

    def __init__(
        self,
        lows: Sequence[float],
        highs: Sequence[float],
        ids: Optional[Sequence[int]] = None,
    ):
        lo = np.asarray(lows, dtype=np.float64)
        hi = np.asarray(highs, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lows and highs must be equal-length 1-D")
        if ids is None:
            id_array = np.arange(len(lo), dtype=np.int64)
        else:
            id_array = np.asarray(ids, dtype=np.int64)
            if id_array.shape != lo.shape:
                raise ValueError("one id per interval required")
        # Empty intervals can never be stabbed; drop them up front.
        alive = hi > lo
        self.size = int(alive.sum())
        self._root = self._build(lo[alive], hi[alive], id_array[alive])

    def _build(
        self, lows: np.ndarray, highs: np.ndarray, ids: np.ndarray
    ) -> Optional[_Node]:
        if len(lows) == 0:
            return None
        node = _Node()
        # Median of the finite endpoints keeps the tree balanced; with
        # no finite endpoint at all, any center works (every interval
        # straddles everything).
        endpoints = np.concatenate([lows, highs])
        finite = endpoints[np.isfinite(endpoints)]
        node.center = float(np.median(finite)) if finite.size else 0.0

        # An interval is "left of center" when it cannot contain any
        # x > center, i.e. hi <= center; "right" when lo >= center
        # (cannot contain any x <= center).
        left_mask = highs <= node.center
        right_mask = lows >= node.center
        straddle = ~left_mask & ~right_mask
        if not straddle.any():
            # Degenerate endpoint multiset (e.g. every interval is
            # ``(-inf, 0]``): the median sits on a shared endpoint and
            # one side would swallow everything, looping forever.
            # Re-center strictly inside the first interval — it then
            # straddles, guaranteeing progress.
            node.center = _interior_point(float(lows[0]), float(highs[0]))
            left_mask = highs <= node.center
            right_mask = lows >= node.center
            straddle = ~left_mask & ~right_mask
            if not straddle.any():
                # One-ulp interval: the midpoint rounded onto an
                # endpoint.  The straddle query logic is exact for any
                # interval with lo <= center <= hi, so force the first
                # interval in — that alone guarantees progress.
                straddle[0] = True
                left_mask[0] = False
                right_mask[0] = False

        order_low = np.argsort(lows[straddle], kind="stable")
        node.by_low = lows[straddle][order_low]
        node.by_low_ids = ids[straddle][order_low]
        order_high = np.argsort(highs[straddle], kind="stable")
        node.by_high = highs[straddle][order_high]
        node.by_high_ids = ids[straddle][order_high]

        node.left = self._build(
            lows[left_mask], highs[left_mask], ids[left_mask]
        )
        node.right = self._build(
            lows[right_mask], highs[right_mask], ids[right_mask]
        )
        return node

    def stab(self, x: float) -> List[int]:
        """Ids of all intervals with ``lo < x <= hi`` (unsorted)."""
        result: List[int] = []
        node = self._root
        while node is not None:
            if x <= node.center:
                # Straddling intervals contain x iff lo < x; they are
                # sorted by lo, so take the strict-prefix.
                cut = int(np.searchsorted(node.by_low, x, side="left"))
                result.extend(int(i) for i in node.by_low_ids[:cut])
                node = node.left
            else:
                # x > center: containment needs hi >= x; sorted by hi,
                # take the suffix with hi >= x.
                cut = int(np.searchsorted(node.by_high, x, side="left"))
                result.extend(int(i) for i in node.by_high_ids[cut:])
                node = node.right
        return result
