"""Common interface for point-query matchers.

Every index in :mod:`repro.spatial` answers the *matching problem*
(paper Section 3): given a published event — a point in ``R^N`` — return
the identifiers of all subscription rectangles containing it.  Indexes
are built once over a static subscription set (matching the paper's
model, where subscription churn is handled by periodic re-preprocessing)
and then queried many times.

All matchers share a small amount of instrumentation
(:class:`QueryStats`) so benchmarks can report node accesses — the
paper's figure of merit for index quality — as well as wall-clock time.
"""

from __future__ import annotations

import abc
import warnings
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np


__all__ = ["QueryStats", "PointMatcher", "finite_frame", "validate_build_inputs"]


@dataclass
class QueryStats:
    """Cumulative work counters for an index.

    Attributes
    ----------
    queries:
        Number of point queries answered.
    nodes_visited:
        Internal tree nodes whose child MBRs were examined (for the
        flat matchers this stays 0).
    leaves_visited:
        Leaf nodes (or grid cells) whose entries were examined.
    entries_tested:
        Individual rectangle containment tests performed.
    """

    queries: int = 0
    nodes_visited: int = 0
    leaves_visited: int = 0
    entries_tested: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.queries = 0
        self.nodes_visited = 0
        self.leaves_visited = 0
        self.entries_tested = 0

    @property
    def nodes_per_query(self) -> float:
        """Average internal+leaf node accesses per query."""
        if self.queries == 0:
            return 0.0
        return (self.nodes_visited + self.leaves_visited) / self.queries

    @property
    def entries_per_query(self) -> float:
        """Average containment tests per query."""
        if self.queries == 0:
            return 0.0
        return self.entries_tested / self.queries


def finite_frame(*arrays: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-dimension (min, max) of the finite values; (0, 1) if none."""
    stacked = np.concatenate(arrays, axis=0)
    finite = np.where(np.isfinite(stacked), stacked, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
        lo = np.nanmin(finite, axis=0)
        hi = np.nanmax(finite, axis=0)
    missing = np.isnan(lo)
    return np.where(missing, 0.0, lo), np.where(missing, 1.0, hi)


def validate_build_inputs(
    lows: np.ndarray,
    highs: np.ndarray,
    ids: Optional[Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize and sanity-check raw build inputs.

    Returns contiguous float64 ``(k, N)`` bounds arrays and an int64
    id array (defaulting to ``0..k-1``).
    """
    lows = np.ascontiguousarray(lows, dtype=np.float64)
    highs = np.ascontiguousarray(highs, dtype=np.float64)
    if lows.ndim != 2 or highs.shape != lows.shape:
        raise ValueError(
            f"bounds must be matching (k, N) arrays, got {lows.shape} "
            f"and {highs.shape}"
        )
    if lows.shape[0] == 0:
        raise ValueError("cannot build an index over zero rectangles")
    if np.any(np.isnan(lows)) or np.any(np.isnan(highs)):
        raise ValueError("rectangle bounds must not contain NaN")
    if ids is None:
        id_array = np.arange(lows.shape[0], dtype=np.int64)
    else:
        id_array = np.asarray(ids, dtype=np.int64)
        if id_array.shape != (lows.shape[0],):
            raise ValueError(
                f"ids must have shape ({lows.shape[0]},), got {id_array.shape}"
            )
    return lows, highs, id_array


class PointMatcher(abc.ABC):
    """Abstract base for all point-query indexes.

    Concrete subclasses implement :meth:`_match_ids`; the public
    :meth:`match` / :meth:`count` wrappers keep the bookkeeping uniform.
    """

    def __init__(self, lows: np.ndarray, highs: np.ndarray, ids: np.ndarray):
        self._lows = lows
        self._highs = highs
        self._ids = ids
        self.stats = QueryStats()

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        lows: np.ndarray,
        highs: np.ndarray,
        ids: Optional[Sequence[int]] = None,
        **kwargs: Any,
    ) -> PointMatcher:
        """Build an index over ``(k, N)`` bounds arrays.

        ``ids[i]`` is the identifier reported when rectangle ``i``
        matches; it defaults to the row index.
        """
        lows, highs, id_array = validate_build_inputs(lows, highs, ids)
        return cls(lows, highs, id_array, **kwargs)

    # -- queries -----------------------------------------------------------------

    def match(self, point: Sequence[float]) -> np.ndarray:
        """Identifiers of all rectangles containing ``point``: one
        sorted, C-contiguous int64 array, each id once."""
        at = np.asarray(point, dtype=np.float64)
        if at.shape != (self.ndim,):
            raise ValueError(
                f"point must have {self.ndim} coordinates, got {at.shape}"
            )
        self.stats.queries += 1
        return self._match_ids(at)

    def count(self, point: Sequence[float]) -> int:
        """Number of rectangles containing ``point``."""
        return len(self.match(point))

    def match_many(self, points: np.ndarray) -> List[np.ndarray]:
        """Match a batch of points; one :meth:`match` answer per row."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.ndim:
            raise ValueError(
                f"points must be (m, {self.ndim}), got {points.shape}"
            )
        return self._match_rows(points)

    def _match_rows(self, points: np.ndarray) -> List[np.ndarray]:
        """``match_many`` on validated points; override for a bulk path."""
        return [self.match(point) for point in points]

    @abc.abstractmethod
    def _match_ids(self, point: np.ndarray) -> np.ndarray:
        """Return :meth:`match`'s answer; update ``self.stats``."""

    # -- introspection ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of indexed rectangles."""
        return int(self._lows.shape[0])

    @property
    def ndim(self) -> int:
        """Dimensionality of the indexed space."""
        return int(self._lows.shape[1])

    def __len__(self) -> int:
        return self.size
