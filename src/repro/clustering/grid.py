"""The regular grid over the event space (Appendix A.2, Step 0).

All three subscription-clustering algorithms operate on cells of a
regular grid ``G = {g_x}`` imposed on the event space: each dimension
is cut into at most ``C`` adjacent, equal-length, half-open intervals
such that the grid covers every interest rectangle ``b_ij`` (unbounded
subscription sides are covered up to a finite frame derived from the
data, which is the only possible reading on a computer and matches the
paper's finite-domain assumption in Section 1).

For every cell the grid records:

- ``l(g)`` — the set of subscribers with a subscription intersecting
  the cell, stored as a bitmask over compact subscriber indices so
  unions and difference counts during clustering are single integer
  operations.  "Intersecting" is defined by :meth:`EventGrid.locate`
  — some point of the rectangle locates to ``g`` — so ``M_q ⊇
  {subscribers interested in an event of S_q}`` holds on cell
  boundaries too;
- ``p(g)`` — the publication probability mass of the cell under the
  event distribution ``p_p(.)``;
- the cell's *weight* ``p(g) * n(g)`` with ``n(g) = |l(g)|``, used to
  pick the ``T`` highest-weight cells the algorithms work on.

The authority for ``l(g)`` is a dense table of 64-bit mask words,
``(C,) * N + (words,)``: the build ORs each rectangle's bit over its box
of cells, and so does :meth:`EventGrid.add_subscription` (the word axis
grows when a new bit needs it), touching no per-cell object.  The
:class:`GridCell` objects clustering reads (``EventGrid.cells``) are
made when that is first read, and catch up with the table in one pass
when read after an add; a restored grid, never read, makes none.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..geometry.gridmath import locate_cell, overlapped_cell_box
from ..geometry.gridmath import overlapped_cell_range
from ..geometry.rectangle import Rectangle

__all__ = ["CellProbability", "UniformCellProbability", "GridCell", "EventGrid"]

DEFAULT_CELLS_PER_DIM = 10

#: ``_WORD_BIT[b]`` is bit ``b`` of a mask word.
_WORD_BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)


class CellProbability(Protocol):
    """Anything that can integrate the event density over a box."""

    def cell_probability(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> float:
        """Probability that a publication lands in ``(lows, highs]``."""
        ...


class UniformCellProbability:
    """Uniform event density over a bounded frame (a neutral default)."""

    def __init__(self, frame_lo: Sequence[float], frame_hi: Sequence[float]):
        self.frame_lo = np.asarray(frame_lo, dtype=np.float64)
        self.frame_hi = np.asarray(frame_hi, dtype=np.float64)
        volume = float(np.prod(self.frame_hi - self.frame_lo))
        if volume <= 0:
            raise ValueError("frame must have positive volume")
        self._volume = volume

    def cell_probability(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> float:
        lo = np.maximum(np.asarray(lows, dtype=np.float64), self.frame_lo)
        hi = np.minimum(np.asarray(highs, dtype=np.float64), self.frame_hi)
        extent = np.clip(hi - lo, 0.0, None)
        return float(np.prod(extent) / self._volume)

    def per_dimension_masses(
        self, edges: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Product-form fast path (see the same method on the mixtures)."""
        return [
            np.diff(np.clip(np.asarray(edge, dtype=np.float64), lo, hi))
            / (hi - lo)
            for edge, lo, hi in zip(edges, self.frame_lo, self.frame_hi)
        ]


@dataclass
class GridCell:
    """One grid cell with its clustering attributes."""

    index: Tuple[int, ...]
    lows: Tuple[float, ...]
    highs: Tuple[float, ...]
    members: int = 0  # bitmask over compact subscriber indices
    probability: float = 0.0

    @property
    def member_count(self) -> int:
        """``n(g)`` — number of interested subscribers."""
        return self.members.bit_count()

    def rectangle(self) -> Rectangle:
        """The cell as a half-open rectangle."""
        return Rectangle(self.lows, self.highs)


class EventGrid:
    """Regular grid with membership lists and publication probabilities.

    Parameters
    ----------
    rectangles:
        All subscription rectangles ``b_ij``.
    subscriber_ids:
        For each rectangle, the identity of its subscriber (typically
        the network node).  Distinct values are mapped onto compact
        bit positions; several rectangles may share a subscriber.
    density:
        Event density used for ``p(g)``; ``None`` means uniform over
        the fitted frame.
    cells_per_dim:
        The grid resolution ``C``.
    frame:
        Optional explicit bounding box ``(lows, highs)``; by default a
        frame is fitted over the finite coordinates of the data.
    """

    def __init__(
        self,
        rectangles: Sequence[Rectangle],
        subscriber_ids: Sequence[int],
        density: Optional[CellProbability] = None,
        cells_per_dim: int = DEFAULT_CELLS_PER_DIM,
        frame: Optional[tuple[Sequence[float], Sequence[float]]] = None,
    ):
        if len(rectangles) != len(subscriber_ids):
            raise ValueError("one subscriber id per rectangle required")
        if not rectangles:
            raise ValueError("need at least one rectangle")
        if cells_per_dim < 1:
            raise ValueError("cells_per_dim must be positive")
        self.cells_per_dim = cells_per_dim
        self.ndim = rectangles[0].ndim

        # Compact subscriber indexing (bit positions).
        unique_ids = sorted(set(int(s) for s in subscriber_ids))
        self.subscribers: List[int] = unique_ids
        self._bit_of: Dict[int, int] = {
            sid: bit for bit, sid in enumerate(unique_ids)
        }

        lows = np.array([r.lows for r in rectangles], dtype=np.float64)
        highs = np.array([r.highs for r in rectangles], dtype=np.float64)
        if frame is not None:
            self.frame_lo = np.asarray(frame[0], dtype=np.float64)
            self.frame_hi = np.asarray(frame[1], dtype=np.float64)
            if self.frame_lo.shape != (self.ndim,) or self.frame_hi.shape != (
                self.ndim,
            ):
                raise ValueError("frame bounds must match dimensionality")
            if np.any(self.frame_hi <= self.frame_lo):
                raise ValueError("frame must have positive extent")
        else:
            self.frame_lo, self.frame_hi = _fit_frame(lows, highs)
        self._width = (self.frame_hi - self.frame_lo) / cells_per_dim
        #: The frame as ``locate_cell`` takes it (lists, made once).
        self._locate_frame = (
            self.frame_lo.tolist(),
            self.frame_hi.tolist(),
            self._width.tolist(),
            cells_per_dim,
        )

        if density is None:
            density = UniformCellProbability(self.frame_lo, self.frame_hi)
        self.density = density

        self._cells: Dict[Tuple[int, ...], GridCell] = {}
        self._stale = False  # set by an add, cleared by reading ``cells``
        self._unbuilt: Optional[tuple] = None  # (positions, pricer)
        self._populate(lows, highs, subscriber_ids)

    # -- construction ------------------------------------------------------

    def _populate(
        self,
        table_lows: np.ndarray,
        table_highs: np.ndarray,
        subscriber_ids: Sequence[int],
    ) -> None:
        """Fill the mask table and every ``p(g)`` of a table in bulk.

        Each rectangle ORs its subscriber's bit over its box of cells
        and paints its row into a first-touch table, last row first.
        ``cells`` makes the touched cells on its first read, in the order
        a walk rectangle by rectangle would: by first row, then C order.
        Product-form densities price a cell as the product of its
        per-axis masses, left to right; any other is asked per cell.
        """
        shape = (self.cells_per_dim,) * self.ndim
        words = -(-len(self.subscribers) // 64)
        self._masks = masks = np.zeros(shape + (words,), dtype="<u8")
        untouched = len(table_lows)
        first_row = np.full(shape, untouched)
        rows, first, stop = self._boxes(table_lows, table_highs)
        for row in reversed(rows):
            bit = self._bit_of[int(subscriber_ids[row])]
            box = tuple(map(slice, first[row], stop[row]))
            word = masks[box + (bit >> 6,)]
            word |= _WORD_BIT[bit & 63]
            first_row[box] = row
        touched = np.flatnonzero(first_row != untouched)
        order = touched[np.argsort(first_row.ravel()[touched], kind="stable")]
        per_dim = getattr(self.density, "per_dimension_masses", None)
        self._unbuilt = (order, per_dim)

    def _sync_cells(self, order: np.ndarray, per_dim=None) -> None:
        """Read the members of the cells at flat positions ``order`` off
        the mask table, creating the missing ones in that order: priced
        per axis by ``per_dim`` when given, else cell by cell."""
        columns = np.unravel_index(order, self._masks.shape[:-1])
        # ``C + 1`` edges an axis; cell ``i`` spans ``(edge_i, edge_i + w]``.
        frame_lo, _, width, cells = self._locate_frame
        edges = [
            [f + i * w for i in range(cells + 1)]
            for f, w in zip(frame_lo, width)
        ]
        hi_edges = [[lo + w for lo in e[:-1]] for e, w in zip(edges, width)]
        probabilities = np.ones(len(order))
        if per_dim is not None:
            masses = per_dim([np.array(axis) for axis in edges])
            for mass, column in zip(masses, columns):
                probabilities *= np.asarray(mass, dtype=np.float64)[column]
        cols = [column.tolist() for column in columns]
        lows = zip(*(map(e.__getitem__, c) for e, c in zip(edges, cols)))
        highs = zip(*(map(e.__getitem__, c) for e, c in zip(hi_edges, cols)))
        view, step = memoryview(self._masks).cast("B"), self._masks.strides[-2]
        members = (
            int.from_bytes(view[c * step : c * step + step], "little")
            for c in order.tolist()
        )
        for index, lo, hi, mask, probability in zip(
            zip(*cols), lows, highs, members, probabilities.tolist()
        ):
            cell = self._cells.get(index)
            if cell is not None:
                cell.members = mask
                continue
            if per_dim is None:
                probability = self.density.cell_probability(lo, hi)
            self._cells[index] = GridCell(index, lo, hi, mask, probability)

    def _boxes(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> Tuple[List[int], List[List[int]], List[List[int]]]:
        """The rows of a table that meet the frame, and every row's
        per-axis ``[first, stop)`` cell ranges, as lists.

        A rectangle's cells are a product of per-axis index ranges, so
        no cell is tested: clipping, the two emptiness tests and the
        ranges are computed for the whole ``(n, ndim)`` table at once.
        """
        lo = np.maximum(
            np.where(np.isfinite(lows), lows, self.frame_lo), self.frame_lo
        )
        hi = np.minimum(
            np.where(np.isfinite(highs), highs, self.frame_hi), self.frame_hi
        )
        # An empty subscription matches nothing; one entirely outside
        # the frame meets no cell.
        meets = ~np.any((highs <= lows) | (hi <= lo), axis=1)
        first, last = overlapped_cell_range(
            lo, hi, self.frame_lo, self._width, self.cells_per_dim
        )
        rows = np.flatnonzero(meets).tolist()
        return rows, first.tolist(), (last + 1).tolist()

    # -- incremental maintenance ---------------------------------------------

    def add_subscription(
        self, rectangle: Rectangle, subscriber: int
    ) -> Tuple[slice, ...]:
        """Fold one new subscription into the membership lists.

        Registers the subscriber (a new bit position if unseen), ORs
        its bit over the covered cells of the mask table, and returns
        that box, one ``slice`` per axis (``()`` when it covers no
        cell), so the space partition can read the groups it touches
        off its own cell table without a tuple per cell.  A cell first
        covered here joins ``cells`` when that is next read, priced by
        the density cell by cell.

        This is the *incremental* half of churn maintenance; removing
        a subscription requires recomputing the affected masks from
        the surviving rectangles, i.e. a rebuild (see
        :meth:`repro.core.dynamic.DynamicPubSubBroker.unsubscribe`).
        """
        if rectangle.ndim != self.ndim:
            raise ValueError(
                f"rectangle has {rectangle.ndim} dimensions, grid has "
                f"{self.ndim}"
            )
        subscriber = int(subscriber)
        bit = self._bit_of.get(subscriber)
        if bit is None:
            bit = self._bit_of[subscriber] = len(self.subscribers)
            self.subscribers.append(subscriber)
            if bit >> 6 == self._masks.shape[-1]:
                wider = [(0, 0)] * self.ndim + [(0, 1)]
                self._masks = np.pad(self._masks, wider)
        box = overlapped_cell_box(
            rectangle.lows, rectangle.highs, *self._locate_frame
        )
        if not box:
            return ()
        cover = tuple(slice(axis.start, axis.stop) for axis in box)
        word = self._masks[cover + (bit >> 6,)]
        word |= _WORD_BIT[bit & 63]
        self._stale = True
        return cover

    @property
    def cells(self) -> Dict[Tuple[int, ...], GridCell]:
        """Every occupied cell by index, made on the first read; after
        an add, one pass over the mask table refreshes members and
        appends new cells in C order."""
        if self._unbuilt is not None:
            self._sync_cells(*self._unbuilt)
            self._unbuilt = None
        if self._stale:
            self._stale = False
            flat = self._masks.reshape(-1, self._masks.shape[-1])
            self._sync_cells(flat.any(axis=1).nonzero()[0])
        return self._cells

    # -- queries --------------------------------------------------------------

    def locate(self, point: Sequence[float]) -> Optional[Tuple[int, ...]]:
        """Grid coordinates of a point, or ``None`` outside the frame.

        Half-open convention: a point exactly on the frame's low edge
        is outside; one on the high edge is in the last cell.
        """
        if len(point) != self.ndim:
            raise ValueError("point dimensionality mismatch")
        return locate_cell(point, *self._locate_frame)

    def quantize(self, point: Sequence[float]) -> Tuple[int, ...]:
        """Unclamped grid coordinates of *any* point, even out of frame.

        Applies the same ceil quantization as :meth:`locate` but never
        clips: points beyond the frame get coordinates below 0 or at or
        above ``cells_per_dim``.  A pure function of the grid geometry —
        the sharding router uses it to hash out-of-frame (catchall)
        publications onto a stable pseudo-cell.
        """
        p = np.asarray(point, dtype=np.float64)
        if p.shape != (self.ndim,):
            raise ValueError("point dimensionality mismatch")
        coords = np.ceil((p - self.frame_lo) / self._width).astype(int) - 1
        return tuple(int(x) for x in coords)

    @property
    def cell_width(self) -> np.ndarray:
        """Per-dimension cell extent (frame span / ``cells_per_dim``)."""
        return self._width

    def top_cells(self, count: int) -> List[GridCell]:
        """The ``T`` highest-weight cells (``p(g)*n(g)``), best first.

        Ties break deterministically on the cell index.  Each weight is
        computed once: one ``int.bit_count`` a cell.
        """
        ranked = [
            (-(cell.probability * cell.members.bit_count()), cell.index, cell)
            for cell in self.cells.values() if cell.members
        ]
        ranked.sort()  # indices are unique: no two cells are compared
        return [cell for _, _, cell in ranked[:count]]

    def members_of(self, mask: int) -> List[int]:
        """Translate a membership bitmask back into subscriber ids."""
        return [s for bit, s in enumerate(self.subscribers) if mask >> bit & 1]

    @property
    def num_subscribers(self) -> int:
        return len(self.subscribers)


def _fit_frame(
    lows: np.ndarray, highs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bounding frame over the finite coordinates, slightly padded.

    The padding keeps rectangle edges off the frame boundary so the
    half-open cell arithmetic never loses the extremes.
    """
    finite_lo = np.where(np.isfinite(lows), lows, np.nan)
    finite_hi = np.where(np.isfinite(highs), highs, np.nan)
    stacked = np.concatenate([finite_lo, finite_hi], axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        lo = np.nanmin(stacked, axis=0)
        hi = np.nanmax(stacked, axis=0)
    lo = np.where(np.isfinite(lo), lo, 0.0)
    hi = np.where(np.isfinite(hi), hi, 1.0)
    span = np.maximum(hi - lo, 1e-9)
    return lo - 0.01 * span, hi + 0.01 * span
