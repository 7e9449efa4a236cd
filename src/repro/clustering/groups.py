"""From cell clusters to the space partition and multicast groups.

The clustering output becomes (paper Section 4):

- a partition of the event space into ``n`` subsets ``S_1 .. S_n``
  (each the union of a cluster's grid cells) plus the catchall
  ``S_0 = Omega \\ union(S_q)``;
- one multicast group per subset, ``M_q = { subscribers with a
  subscription overlapping S_q }`` — by construction this is the union
  of the member lists ``l(g)`` of the cluster's cells.

:class:`SpacePartition` resolves a publication point to its subset in
O(N) (grid cell lookup plus one read of a dense cell→subset table over
the grid) and exposes each group's member nodes, which is everything
the distribution-method scheme needs.  A new subscription finds the
groups it widens with one gather of that table over its box of cells.
Its durable form and that form's canonical text are made once and kept
until a subscription grows a group, so checkpoints do not re-encode it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import ClusteringResult
from .grid import EventGrid
from .waste import ClusterState

__all__ = ["MulticastGroup", "SpacePartition"]


@dataclass(frozen=True)
class MulticastGroup:
    """One precomputed multicast group ``M_q``.

    ``members`` are subscriber identities (network node ids).  ``q`` is
    1-based, matching the paper (0 is reserved for the catchall).
    """

    q: int
    members: Tuple[int, ...]
    expected_waste: float

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def member_set(self) -> frozenset[int]:
        """``members`` as the one set every costing call shares.

        Built once: the cost model keys its group trees on this very
        object, so a lookup re-hashes no member and copies nothing.
        """
        return frozenset(self.members)


class SpacePartition:
    """The ``(n + 1)``-way partition of the event space plus its groups."""

    _durable: Optional[Tuple[Dict, str]] = None  # see durable_state

    def __init__(self, grid: EventGrid, result: ClusteringResult):
        result.validate_disjoint()
        self.grid = grid
        self.algorithm = result.algorithm
        #: The subset of every grid cell, ``(C,) * N``: 0 is ``S_0``.
        self._group_table = table = np.zeros(
            (grid.cells_per_dim,) * grid.ndim, np.int64
        )
        groups: List[MulticastGroup] = []
        for position, cells in enumerate(result.clusters):
            q = position + 1
            state = ClusterState.from_cells(cells)
            groups.append(
                MulticastGroup(
                    q=q,
                    members=tuple(grid.members_of(state.members)),
                    expected_waste=state.expected_waste,
                )
            )
            for cell in cells:
                table[cell.index] = q
        self.groups = groups

    @property
    def num_groups(self) -> int:
        """``n`` — the number of real (non-catchall) groups."""
        return len(self.groups)

    def locate(self, point: Sequence[float]) -> int:
        """Subset index of a publication: ``1..n``, or 0 for ``S_0``.

        Points outside the grid frame, in unclustered cells, or in
        cells with no subscribers all fall into the catchall.
        """
        cell = self.grid.locate(point)
        if cell is None:
            return 0
        return self._group_table.item(cell)

    def group_of_cell(self, index: Tuple[int, ...]) -> int:
        """Subset owning grid cell ``index``: ``1..n``, or 0 (catchall).

        The cell-granular view of :meth:`locate`, for callers (the
        sharding router) that enumerate cells instead of points.
        """
        table = self._group_table  # every axis is ``cells_per_dim`` long
        if len(index) == table.ndim and (
            0 <= min(index) <= max(index) < len(table)
        ):
            return table.item(tuple(index))
        return 0

    def group(self, q: int) -> MulticastGroup:
        """The group for subset ``S_q`` (``q`` must be 1-based)."""
        if not 1 <= q <= len(self.groups):
            raise IndexError(f"group index {q} out of range 1..{len(self.groups)}")
        return self.groups[q - 1]

    def group_sizes(self) -> List[int]:
        """Member counts of all groups (diagnostics)."""
        return [g.size for g in self.groups]

    def add_subscription(self, rectangle, subscriber: int) -> List[int]:
        """Incrementally admit one new subscription (churn support).

        Updates the grid's membership lists and enlarges every
        multicast group whose subset the rectangle overlaps, preserving
        the paper's invariant ``M_q ⊇ {interested subscribers of any
        event in S_q}``.  Returns the (1-based) ids of the groups that
        gained the subscriber.

        This is the cheap half of churn; removals shrink groups and
        therefore need a re-preprocess (see
        :class:`repro.core.dynamic.DynamicPubSubBroker`).
        """
        box = self.grid.add_subscription(rectangle, subscriber)
        if not box:
            return []
        # Every touched group once, in the order its first cell came
        # (the box read in C order).
        touched = dict.fromkeys(self._group_table[box].ravel().tolist())
        touched.pop(0, None)
        grown: List[int] = []
        for q in touched:
            group = self.groups[q - 1]
            if subscriber in group.member_set:
                continue
            self.groups[q - 1] = MulticastGroup(
                q=q,
                members=tuple(sorted(group.members + (subscriber,))),
                expected_waste=group.expected_waste,
            )
            grown.append(q)
        if grown:
            self._durable = None
        return grown

    # -- persistence (checkpoint/recovery support) --------------------------

    def to_state(self) -> Dict:
        """JSON-ready encoding of the assignment (not the grid).

        Captures everything a restarted broker needs to route exactly
        as before: the grid *geometry* (frame + resolution, so
        ``locate`` lands points in the same cells), the cell→group
        mapping and each group's member list.  The grid's membership
        bitmasks and densities are derived state — rebuilt from the
        subscription table on :meth:`restore`, never stored.
        """
        return {
            "algorithm": self.algorithm,
            "frame_lo": [float(x) for x in self.grid.frame_lo],
            "frame_hi": [float(x) for x in self.grid.frame_hi],
            "cells_per_dim": int(self.grid.cells_per_dim),
            "groups": [
                {
                    "q": group.q,
                    "members": [int(m) for m in group.members],
                    "expected_waste": float(group.expected_waste),
                }
                for group in self.groups
            ],
            "cell_to_group": [
                [list(index), q] for index, q in self._assigned()
            ],
        }

    def durable_state(self) -> Tuple[Dict, str]:
        """:meth:`to_state` and its canonical JSON, shared by every call
        until a group grows (values: not to be mutated)."""
        if self._durable is None:
            from ..io import canonical_json  # repro.io imports repro.core

            state = self.to_state()
            self._durable = (state, canonical_json(state))
        return self._durable

    @classmethod
    def restore(cls, grid: EventGrid, state: Dict) -> SpacePartition:
        """Rebuild a partition from :meth:`to_state` output.

        ``grid`` must be built over the recovered subscription set with
        the frame/resolution recorded in ``state`` — the stored
        assignment is authoritative, so no clustering runs.
        """
        partition = cls.__new__(cls)
        partition.grid = grid
        partition.algorithm = state["algorithm"]
        partition._group_table = table = np.zeros(
            (grid.cells_per_dim,) * grid.ndim, np.int64
        )
        assigned = state["cell_to_group"]
        if assigned:
            indices, qs = zip(*assigned)
            table[tuple(np.array(indices, np.int64).T)] = qs
        partition.groups = [
            MulticastGroup(
                q=int(entry["q"]),
                members=tuple(int(m) for m in entry["members"]),
                expected_waste=float(entry["expected_waste"]),
            )
            for entry in sorted(state["groups"], key=lambda e: e["q"])
        ]
        return partition

    def covered_probability(self) -> float:
        """Publication mass covered by ``S_1 .. S_n`` (vs the catchall).

        Uses the grid's density; higher coverage means fewer events
        fall back to pure unicast.  The sum is correctly rounded, so it
        does not depend on the order the cells are read in.
        """
        cells = self.grid.cells
        return math.fsum(
            cells[index].probability for index, _ in self._assigned()
        )

    def _assigned(self) -> List[Tuple[Tuple[int, ...], int]]:
        """Every clustered cell with its subset, cells in C order."""
        table = self._group_table
        flat = np.flatnonzero(table)
        coords = np.unravel_index(flat, table.shape)
        cells = zip(*(axis.tolist() for axis in coords))
        return list(zip(cells, table.ravel().take(flat).tolist()))
