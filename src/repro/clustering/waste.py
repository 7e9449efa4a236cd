"""The expected-waste (EW) objective and cluster state (Appendix A.2).

When a multicast group is formed for a set of grid cells ``G``, every
event landing in a cell ``g ∈ G`` is multicast to all of ``l(G)`` (the
union of the cells' subscriber sets), but only ``l(g)`` wanted it.  The
*expected waste* of the group is the expected number of unwanted copies
per event, conditioned on the event hitting the group::

    EW(G) = sum_{g in G} p(g) * (|l(G)| - |l(g)|) / p(G)
          = |l(G)| - ( sum_{g in G} p(g) * |l(g)| ) / p(G)

with ``p(G) = sum p(g)``.  The paper states the same quantity through a
recursion for adding one cell to a group; expanding the definition
above gives the exact recursion::

    EW_new = [ EW_old * p(G) + p(G) * |l(x) \\ l(G)|
                             + p(x) * |l(G) \\ l(x)| ] / (p(G) + p(x))

The paper's printed formula multiplies its first bracket as
``EW_old * p(G) * (1 + |l(x) \\ l(G)|)`` — under that reading the
recursion is order-dependent and does not telescope to any set
function, so we take it as a typesetting slip and implement the exact
closed form (also provided literally as
:func:`paper_recursive_expected_waste` for comparison).  The closed
form has three practical advantages the clustering code leans on: it
is order-independent, it supports O(1) merges, and removal needs only
a membership-mask rebuild.

Cell membership sets are bitmasks (Python ints), so all the set
algebra here is integer ``&``, ``|`` and ``bit_count``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

from .grid import GridCell

__all__ = [
    "ClusterState",
    "paper_recursive_expected_waste",
]


@dataclass
class ClusterState:
    """Incremental EW bookkeeping for one cluster of grid cells.

    Tracks the three sufficient statistics of the closed form:
    ``members`` (the bitmask of ``l(G)``), ``probability`` (``p(G)``)
    and ``weighted_member_sum`` (``sum p(g) |l(g)|``), plus the member
    cell list (needed to rebuild the mask after a removal).
    """

    cells: List[GridCell] = field(default_factory=list)
    members: int = 0
    probability: float = 0.0
    weighted_member_sum: float = 0.0

    @classmethod
    def from_cells(cls, cells: Iterable[GridCell]) -> ClusterState:
        state = cls()
        for cell in cells:
            state.add(cell)
        return state

    # -- the objective -----------------------------------------------------

    @property
    def expected_waste(self) -> float:
        """``EW(G)``; zero for empty clusters and zero-probability ones."""
        if self.probability <= 0.0:
            return 0.0
        return (
            self.members.bit_count()
            - self.weighted_member_sum / self.probability
        )

    def waste_if_added(self, cell: GridCell) -> float:
        """``EW(G ∪ {x})`` without mutating the cluster."""
        probability = self.probability + cell.probability
        if probability <= 0.0:
            return 0.0
        members = self.members | cell.members
        weighted = (
            self.weighted_member_sum
            + cell.probability * cell.member_count
        )
        return members.bit_count() - weighted / probability

    def distance_to(self, cell: GridCell) -> float:
        """The paper's distance: the EW increase from adding ``cell``."""
        return self.waste_if_added(cell) - self.expected_waste

    def waste_if_merged(self, other: ClusterState) -> float:
        """``EW(A ∪ B)`` without mutating either cluster."""
        probability = self.probability + other.probability
        if probability <= 0.0:
            return 0.0
        members = self.members | other.members
        weighted = self.weighted_member_sum + other.weighted_member_sum
        return members.bit_count() - weighted / probability

    # -- mutation ------------------------------------------------------------

    def add(self, cell: GridCell) -> None:
        """Fold one cell into the cluster."""
        self.cells.append(cell)
        self.members |= cell.members
        self.probability += cell.probability
        self.weighted_member_sum += cell.probability * cell.member_count

    def remove(self, cell: GridCell) -> None:
        """Take one member cell out (k-means Step 2).

        The scalar statistics subtract exactly; the membership union is
        not invertible, so the mask is rebuilt from the remaining cells.
        """
        try:
            self.cells.remove(cell)
        except ValueError:
            raise ValueError(
                f"cell {cell.index} is not a member of this cluster"
            ) from None
        self.probability -= cell.probability
        self.weighted_member_sum -= cell.probability * cell.member_count
        if self.probability < 0.0:  # guard against float drift
            self.probability = 0.0
        members = 0
        for member in self.cells:
            members |= member.members
        self.members = members

    def merge(self, other: ClusterState) -> None:
        """Absorb another cluster (pairwise grouping's combine step)."""
        self.cells.extend(other.cells)
        self.members |= other.members
        self.probability += other.probability
        self.weighted_member_sum += other.weighted_member_sum

    def __len__(self) -> int:
        return len(self.cells)


def paper_recursive_expected_waste(cells: Sequence[GridCell]) -> float:
    """The paper's printed recursion, applied in the given cell order.

    Provided for comparison and for the fidelity ablation benchmark;
    note the result depends on the fold order, unlike the closed form.
    """
    ew = 0.0
    members = 0
    probability = 0.0
    for cell in cells:
        if not members and probability == 0.0:
            members = cell.members
            probability = cell.probability
            ew = 0.0
            continue
        gained = (cell.members & ~members).bit_count()
        lost = (members & ~cell.members).bit_count()
        denominator = cell.probability + probability
        if denominator > 0.0:
            ew = (
                ew * probability * (1 + gained)
                + cell.probability * lost
            ) / denominator
        members |= cell.members
        probability += cell.probability
    return ew
