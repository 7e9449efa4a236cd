"""Unit tests for the expected-waste objective."""

import pytest

from repro.clustering import (
    ClusterState,
    paper_recursive_expected_waste,
)
from repro.clustering.grid import GridCell


def cell(index, members, probability):
    """Shorthand grid cell with a membership bitmask."""
    return GridCell(
        index=(index,),
        lows=(0.0,),
        highs=(1.0,),
        members=members,
        probability=probability,
    )


class TestClusterState:
    def test_single_cell_has_zero_waste(self):
        state = ClusterState.from_cells([cell(0, 0b111, 0.5)])
        assert state.expected_waste == pytest.approx(0.0)

    def test_identical_membership_has_zero_waste(self):
        # Cells with the same subscriber set never waste a message.
        cells = [cell(i, 0b1011, 0.2) for i in range(4)]
        waste = ClusterState.from_cells(cells).expected_waste
        assert waste == pytest.approx(0.0)

    def test_disjoint_membership_maximal_waste(self):
        # Two equal-probability cells with disjoint singleton members:
        # l(G) = 2; an event in either cell wastes exactly 1 message.
        cells = [cell(0, 0b01, 0.5), cell(1, 0b10, 0.5)]
        waste = ClusterState.from_cells(cells).expected_waste
        assert waste == pytest.approx(1.0)

    def test_closed_form_formula(self):
        # EW = |l(G)| - sum(p*n)/p(G), hand-computed.
        cells = [cell(0, 0b011, 0.3), cell(1, 0b110, 0.1)]
        # l(G) = {0,1,2} -> 3; sum p*n = .3*2 + .1*2 = 0.8; p(G) = 0.4.
        waste = ClusterState.from_cells(cells).expected_waste
        assert waste == pytest.approx(3 - 2.0)

    def test_order_independence(self):
        cells = [
            cell(0, 0b0011, 0.2),
            cell(1, 0b0110, 0.5),
            cell(2, 0b1100, 0.3),
        ]
        forward = ClusterState.from_cells(cells).expected_waste
        reverse = ClusterState.from_cells(list(reversed(cells)))
        backward = reverse.expected_waste
        assert forward == pytest.approx(backward)

    def test_zero_probability_cluster(self):
        state = ClusterState.from_cells([cell(0, 0b1, 0.0)])
        assert state.expected_waste == 0.0

    def test_waste_if_added_matches_add(self):
        state = ClusterState.from_cells([cell(0, 0b01, 0.4)])
        new_cell = cell(1, 0b10, 0.6)
        predicted = state.waste_if_added(new_cell)
        state.add(new_cell)
        assert state.expected_waste == pytest.approx(predicted)

    def test_distance_is_waste_increase(self):
        state = ClusterState.from_cells([cell(0, 0b01, 0.4)])
        new_cell = cell(1, 0b10, 0.6)
        assert state.distance_to(new_cell) == pytest.approx(
            state.waste_if_added(new_cell) - state.expected_waste
        )

    def test_adding_similar_cell_cheaper_than_disjoint(self):
        state = ClusterState.from_cells([cell(0, 0b0011, 0.5)])
        similar = cell(1, 0b0011, 0.2)
        disjoint = cell(2, 0b1100, 0.2)
        assert state.distance_to(similar) < state.distance_to(disjoint)

    def test_waste_if_merged_matches_merge(self):
        a = ClusterState.from_cells([cell(0, 0b01, 0.3), cell(1, 0b11, 0.2)])
        b = ClusterState.from_cells([cell(2, 0b10, 0.5)])
        predicted = a.waste_if_merged(b)
        a.merge(b)
        assert a.expected_waste == pytest.approx(predicted)
        assert len(a) == 3

    def test_remove_restores_previous_state(self):
        first = cell(0, 0b01, 0.4)
        second = cell(1, 0b10, 0.6)
        state = ClusterState.from_cells([first])
        before = (
            state.members,
            state.probability,
            state.expected_waste,
        )
        state.add(second)
        state.remove(second)
        assert (
            state.members,
            state.probability,
            state.expected_waste,
        ) == pytest.approx(before)

    def test_remove_rebuilds_membership_mask(self):
        a = cell(0, 0b01, 0.5)
        b = cell(1, 0b11, 0.5)
        state = ClusterState.from_cells([a, b])
        assert state.members == 0b11
        state.remove(b)
        assert state.members == 0b01

    def test_remove_missing_cell_raises(self):
        state = ClusterState.from_cells([cell(0, 0b1, 0.5)])
        with pytest.raises(ValueError):
            state.remove(cell(9, 0b1, 0.5))

    def test_merge_is_equivalent_to_union(self):
        cells_a = [cell(0, 0b001, 0.2), cell(1, 0b011, 0.3)]
        cells_b = [cell(2, 0b110, 0.1), cell(3, 0b100, 0.4)]
        merged = ClusterState.from_cells(cells_a)
        merged.merge(ClusterState.from_cells(cells_b))
        direct = ClusterState.from_cells(cells_a + cells_b)
        assert merged.expected_waste == pytest.approx(direct.expected_waste)


class TestPaperRecursion:
    def test_single_cell_is_zero(self):
        assert paper_recursive_expected_waste(
            [cell(0, 0b11, 0.5)]
        ) == pytest.approx(0.0)

    def test_two_cell_hand_computation(self):
        # Printed formula, second cell: EW_old = 0, so only the
        # p(x)*|l(G)\l(x)| term survives:
        # (0*0.4*(1+1) + 0.6*1) / (0.4+0.6) = 0.6.  (The closed form
        # gives 1.0 here — exactly the discrepancy the waste module's
        # docstring documents.)
        cells = [cell(0, 0b01, 0.4), cell(1, 0b10, 0.6)]
        assert paper_recursive_expected_waste(cells) == pytest.approx(0.6)
        waste = ClusterState.from_cells(cells).expected_waste
        assert waste == pytest.approx(1.0)

    def test_nonnegative(self):
        cells = [
            cell(0, 0b0011, 0.2),
            cell(1, 0b0110, 0.5),
            cell(2, 0b1100, 0.3),
        ]
        assert paper_recursive_expected_waste(cells) >= 0.0

    def test_order_dependence_documented(self):
        # The printed recursion is order-dependent (why we use the
        # closed form); verify it actually is on an asymmetric input.
        cells = [
            cell(0, 0b0001, 0.1),
            cell(1, 0b1111, 0.7),
            cell(2, 0b0110, 0.2),
        ]
        forward = paper_recursive_expected_waste(cells)
        backward = paper_recursive_expected_waste(list(reversed(cells)))
        assert forward != pytest.approx(backward)
