"""Property-based tests for the expected-waste cluster state."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import ClusterState
from repro.clustering.grid import GridCell


@st.composite
def cells(draw, max_subscribers=12):
    members = draw(
        st.integers(min_value=1, max_value=(1 << max_subscribers) - 1)
    )
    probability = draw(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    )
    index = draw(st.integers(min_value=0, max_value=10_000))
    return GridCell(
        index=(index,),
        lows=(0.0,),
        highs=(1.0,),
        members=members,
        probability=probability,
    )


def distinct_by_index(cell_list):
    seen = {}
    for cell in cell_list:
        seen[cell.index] = cell
    return list(seen.values())


class TestExpectedWasteProperties:
    @given(st.lists(cells(), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_and_bounded(self, cell_list):
        ew = ClusterState.from_cells(cell_list).expected_waste
        union = 0
        for cell in cell_list:
            union |= cell.members
        assert -1e-9 <= ew <= union.bit_count()

    @given(st.lists(cells(), min_size=2, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_order_independence(self, cell_list):
        forward = ClusterState.from_cells(cell_list).expected_waste
        reverse = ClusterState.from_cells(list(reversed(cell_list)))
        backward = reverse.expected_waste
        assert forward == pytest.approx(backward)

    @given(st.lists(cells(), min_size=2, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_bulk(self, cell_list):
        half = len(cell_list) // 2
        merged = ClusterState.from_cells(cell_list[:half] or cell_list[:1])
        other = ClusterState.from_cells(cell_list[half:] or cell_list[-1:])
        predicted = merged.waste_if_merged(other)
        merged.merge(other)
        assert merged.expected_waste == pytest.approx(predicted)

    @given(st.lists(cells(), min_size=2, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_add_remove_roundtrip(self, cell_list):
        unique = distinct_by_index(cell_list)
        if len(unique) < 2:
            return
        state = ClusterState.from_cells(unique[:-1])
        before = (
            state.members,
            state.probability,
            state.weighted_member_sum,
        )
        state.add(unique[-1])
        state.remove(unique[-1])
        assert state.members == before[0]
        assert state.probability == pytest.approx(before[1])
        assert state.weighted_member_sum == pytest.approx(before[2])

    @given(st.lists(cells(), min_size=1, max_size=10), cells())
    @settings(max_examples=100, deadline=None)
    def test_distance_consistent_with_waste(self, cell_list, extra):
        state = ClusterState.from_cells(cell_list)
        assert state.distance_to(extra) == pytest.approx(
            state.waste_if_added(extra) - state.expected_waste
        )

    @given(st.lists(cells(), min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_identical_membership_zero_waste(self, cell_list):
        # Force identical member sets: EW must be ~0 regardless of
        # probabilities.
        uniform = [
            GridCell(
                index=(i,),
                lows=(0.0,),
                highs=(1.0,),
                members=0b1011,
                probability=cell.probability,
            )
            for i, cell in enumerate(cell_list)
        ]
        waste = ClusterState.from_cells(uniform).expected_waste
        assert waste == pytest.approx(0.0, abs=1e-9)

    @given(st.lists(cells(), min_size=1, max_size=8), cells())
    @settings(max_examples=100, deadline=None)
    def test_adding_subset_member_cell_never_increases_count_term(
        self, cell_list, extra
    ):
        """Adding a cell whose members are a subset of l(G) cannot
        enlarge the union (|l(G)| stays), so EW can only fall or hold
        when the cell's own waste contribution is lower than average."""
        state = ClusterState.from_cells(cell_list)
        subset_cell = GridCell(
            index=(99999,),
            lows=(0.0,),
            highs=(1.0,),
            members=state.members,  # same set: n(g) = |l(G)|
            probability=extra.probability,
        )
        # A cell matching the whole group wastes nothing itself:
        # EW_new <= EW_old.
        assert state.waste_if_added(subset_cell) <= (
            state.expected_waste + 1e-9
        )
