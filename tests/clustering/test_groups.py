"""Unit tests for the space partition and multicast groups."""

import pickle

import numpy as np
import pytest

from repro.clustering import (
    ClusteringResult,
    EventGrid,
    ForgyKMeansClustering,
    SpacePartition,
)
from repro.geometry import Interval, Rectangle


def rect2(x0, x1, y0, y1):
    return Rectangle.from_intervals([Interval(x0, x1), Interval(y0, y1)])


@pytest.fixture()
def partition():
    """Hand-built 2-group partition over a 4x4 grid."""
    rectangles = [
        rect2(0.0, 2.0, 0.0, 2.0),  # subscriber 10
        rect2(2.0, 4.0, 2.0, 4.0),  # subscriber 20
        rect2(0.0, 1.0, 0.0, 1.0),  # subscriber 30
    ]
    grid = EventGrid(
        rectangles,
        [10, 20, 30],
        cells_per_dim=4,
        frame=((0.0, 0.0), (4.0, 4.0)),
    )
    lower = [grid.cells[(x, y)] for x in (0, 1) for y in (0, 1)]
    upper = [grid.cells[(x, y)] for x in (2, 3) for y in (2, 3)]
    result = ClusteringResult(algorithm="manual", clusters=[lower, upper])
    return SpacePartition(grid, result)


class TestLocate:
    def test_points_in_groups(self, partition):
        assert partition.locate((0.5, 0.5)) == 1
        assert partition.locate((3.5, 3.5)) == 2

    def test_unclustered_cell_is_catchall(self, partition):
        # (3.5, 0.5) lies in cell (3, 0), which no cluster claims.
        assert partition.locate((3.5, 0.5)) == 0

    def test_outside_frame_is_catchall(self, partition):
        assert partition.locate((99.0, 99.0)) == 0


class TestGroups:
    def test_membership_is_union_of_cells(self, partition):
        group1 = partition.group(1)
        assert group1.members == (10, 30)
        group2 = partition.group(2)
        assert group2.members == (20,)

    def test_group_indexing(self, partition):
        assert partition.num_groups == 2
        with pytest.raises(IndexError):
            partition.group(0)
        with pytest.raises(IndexError):
            partition.group(3)

    def test_group_sizes(self, partition):
        assert partition.group_sizes() == [2, 1]

    def test_expected_waste_nonnegative(self, partition):
        for group in partition.groups:
            assert group.expected_waste >= 0.0

    def test_covered_probability(self, partition):
        # 8 of 16 uniform cells are clustered, but only occupied cells
        # exist in the grid; the two quadrants cover 8/16 of the frame.
        assert partition.covered_probability() == pytest.approx(0.5)

    def test_overlapping_clusters_rejected(self, partition):
        grid = partition.grid
        cell = grid.cells[(0, 0)]
        bad = ClusteringResult(
            algorithm="bad", clusters=[[cell], [cell]]
        )
        with pytest.raises(AssertionError):
            SpacePartition(grid, bad)


class TestMemberSet:
    """The cached ``member_set`` is derived state: it changes nothing a
    group or a partition persists or compares by."""

    def test_one_set_per_group(self, partition):
        group = partition.group(1)
        assert group.member_set == frozenset(group.members)
        assert group.member_set is group.member_set
        assert isinstance(group.member_set, frozenset)

    def test_equality_and_state_ignore_the_cache(self, partition):
        cold = partition.to_state()
        untouched = [pickle.loads(pickle.dumps(g)) for g in partition.groups]
        for group in partition.groups:
            group.member_set
        assert partition.to_state() == cold
        assert partition.groups == untouched
        assert "member_set" not in repr(partition.group(1))

    def test_pickle_round_trip(self, partition):
        for group in partition.groups:
            group.member_set
        clone = pickle.loads(pickle.dumps(partition))
        assert clone.groups == partition.groups
        assert clone.to_state() == partition.to_state()
        for ours, theirs in zip(partition.groups, clone.groups):
            assert theirs.member_set == ours.member_set
            assert theirs.member_set is theirs.member_set

    def test_restore_round_trip(self, partition):
        for group in partition.groups:
            group.member_set
        state = partition.to_state()
        restored = SpacePartition.restore(partition.grid, state)
        assert restored.groups == partition.groups
        assert restored.to_state() == state
        assert [g.member_set for g in restored.groups] == [
            g.member_set for g in partition.groups
        ]

    def test_widening_makes_a_new_group_with_its_own_set(self, partition):
        old = partition.group(1)
        old.member_set
        grown = partition.add_subscription(rect2(0.0, 1.0, 0.0, 1.0), 40)
        assert grown == [1]
        new = partition.group(1)
        assert new.member_set == old.member_set | {40}
        assert old.member_set == frozenset(old.members)  # untouched


class TestEndToEndInvariant:
    def test_interested_always_in_group(
        self, small_table, nine_mode_density, small_events
    ):
        """The paper's key invariant: every subscriber interested in an
        event in S_q is a member of M_q."""
        grid = EventGrid(
            small_table.rectangles(),
            [s.subscriber for s in small_table],
            density=nine_mode_density,
            cells_per_dim=6,
        )
        result = ForgyKMeansClustering().cluster(grid, 8, max_cells=60)
        partition = SpacePartition(grid, result)
        points, _ = small_events
        for point in points:
            q = partition.locate(point)
            if q == 0:
                continue
            members = set(partition.group(q).members)
            interested = {
                s.subscriber
                for s in small_table
                if s.rectangle.contains_point(tuple(point))
            }
            assert interested <= members
