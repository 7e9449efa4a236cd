"""Unit tests for the event grid."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import EventGrid, UniformCellProbability
from repro.geometry import Interval, Rectangle
from repro.workload import nine_mode_distribution
from tests.clustering.cellbox import box_cells
from tests.geometry.test_gridmath import probes_inside


def rect2(x0, x1, y0, y1):
    return Rectangle.from_intervals([Interval(x0, x1), Interval(y0, y1)])


@pytest.fixture()
def simple_grid():
    """Two subscribers in a 4x4 grid over (0,4]x(0,4]."""
    rectangles = [
        rect2(0.0, 2.0, 0.0, 2.0),   # subscriber 100, lower-left block
        rect2(2.0, 4.0, 2.0, 4.0),   # subscriber 200, upper-right block
        rect2(1.0, 3.0, 1.0, 3.0),   # subscriber 100 again, center
    ]
    return EventGrid(
        rectangles,
        [100, 200, 100],
        cells_per_dim=4,
        frame=((0.0, 0.0), (4.0, 4.0)),
    )


class TestConstruction:
    def test_subscriber_indexing(self, simple_grid):
        assert simple_grid.subscribers == [100, 200]
        assert simple_grid.num_subscribers == 2

    def test_cells_have_membership(self, simple_grid):
        # Cell (0,0) covers (0,1]x(0,1]: only the first rectangle.
        cell = simple_grid.cells[(0, 0)]
        assert simple_grid.members_of(cell.members) == [100]
        # Cell (3,3): only subscriber 200.
        cell = simple_grid.cells[(3, 3)]
        assert simple_grid.members_of(cell.members) == [200]
        # Cell (1,1) covers (1,2]x(1,2]: only subscriber 100's
        # rectangles reach it — (2,4]x(2,4] is half-open and starts
        # strictly after 2.
        cell = simple_grid.cells[(1, 1)]
        assert simple_grid.members_of(cell.members) == [100]
        # Cell (2,2) covers (2,3]x(2,3]: touched by subscriber 200's
        # block and by 100's center rectangle (1,3]x(1,3].
        cell = simple_grid.cells[(2, 2)]
        assert simple_grid.members_of(cell.members) == [100, 200]

    def test_member_count_and_weight(self, simple_grid):
        cell = simple_grid.cells[(2, 2)]
        assert cell.member_count == 2

    def test_uniform_density_by_default(self, simple_grid):
        # 16 equal cells, uniform density: 1/16 each.
        for cell in simple_grid.cells.values():
            assert cell.probability == pytest.approx(1.0 / 16.0)

    def test_cell_rectangle(self, simple_grid):
        cell = simple_grid.cells[(0, 0)]
        assert cell.rectangle().contains_point((0.5, 0.5))
        assert not cell.rectangle().contains_point((1.5, 0.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            EventGrid([], [])
        with pytest.raises(ValueError):
            EventGrid([rect2(0, 1, 0, 1)], [1, 2])
        with pytest.raises(ValueError):
            EventGrid([rect2(0, 1, 0, 1)], [1], cells_per_dim=0)
        with pytest.raises(ValueError):
            EventGrid(
                [rect2(0, 1, 0, 1)],
                [1],
                frame=((0.0,), (1.0,)),
            )
        with pytest.raises(ValueError):
            EventGrid(
                [rect2(0, 1, 0, 1)],
                [1],
                frame=((0.0, 0.0), (0.0, 1.0)),
            )

    def test_empty_rectangle_ignored(self):
        grid = EventGrid(
            [rect2(1.0, 0.0, 0.0, 1.0), rect2(0.0, 1.0, 0.0, 1.0)],
            [1, 2],
            cells_per_dim=2,
            frame=((0.0, 0.0), (2.0, 2.0)),
        )
        cell = grid.cells[(0, 0)]
        assert grid.members_of(cell.members) == [2]

    def test_unbounded_rectangle_clipped_to_frame(self):
        grid = EventGrid(
            [
                Rectangle.from_intervals(
                    [Interval(1.0, np.inf), Interval(-np.inf, np.inf)]
                )
            ],
            [7],
            cells_per_dim=4,
            frame=((0.0, 0.0), (4.0, 4.0)),
        )
        # Covers x-cells 1..3 in every y.
        assert (0, 0) not in grid.cells
        for x in (1, 2, 3):
            for y in range(4):
                assert grid.members_of(grid.cells[(x, y)].members) == [7]

    def test_fitted_frame_covers_data(self):
        grid = EventGrid(
            [rect2(-5.0, 5.0, 10.0, 30.0)], [1], cells_per_dim=3
        )
        assert grid.frame_lo[0] <= -5.0
        assert grid.frame_hi[1] >= 30.0


class TestLocate:
    def test_locate_interior(self, simple_grid):
        assert simple_grid.locate((0.5, 0.5)) == (0, 0)
        assert simple_grid.locate((3.5, 1.5)) == (3, 1)

    def test_locate_half_open_boundaries(self, simple_grid):
        # A point on a cell's high edge belongs to that cell.
        assert simple_grid.locate((1.0, 1.0)) == (0, 0)
        # The frame's low edge is outside.
        assert simple_grid.locate((0.0, 0.5)) is None
        # The frame's high edge is in the last cell.
        assert simple_grid.locate((4.0, 4.0)) == (3, 3)

    def test_locate_outside(self, simple_grid):
        assert simple_grid.locate((5.0, 1.0)) is None
        assert simple_grid.locate((-1.0, 1.0)) is None

    def test_locate_arity(self, simple_grid):
        with pytest.raises(ValueError):
            simple_grid.locate((1.0,))

    def test_locate_agrees_with_cell_bounds(self, simple_grid, rng):
        # A subscriber over the whole frame makes every cell exist.
        simple_grid.add_subscription(rect2(0.0, 4.0, 0.0, 4.0), 300)
        for _ in range(100):
            point = rng.uniform(0.01, 4.0, size=2)
            index = simple_grid.locate(point)
            cell = simple_grid.cells[index]
            assert cell.rectangle().contains_point(tuple(point))


class TestTopCells:
    def test_ordering(self, simple_grid):
        top = simple_grid.top_cells(100)
        weights = [c.probability * c.member_count for c in top]
        assert weights == sorted(weights, reverse=True)

    def test_count_limit(self, simple_grid):
        assert len(simple_grid.top_cells(3)) == 3

    def test_only_occupied_cells(self):
        grid = EventGrid(
            [rect2(0.0, 1.0, 0.0, 1.0)],
            [1],
            cells_per_dim=4,
            frame=((0.0, 0.0), (4.0, 4.0)),
        )
        assert len(grid.top_cells(100)) == len(grid.cells) == 1

    def test_density_weighting_changes_ranking(self):
        rectangles = [rect2(0.0, 1.0, 0.0, 1.0), rect2(3.0, 4.0, 3.0, 4.0)]
        # Density concentrated near the origin.
        class CornerDensity:
            def cell_probability(self, lows, highs):
                return 1.0 if highs[0] <= 2.0 else 0.001

        grid = EventGrid(
            rectangles,
            [1, 2],
            density=CornerDensity(),
            cells_per_dim=4,
            frame=((0.0, 0.0), (4.0, 4.0)),
        )
        top = grid.top_cells(2)
        assert top[0].index == (0, 0)


class TestMembersOf:
    def test_roundtrip(self, simple_grid):
        mask = (1 << 0) | (1 << 1)
        assert simple_grid.members_of(mask) == [100, 200]
        assert simple_grid.members_of(0) == []


class TestUniformCellProbability:
    def test_normalizes(self):
        density = UniformCellProbability([0.0, 0.0], [4.0, 2.0])
        assert density.cell_probability([0, 0], [4, 2]) == pytest.approx(1.0)
        assert density.cell_probability([0, 0], [2, 1]) == pytest.approx(
            0.25
        )

    def test_clips_to_frame(self):
        density = UniformCellProbability([0.0], [10.0])
        assert density.cell_probability([-5.0], [5.0]) == pytest.approx(0.5)

    def test_zero_volume_frame_rejected(self):
        with pytest.raises(ValueError):
            UniformCellProbability([0.0, 0.0], [1.0, 0.0])

    def test_per_dimension_masses(self):
        density = UniformCellProbability([0.0, 0.0], [4.0, 4.0])
        edges = [np.array([0.0, 2.0, 4.0]), np.array([0.0, 1.0, 4.0])]
        masses = density.per_dimension_masses(edges)
        assert np.allclose(masses[0], [0.5, 0.5])
        assert np.allclose(masses[1], [0.25, 0.75])


class TestFastPathConsistency:
    def test_mixture_fast_path_equals_direct(self, small_table):
        density = nine_mode_distribution()
        grid = EventGrid(
            small_table.rectangles(),
            [s.subscriber for s in small_table],
            density=density,
            cells_per_dim=5,
        )
        for cell in list(grid.cells.values())[:40]:
            assert cell.probability == pytest.approx(
                density.cell_probability(cell.lows, cell.highs), abs=1e-12
            )


# -- l(g) is defined by locate ------------------------------------------------
#
# The invariant the paper's scheme rests on: ``M_q`` holds every
# subscriber interested in *any* event of ``S_q``.  Cell by cell that
# is: for every rectangle and every point inside it and the frame, the
# cell the point locates to lists the rectangle's subscriber.  A walk
# that decides membership from the cells' computed edges
# (``frame_lo + i * w``) while ``locate`` quantises
# ``ceil((x - frame_lo) / w) - 1`` breaks it on boundaries, because the
# two round differently.


def boundary_cases(rng, frames):
    """Seeded one-dimensional search: per random frame, every interior
    boundary ``b`` *as the grid computes it*, the rectangles
    ``(b - w/2, b]`` and ``(b, b + w/2]``, and the one point of each
    that sits on the boundary.  Yields ``(frame, cells, [(rectangle,
    point), ...])``."""
    for _ in range(frames):
        lo = float(rng.uniform(-20.0, 20.0))
        hi = lo + float(rng.uniform(0.5, 30.0))
        cells = int(rng.integers(2, 21))
        width = (np.float64(hi) - np.float64(lo)) / cells
        cases = []
        for i in range(1, cells):
            b = float(lo + i * width)
            above = float(np.nextafter(b, np.inf))
            cases.append((Rectangle((b - width / 2,), (b,)), b))
            cases.append((Rectangle((b,), (b + width / 2,)), above))
        yield ((lo,), (hi,)), cells, cases


def missing_members(grid, cases):
    """Cases whose point locates to a cell that lacks the subscriber
    (subscriber ``k`` owns rectangle ``k``)."""
    missing = 0
    for subscriber, (rectangle, point) in enumerate(cases):
        assert rectangle.contains_point((point,))
        cell = grid.cells.get(grid.locate((point,)))
        if cell is None or subscriber not in grid.members_of(cell.members):
            missing += 1
    return missing


def axis_probes(grid, d, lo, hi):
    """Points of ``(lo, hi]`` inside the frame on axis ``d``."""
    return sorted(
        set(
            probes_inside(
                float(grid.frame_lo[d]),
                float(grid.frame_hi[d]),
                grid.cells_per_dim,
                float(grid.cell_width[d]),
                lo,
                hi,
            )
        )
    )


@st.composite
def boundary_hugging_tables(draw):
    """A 1–3-dimensional explicit frame and rectangles whose edges are
    computed boundaries, one ulp off them, arbitrary, beyond the frame
    or unbounded."""
    ndim = draw(st.integers(1, 3))
    cells = draw(st.integers(1, 6))
    frame_lo = [
        draw(st.floats(-50.0, 50.0, allow_nan=False)) for _ in range(ndim)
    ]
    frame_hi = [
        lo + draw(st.floats(0.5, 60.0, allow_nan=False)) for lo in frame_lo
    ]
    width = (np.array(frame_hi) - np.array(frame_lo)) / cells

    def edge(d, unbounded):
        def boundary(i, ulps):
            b = frame_lo[d] + i * width[d]
            for _ in range(abs(ulps)):
                b = np.nextafter(b, np.inf if ulps > 0 else -np.inf)
            return float(b)

        span = frame_hi[d] - frame_lo[d]
        on_boundary = st.builds(
            boundary, st.integers(0, cells), st.integers(-1, 1)
        )
        return st.one_of(
            on_boundary,
            on_boundary,
            st.floats(
                frame_lo[d] - span / 4, frame_hi[d] + span / 4, allow_nan=False
            ),
            st.just(unbounded),
        )

    rectangles = []
    for _ in range(draw(st.integers(1, 5))):
        sides = [
            sorted((draw(edge(d, -np.inf)), draw(edge(d, np.inf))))
            for d in range(ndim)
        ]
        rectangles.append(
            Rectangle(
                tuple(lo for lo, _ in sides), tuple(hi for _, hi in sides)
            )
        )
    return rectangles, cells, (frame_lo, frame_hi)


def assert_located_cells_list_the_subscriber(grid, rectangles):
    """Subscriber ``k`` owns rectangle ``k``; every probe point inside
    it lands in a cell that lists ``k``, and no cell lists ``k`` unless
    one of the probes lands there (the marks are tight)."""
    for subscriber, rectangle in enumerate(rectangles):
        axes = [
            axis_probes(grid, d, rectangle.lows[d], rectangle.highs[d])
            for d in range(grid.ndim)
        ]
        reached = set()
        for point in product(*axes):
            assert rectangle.contains_point(point)
            index = grid.locate(point)
            reached.add(index)
            cell = grid.cells.get(index)
            assert cell is not None, (rectangle, point, index)
            assert subscriber in grid.members_of(cell.members), (
                rectangle,
                point,
                index,
            )
        listed = {
            index
            for index, cell in grid.cells.items()
            if subscriber in grid.members_of(cell.members)
        }
        assert listed == reached


class TestMembershipFollowsLocate:
    def test_the_reported_boundary_case(self):
        """Frame (2.535…, 13.344…], C = 10: the rectangle ends exactly
        on the boundary the grid computes for cells 6 | 7, ``locate``
        puts that point in cell 7, and edge arithmetic listed the
        subscriber in cell 6 only."""
        frame = ((2.5351310867480663,), (13.344183019811702,))
        point = 10.101467439892613
        rectangle = Rectangle((9.561014843239431,), (point,))
        assert rectangle.contains_point((point,))
        grid = EventGrid([rectangle], [5], cells_per_dim=10, frame=frame)
        located = grid.locate((point,))
        assert located == (7,)
        assert grid.members_of(grid.cells[located].members) == [5]

    def test_seeded_boundary_search_batch_build(self):
        rng = np.random.default_rng(20031)
        total = missing = 0
        for frame, cells, cases in boundary_cases(rng, 3000):
            grid = EventGrid(
                [rectangle for rectangle, _ in cases],
                list(range(len(cases))),
                cells_per_dim=cells,
                frame=frame,
            )
            total += len(cases)
            missing += missing_members(grid, cases)
        assert total > 30_000
        assert missing == 0

    def test_seeded_boundary_search_add_subscription(self):
        rng = np.random.default_rng(20032)
        total = missing = 0
        for frame, cells, cases in boundary_cases(rng, 1000):
            grid = EventGrid(
                [Rectangle(frame[0], frame[1])],
                [10**6],
                cells_per_dim=cells,
                frame=frame,
            )
            for subscriber, (rectangle, _) in enumerate(cases):
                # Half a cell wide: its own cell, and the next when the
                # boundary point rounds across.
                assert 1 <= len(
                    grid.add_subscription(rectangle, subscriber)
                ) <= 2
            total += len(cases)
            missing += missing_members(grid, cases)
        assert total > 10_000
        assert missing == 0

    @settings(max_examples=150, deadline=None)
    @given(boundary_hugging_tables())
    def test_batch_build(self, table):
        rectangles, cells, frame = table
        grid = EventGrid(
            rectangles,
            list(range(len(rectangles))),
            cells_per_dim=cells,
            frame=frame,
        )
        assert_located_cells_list_the_subscriber(grid, rectangles)

    @settings(max_examples=150, deadline=None)
    @given(boundary_hugging_tables())
    def test_add_subscription(self, table):
        rectangles, cells, frame = table
        grid = EventGrid(
            rectangles[:1], [0], cells_per_dim=cells, frame=frame
        )
        for subscriber, rectangle in enumerate(rectangles[1:], start=1):
            affected = box_cells(grid.add_subscription(rectangle, subscriber))
            assert len(affected) == len(set(affected))
            assert {
                index
                for index, cell in grid.cells.items()
                if subscriber in grid.members_of(cell.members)
            } == set(affected)
        assert_located_cells_list_the_subscriber(grid, rectangles)
