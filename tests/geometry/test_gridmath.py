"""Unit tests for the rounding-safe grid-cell arithmetic."""

from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry.gridmath import (
    covered_cell_range,
    locate_cell,
    overlapped_cell_range,
)


def unit_frame(c=16):
    """Frame (0, c] with unit cells."""
    return (
        np.array([0.0]),
        np.array([float(c)]),
        np.array([1.0]),
        c,
    )


class TestCoveredCellRange:
    def test_interior_rectangle(self):
        frame_lo, _, width, c = unit_frame()
        first, last = covered_cell_range(
            np.array([2.5]), np.array([5.5]), frame_lo, width, c
        )
        assert first[0] == 2
        assert last[0] == 5

    def test_exact_boundaries_include_adjacent_candidate(self):
        # (2, 5]: true cells are 2..4; the low-side candidate widens to
        # cell 1 by design (filtered by exact tests downstream).
        frame_lo, _, width, c = unit_frame()
        first, last = covered_cell_range(
            np.array([2.0]), np.array([5.0]), frame_lo, width, c
        )
        assert first[0] == 1
        assert last[0] == 4

    def test_clipping(self):
        frame_lo, _, width, c = unit_frame(4)
        first, last = covered_cell_range(
            np.array([-10.0]), np.array([10.0]), frame_lo, width, c
        )
        assert first[0] == 0
        assert last[0] == 3

    def test_registration_consistent_with_locate(self, rng):
        """The load-bearing property: any point inside a rectangle
        locates into the rectangle's registered cell range — including
        endpoints within an ulp of cell boundaries."""
        frame_lo = np.array([0.0, -50.0])
        frame_hi = np.array([16.0, 50.0])
        width = (frame_hi - frame_lo) / 16
        for _ in range(300):
            lo = rng.uniform(frame_lo, frame_hi)
            hi = lo + rng.uniform(0.0, 5.0, size=2)
            # Perturb endpoints onto/near boundaries half the time.
            if rng.random() < 0.5:
                lo = np.floor(lo)
            if rng.random() < 0.5:
                hi = np.ceil(hi)
            first, last = covered_cell_range(lo, hi, frame_lo, width, 16)
            for _ in range(5):
                p = rng.uniform(
                    np.maximum(lo, frame_lo),
                    np.minimum(hi, frame_hi),
                )
                if np.any(p <= lo) or np.any(p > hi):
                    continue
                cell = locate_cell(p, frame_lo, frame_hi, width, 16)
                if cell is None:
                    continue
                assert np.all(first <= cell) and np.all(cell <= last)

    def test_hypothesis_counterexample_regression(self):
        """The exact failing case the property tests found: a low edge
        one ulp below a cell boundary quantizing onto it."""
        frame_lo = np.array([-50.0])
        frame_hi = np.array([50.0])
        width = (frame_hi - frame_lo) / 16
        lo = np.array([-2.52997437e-50])  # a hair below 0.0
        hi = np.array([50.0])
        first, last = covered_cell_range(lo, hi, frame_lo, width, 16)
        point = np.array([0.0])  # inside (lo, hi]
        cell = locate_cell(point, frame_lo, frame_hi, width, 16)
        assert first[0] <= cell[0] <= last[0]


@st.composite
def frames_and_sides(draw):
    """A one-dimensional frame, a resolution, and a side ``(lo, hi]``
    whose ends are drawn from the places rounding goes wrong — a cell
    boundary as the grid computes it (either way: ``frame_lo + i * w``,
    or the cell below's low edge plus ``w``), one ulp to either side —
    or from anywhere, beyond the frame and unbounded included."""
    frame_lo = draw(st.floats(-1e3, 1e3, allow_nan=False))
    frame_hi = frame_lo + draw(st.floats(1e-3, 1e3, allow_nan=False))
    cells = draw(st.integers(1, 24))
    width = (np.float64(frame_hi) - np.float64(frame_lo)) / cells

    def boundary(i, chained, ulps):
        edge = (
            (frame_lo + (i - 1) * width) + width
            if chained
            else frame_lo + i * width
        )
        for _ in range(abs(ulps)):
            edge = np.nextafter(edge, np.inf if ulps > 0 else -np.inf)
        return float(edge)

    span = frame_hi - frame_lo
    finite = st.one_of(
        st.builds(
            boundary,
            st.integers(0, cells),
            st.booleans(),
            st.integers(-1, 1),
        ),
        st.floats(frame_lo - span, frame_hi + span, allow_nan=False),
    )
    lo, hi = sorted(
        (
            draw(st.one_of(finite, finite, st.just(-np.inf))),
            draw(st.one_of(finite, finite, st.just(np.inf))),
        )
    )
    assume(lo < hi)
    return frame_lo, frame_hi, cells, float(width), lo, hi


def probes_inside(frame_lo, frame_hi, cells, width, lo, hi):
    """Representable points of ``(lo, hi]`` inside the frame: the two
    extreme ones, every computed boundary and its neighbours, and the
    middle of every cell."""
    candidates = [np.nextafter(lo, np.inf), hi, frame_hi]
    candidates.append(np.nextafter(frame_lo, np.inf))
    for i in range(cells + 1):
        edge = frame_lo + i * width
        candidates += [
            edge,
            np.nextafter(edge, -np.inf),
            np.nextafter(edge, np.inf),
            edge + width / 2,
        ]
    return [
        float(p)
        for p in candidates
        if lo < p <= hi and frame_lo < p <= frame_hi
    ]


class TestOverlappedCellRange:
    def test_exact_boundaries_are_tight(self):
        # (2, 5]: cells 2..4 and nothing else — the cell below the low
        # edge holds no point of the rectangle.
        frame_lo, _, width, c = unit_frame()
        first, last = overlapped_cell_range(
            np.array([2.0]), np.array([5.0]), frame_lo, width, c
        )
        assert (first[0], last[0]) == (2, 4)

    def test_sides_beyond_the_frame_clamp(self):
        frame_lo, _, width, c = unit_frame(4)
        for lo, hi in ((-10.0, 10.0), (-np.inf, np.inf)):
            first, last = overlapped_cell_range(
                np.array([lo]), np.array([hi]), frame_lo, width, c
            )
            assert (first[0], last[0]) == (0, 3)

    def test_a_table_is_its_rows(self, rng):
        frame_lo = np.array([0.0, -50.0, 3.0])
        width = np.array([1.0, 100.0 / 7, 0.3])
        lo = rng.uniform(-5.0, 20.0, size=(40, 3))
        hi = lo + rng.uniform(0.01, 10.0, size=(40, 3))
        first, last = overlapped_cell_range(lo, hi, frame_lo, width, 7)
        assert first.shape == last.shape == (40, 3)
        for row in range(40):
            one_first, one_last = overlapped_cell_range(
                lo[row], hi[row], frame_lo, width, 7
            )
            assert first[row].tolist() == one_first.tolist()
            assert last[row].tolist() == one_last.tolist()
        assert isinstance(first[0].tolist()[0], int)

    @settings(max_examples=400, deadline=None)
    @given(frames_and_sides())
    def test_every_point_locates_inside_and_both_ends_are_attained(
        self, drawn
    ):
        """The contract with ``locate_cell``: a point of the rectangle
        never locates outside the range (no subscriber is missing from
        the cell an event lands in), and the first and the last cell
        each hold a point of it (no subscriber is listed in a cell its
        events cannot reach)."""
        frame_lo, frame_hi, cells, width, lo, hi = drawn
        first, last = overlapped_cell_range(
            np.array([lo]),
            np.array([hi]),
            np.array([frame_lo]),
            np.array([width]),
            cells,
        )
        located = [
            locate_cell((p,), [frame_lo], [frame_hi], [width], cells)[0]
            for p in probes_inside(frame_lo, frame_hi, cells, width, lo, hi)
        ]
        assume(located)  # the side meets the frame at all
        assert first[0] <= min(located) and max(located) <= last[0]
        assert (min(located), max(located)) == (first[0], last[0])

    def test_never_wider_than_the_candidate_range(self, rng):
        frame_lo = np.array([0.0, -50.0])
        frame_hi = np.array([16.0, 50.0])
        width = (frame_hi - frame_lo) / 16
        lo = np.floor(rng.uniform(frame_lo, frame_hi, size=(200, 2)))
        hi = lo + np.ceil(rng.uniform(0.0, 5.0, size=(200, 2))) + 1.0
        hi = np.minimum(hi, frame_hi)
        tight = overlapped_cell_range(lo, hi, frame_lo, width, 16)
        wide = covered_cell_range(lo, hi, frame_lo, width, 16)
        assert np.all(wide[0] <= tight[0]) and np.all(tight[1] <= wide[1])
        assert np.any(wide[0] < tight[0])  # the boundary-aligned lows


class TestLocateCell:
    def test_half_open_boundaries(self):
        frame_lo, frame_hi, width, c = unit_frame(4)
        frame_hi = np.array([4.0])
        # Low frame edge is outside.
        assert locate_cell(
            np.array([0.0]), frame_lo, frame_hi, width, 4
        ) is None
        # Cell high boundary belongs to the cell.
        assert locate_cell(
            np.array([1.0]), frame_lo, frame_hi, width, 4
        )[0] == 0
        assert locate_cell(
            np.array([1.0000001]), frame_lo, frame_hi, width, 4
        )[0] == 1
        # The frame's high edge is in the last cell.
        assert locate_cell(
            np.array([4.0]), frame_lo, frame_hi, width, 4
        )[0] == 3

    def test_outside_frame(self):
        frame_lo, frame_hi, width, c = unit_frame(4)
        frame_hi = np.array([4.0])
        assert locate_cell(
            np.array([4.5]), frame_lo, frame_hi, width, 4
        ) is None
        assert locate_cell(
            np.array([-0.5]), frame_lo, frame_hi, width, 4
        ) is None


def reference_locate_cell(point, frame_lo, frame_hi, cell_width, cells_per_dim):
    """The array form ``locate_cell`` had before it went scalar."""
    if np.any(point <= frame_lo) or np.any(point > frame_hi):
        return None
    coords = np.ceil((point - frame_lo) / cell_width).astype(int) - 1
    return tuple(int(x) for x in np.clip(coords, 0, cells_per_dim - 1))


class TestLocateCellAgainstArrayReference:
    """Scalar arithmetic must quantize exactly as the array version
    did, one ulp either side of every boundary included."""

    FRAMES = [
        # (frame_lo, frame_hi, cells_per_dim); the widths of the
        # second and third are not exact in binary.
        ((0.0, 0.0), (16.0, 4.0), 16),
        ((-50.0, 0.1), (50.0, 0.7), 16),
        ((1e-3, -7.3), (1e3, 11.9), 10),
        ((5.0, -1.0), (6.0, 1.0), 1),
    ]

    @staticmethod
    def probes(lo, hi, width, cells):
        """Every cell boundary of one dimension, +/- one ulp, plus
        points well outside the frame."""
        values = [lo - 1.0, hi + 1.0, lo - width, hi + width]
        for i in range(cells + 1):
            edge = lo + i * width
            values += [
                edge,
                np.nextafter(edge, -np.inf),
                np.nextafter(edge, np.inf),
            ]
        values += [hi, np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf)]
        return [float(v) for v in values]

    @pytest.mark.parametrize("frame_lo, frame_hi, cells", FRAMES)
    def test_boundaries_and_outside(self, frame_lo, frame_hi, cells):
        lo = np.array(frame_lo)
        hi = np.array(frame_hi)
        width = (hi - lo) / cells
        lists = (lo.tolist(), hi.tolist(), width.tolist(), cells)
        axes = [
            self.probes(lo[d], hi[d], width[d], cells) for d in range(2)
        ]
        inside = 0
        for point in product(*axes):
            expected = reference_locate_cell(
                np.array(point), lo, hi, width, cells
            )
            found = locate_cell(point, *lists)
            assert found == expected, point
            if found is not None:
                assert all(type(c) is int for c in found)
                inside += 1
        assert inside  # the sweep is not all misses

    def test_named_edges(self):
        lo, hi, width = [0.0], [4.0], [1.0]
        assert locate_cell((0.0,), lo, hi, width, 4) is None  # low edge
        assert locate_cell((4.0,), lo, hi, width, 4) == (3,)  # high edge
        assert locate_cell((np.nextafter(4.0, 5.0),), lo, hi, width, 4) is None
        assert locate_cell((np.nextafter(0.0, 1.0),), lo, hi, width, 4) == (0,)
        assert locate_cell((float("nan"),), lo, hi, width, 4) is None

    def test_random_points_equal_reference(self, rng):
        lo = np.array([-3.7, 0.0, 12.5, -1e-9])
        hi = np.array([9.1, 1.0, 13.0, 1e-9])
        width = (hi - lo) / 10
        lists = (lo.tolist(), hi.tolist(), width.tolist(), 10)
        points = rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), (2000, 4))
        for point in points:
            assert locate_cell(point.tolist(), *lists) == (
                reference_locate_cell(point, lo, hi, width, 10)
            )
