"""The binarization sweep against a test-local copy of the per-dimension one.

``STree._best_split`` picks one split of a node: the candidate cut
(skew bounds, strides of the sweep increment) and dimension whose two
child MBRs have the smallest summed volume, ties to the smaller
perimeter, then to the lower dimension, then to the earlier cut.  The
sweep it replaced sorted, gathered and ran prefix / suffix MBRs over the
whole node once per dimension; that sweep is kept here, verbatim, as the
reference.  Min and max are exact, so where the prefix MBRs are read
cannot change a bit of them: the packed tree of the reference and of the
library must be identical, array for array, on generated tables (±inf
sides, duplicate rectangles, nodes whose skew bounds cross) and on the
benchmark's 1k / 4k / 8k testbeds.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.testbed import build_testbed
from repro.spatial import STree, STreeParams
from repro.spatial.packed import PackedTree

INF = float("inf")


class ReferenceSTree(STree):
    """The S-tree with the per-dimension sweep it had before."""

    def _best_split(self, indices, frame):
        pack_lows, pack_highs, pack_centers = frame
        lows = pack_lows[indices]
        highs = pack_highs[indices]
        count = len(indices)

        if self.params.split_dimension == "longest":
            extents = highs.max(axis=0) - lows.min(axis=0)
            dims = [int(np.argmax(extents))]
        else:
            dims = list(range(self.ndim))

        p = self.params.skew_factor
        q_min = max(1, math.ceil(p * count))
        q_max = min(count - 1, math.floor((1 - p) * count))
        if q_min > q_max:
            q_min = q_max = count // 2
        step = self.params.effective_sweep_increment
        candidates = np.arange(q_min, q_max + 1, step, dtype=np.int64)
        if candidates[-1] != q_max:
            candidates = np.append(candidates, q_max)

        best_key = None
        best_q = 0
        best_order = None
        for dim in dims:
            order = np.argsort(pack_centers[indices, dim], kind="stable")
            lo = lows[order]
            hi = highs[order]
            fwd_lo = np.minimum.accumulate(lo, axis=0)
            fwd_hi = np.maximum.accumulate(hi, axis=0)
            bwd_lo = np.ascontiguousarray(
                np.minimum.accumulate(lo[::-1], axis=0)[::-1]
            )
            bwd_hi = np.ascontiguousarray(
                np.maximum.accumulate(hi[::-1], axis=0)[::-1]
            )
            left_ext = fwd_hi[candidates - 1] - fwd_lo[candidates - 1]
            right_ext = bwd_hi[candidates] - bwd_lo[candidates]
            volumes = np.prod(left_ext, axis=1) + np.prod(right_ext, axis=1)
            perimeters = left_ext.sum(axis=1) + right_ext.sum(axis=1)
            pick = int(np.lexsort((perimeters, volumes))[0])
            key = (float(volumes[pick]), float(perimeters[pick]))
            if best_key is None or key < best_key:
                best_key = key
                best_q = int(candidates[pick])
                best_order = order
        sorted_indices = indices[best_order]
        return sorted_indices[:best_q], sorted_indices[best_q:]


def assert_same_tree(lows, highs, **params):
    """Build both trees and compare every packed array."""
    settings = STreeParams(**params)
    tree = STree.build(lows, highs, params=settings)
    reference = ReferenceSTree.build(lows, highs, params=settings)
    for field in fields(PackedTree):
        got = getattr(tree._packed, field.name)
        want = getattr(reference._packed, field.name)
        assert got.dtype == want.dtype, field.name
        np.testing.assert_array_equal(got, want, err_msg=field.name)


PARAMS = [
    {},
    {"split_dimension": "longest"},
    {"sweep_increment": 1},
    {"sweep_increment": 1, "split_dimension": "longest"},
    # M = 2 and p = 1/2 at an odd count: the skew bounds cross.
    {"branch_factor": 2, "skew_factor": 0.5},
    {"branch_factor": 3, "skew_factor": 0.45, "sweep_increment": 2},
    {"branch_factor": 5, "skew_factor": 0.1, "sweep_increment": 7},
]


# -- generated tables ---------------------------------------------------------

#: Few distinct coordinates, so that centers, sides and whole
#: rectangles repeat (ties in the sort and in the objective).
POOL = np.array([-7.5, -1.0, 0.0, 0.5, 1.0, 2.0, 3.5, 40.0])
#: Sides whose extents overflow to inf, and widths that round to 0:
#: volumes of ``0 * inf`` are NaN, which the objective must order as
#: the per-dimension sweep did.
HUGE = np.array([-1.7e308, -1e300, 0.0, 1e300, 1.7e308])


@st.composite
def tables(draw):
    """``(lows, highs)``: pooled or spread coordinates, rays on either
    side, wildcards, and rows repeated whole."""
    count = draw(st.integers(1, 300))
    ndim = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from(["pool", "uniform", "huge"]))
    if spread == "uniform":
        a, b = rng.uniform(-50, 50, (2, count, ndim))
    else:
        a, b = rng.choice(POOL if spread == "pool" else HUGE, (2, count, ndim))
    lows, highs = np.minimum(a, b), np.maximum(a, b) + 0.25
    rays = draw(st.sampled_from([0.0, 0.1, 0.5]))
    lows[rng.random((count, ndim)) < rays] = -INF
    highs[rng.random((count, ndim)) < rays] = INF
    repeats = rng.random(count) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    repeats[0] = False
    source = rng.integers(0, np.arange(count) + 1)  # a row at or above
    for row in np.flatnonzero(repeats):
        lows[row], highs[row] = lows[source[row]], highs[source[row]]
    return lows, highs


@st.composite
def parameters(draw):
    return {
        "branch_factor": draw(st.sampled_from([2, 3, 5, 8, 40])),
        "skew_factor": draw(st.sampled_from([0.05, 0.1, 0.3, 0.45, 0.5])),
        "sweep_increment": draw(st.sampled_from([None, 1, 2, 7])),
        "split_dimension": draw(st.sampled_from(["best", "longest"])),
    }


@given(table=tables(), params=parameters())
def test_generated_tables_pack_identically(table, params):
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_tree(*table, **params)


@pytest.mark.parametrize("params", PARAMS, ids=str)
def test_all_duplicates_pack_identically(params):
    lows = np.tile([0.0, -INF, 1.0], (97, 1))
    highs = np.tile([1.0, 2.0, INF], (97, 1))
    assert_same_tree(lows, highs, **params)


@pytest.mark.parametrize("params", PARAMS, ids=str)
def test_stock_shaped_table_packs_identically(params):
    """Bounded boxes, rays and wildcards at the paper's M = 40 scale."""
    rng = np.random.default_rng(5)
    centers = rng.uniform(0, 20, (600, 4))
    half = rng.pareto(1.5, (600, 4)) + 0.05
    lows, highs = centers - half, centers + half
    highs[rng.random(600) < 0.15, 3] = INF
    lows[rng.random(600) < 0.15, 2] = -INF
    assert_same_tree(lows, highs, **params)


# -- the benchmark's testbeds -------------------------------------------------


TESTBED_CASES = [
    (subscriptions, params)
    for subscriptions in (1000, 4000, 8000)
    for params in ({}, {"split_dimension": "longest"})
] + [(1000, {"sweep_increment": 1}), (4000, {"sweep_increment": 1})]


@pytest.mark.parametrize("subscriptions, params", TESTBED_CASES, ids=str)
def test_testbeds_pack_identically(subscriptions, params):
    testbed = build_testbed(
        ExperimentConfig(seed=2003, num_subscriptions=subscriptions)
    )
    assert_same_tree(*testbed.table.to_arrays(), **params)
