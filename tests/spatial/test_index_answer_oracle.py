"""Every backend's answer is one sorted int64 array equal to brute force.

``PointMatcher.match`` hands the engines one C-contiguous int64 array:
the ids of the rectangles holding the point, ascending, each once (the
engines pass it to ``MatchResult.from_ids`` as it is, and the churn
engine writes it into its merge buffer with one slice write).  For all
five ``MATCHER_BACKENDS``, on generated tables — rays and wildcards at
±inf, empty sides ``(x, x]``, reversed sides and sides empty at either
infinity, whole rows repeated, ids scattered so a row-order answer is
unsorted — and at points on and one ulp off every bound, the answer
must have that form and hold exactly the brute force's ids;
``count`` must be its length.  The two packed trees must also read,
query for query, the four ``QueryStats`` counters the closure-based
reference walk of ``test_point_query_oracle.py`` reads, compared
through ``tolist``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.matching import MATCHER_BACKENDS
from repro.spatial import HilbertRTree, STree
from repro.spatial.base import QueryStats
from tests.spatial.test_point_query_oracle import (
    probes,
    reference_match,
    stats_of,
    tables,
)

INF = float("inf")
PACKED = (STree, HilbertRTree)


@st.composite
def tables_with_empty_sides(draw):
    """``tables()`` with some sides made empty: reversed, ``(x, x]``,
    ``(+inf, +inf]`` or ``(-inf, -inf]``."""
    lows, highs, seed = draw(tables())
    rng = np.random.default_rng(seed + 1)
    share = draw(st.sampled_from([0.0, 0.05, 0.3]))
    for row, dim in zip(*np.nonzero(rng.random(lows.shape) < share)):
        kind = rng.integers(4)
        lo, hi = lows[row, dim], highs[row, dim]
        if kind == 0 and np.isfinite(lo) and np.isfinite(hi) and lo < hi:
            lows[row, dim], highs[row, dim] = hi, lo
        elif kind == 1 and np.isfinite(lo):
            highs[row, dim] = lo
        else:
            side = INF if kind == 2 else -INF
            lows[row, dim] = highs[row, dim] = side
    return lows, highs, seed


def brute_force(lows, highs, ids, point):
    inside = np.all((lows < point) & (point <= highs), axis=1)
    return sorted(ids[inside].tolist())


def assert_answers_sorted_id_arrays(name, lows, highs, seed, **options):
    """Build backend ``name`` over the table and hold every probe's
    answer to the array form, brute force, ``count`` and (packed trees)
    the reference walk's counters."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(10 * len(lows))[: len(lows)] * 3
    matcher = MATCHER_BACKENDS[name].build(lows, highs, ids=ids, **options)
    packed = isinstance(matcher, PACKED)
    expected = QueryStats()
    for point in probes(lows, highs, rng, 40):
        got = matcher.match(point)
        assert type(got) is np.ndarray and got.dtype == np.int64
        assert got.ndim == 1 and got.flags.c_contiguous
        assert bool(np.all(got[1:] > got[:-1])), point  # sorted, once each
        assert got.tolist() == brute_force(lows, highs, ids, point), point
        assert matcher.count(point) == len(got)
        if packed:
            want = reference_match(matcher, point, expected)
            assert got.tolist() == want
            reference_match(matcher, point, expected)  # what count read
            assert stats_of(matcher.stats) == stats_of(expected), point


@pytest.mark.parametrize("name", sorted(MATCHER_BACKENDS))
@given(table=tables_with_empty_sides())
def test_every_backend_answers_one_sorted_id_array(name, table):
    # The grid lists a ray in every cell it crosses: keep 6-D grids small.
    options = {"cells_per_dim": 3} if name == "grid" else {}
    assert_answers_sorted_id_arrays(name, *table, **options)


@given(table=tables_with_empty_sides())
def test_the_default_grid_answers_one_sorted_id_array(table):
    """``MATCHER_BACKENDS["grid"]`` as shipped (16 cells a side), on the
    first three dimensions of the table, where its cell lists stay
    small."""
    lows, highs, seed = table
    lows, highs = lows[:, :3].copy(), highs[:, :3].copy()
    assert_answers_sorted_id_arrays("grid", lows, highs, seed)
