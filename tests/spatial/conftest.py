"""Fixtures shared by the spatial index tests."""

from __future__ import annotations

import numpy as np
import pytest


def make_workload(rng, k=500, ndim=4, unbounded=True):
    """Random rectangles, some with ray/wildcard sides, plus probe points."""
    centers = rng.uniform(0, 20, size=(k, ndim))
    half = rng.pareto(1.5, size=(k, ndim)) + 0.05
    lows = centers - half
    highs = centers + half
    if unbounded:
        highs[rng.random(k) < 0.15, ndim - 1] = np.inf
        lows[rng.random(k) < 0.15, ndim - 2] = -np.inf
        full = rng.random(k) < 0.05
        lows[full, 0] = -np.inf
        highs[full, 0] = np.inf
    points = rng.uniform(-3, 23, size=(200, ndim))
    return lows, highs, points


@pytest.fixture()
def workload(rng):
    return make_workload(rng)


@pytest.fixture()
def bounded_workload(rng):
    return make_workload(rng, unbounded=False)


def check_packed_invariants(tree):
    """Structural invariants of a packed tree, read off its arrays.

    Every child MBR contains its whole subtree (so pruning on it is
    safe), children are contiguous in breadth-first order, and every
    indexed id sits in exactly one leaf.  Returns the ``(node, depth)``
    pairs of the leaves.
    """
    packed = tree._packed
    rows_seen = []
    leaves = []
    next_child = 1  # breadth-first: children are handed out in order

    def subtree_mbr(node, depth):
        if packed.is_leaf[node]:
            assert packed.child_count[node] == 0
            first = packed.entry_start[node]
            rows = range(first, first + packed.entry_count[node])
            assert len(rows) > 0
            rows_seen.extend(rows)
            leaves.append((node, depth))
            lo = packed.entry_lows[:, rows].min(axis=1)
            hi = packed.entry_highs[:, rows].max(axis=1)
        else:
            assert packed.entry_count[node] == 0
            first = packed.child_start[node]
            children = range(first, first + packed.child_count[node])
            assert len(children) > 0
            boxes = [subtree_mbr(child, depth + 1) for child in children]
            lo = np.min([box[0] for box in boxes], axis=0)
            hi = np.max([box[1] for box in boxes], axis=0)
        assert np.all(packed.lows[:, node] <= lo)
        assert np.all(packed.highs[:, node] >= hi)
        return lo, hi

    subtree_mbr(0, 0)
    internal = np.flatnonzero(~packed.is_leaf)
    for node in internal:
        assert packed.child_start[node] == next_child
        next_child += packed.child_count[node]
    assert next_child == len(packed.is_leaf)
    assert sorted(rows_seen) == list(range(len(tree)))
    assert sorted(packed.entry_ids.tolist()) == sorted(tree._ids.tolist())
    return leaves
