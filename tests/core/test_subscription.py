"""Unit tests for subscriptions and the subscription table."""

import math

import numpy as np
import pytest

from repro.core import Subscription, SubscriptionTable, decompose_predicates
from repro.geometry import FULL_LINE, Interval, Rectangle


class TestSubscription:
    def test_matches(self):
        sub = Subscription(
            0,
            42,
            Rectangle.from_intervals([Interval(0, 1), Interval(0, 1)]),
        )
        assert sub.matches((0.5, 0.5))
        assert not sub.matches((1.5, 0.5))
        assert sub.ndim == 2


class TestDecomposition:
    def test_single_range_per_dim(self):
        rects = decompose_predicates([[Interval(0, 1)], [Interval(2, 3)]])
        assert len(rects) == 1

    def test_cross_product(self):
        rects = decompose_predicates(
            [
                [Interval(0, 1), Interval(5, 6)],
                [Interval(2, 3), Interval(7, 8), Interval(9, 10)],
            ]
        )
        assert len(rects) == 6

    def test_empty_predicate_means_wildcard(self):
        rects = decompose_predicates([[], [Interval(0, 1)]])
        assert len(rects) == 1
        assert rects[0].sides[0] == FULL_LINE

    def test_empty_intervals_dropped(self):
        rects = decompose_predicates(
            [[Interval(1, 0), Interval(0, 1)], [Interval(2, 3)]]
        )
        assert len(rects) == 1
        assert rects[0].sides[0] == Interval(0, 1)

    def test_all_empty_falls_back_to_wildcard(self):
        rects = decompose_predicates([[Interval(1, 0)], [Interval(2, 3)]])
        assert rects[0].sides[0] == FULL_LINE

    def test_multi_range_semantics(self):
        # price in (10,20] or (30,40] — an event in either range matches
        # exactly one decomposed rectangle.
        rects = decompose_predicates(
            [[Interval(10, 20), Interval(30, 40)]]
        )
        hits_15 = [r for r in rects if r.contains_point((15,))]
        hits_35 = [r for r in rects if r.contains_point((35,))]
        hits_25 = [r for r in rects if r.contains_point((25,))]
        assert len(hits_15) == 1
        assert len(hits_35) == 1
        assert not hits_25


class TestSubscriptionTable:
    def test_add_assigns_sequential_ids(self):
        table = SubscriptionTable(2)
        r = Rectangle((0.0, 0.0), (1.0, 1.0))
        first = table.add(10, r)
        second = table.add(20, r)
        assert first.subscription_id == 0
        assert second.subscription_id == 1
        assert len(table) == 2

    def test_dimension_checked(self):
        table = SubscriptionTable(2)
        with pytest.raises(ValueError):
            table.add(1, Rectangle((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))

    def test_ndim_validation(self):
        with pytest.raises(ValueError):
            SubscriptionTable(0)

    def test_add_predicates_decomposes(self):
        table = SubscriptionTable(2)
        subs = table.add_predicates(
            5, [[Interval(0, 1), Interval(2, 3)], [Interval(0, 9)]]
        )
        assert len(subs) == 2
        assert all(s.subscriber == 5 for s in subs)

    def test_add_predicates_arity(self):
        table = SubscriptionTable(2)
        with pytest.raises(ValueError):
            table.add_predicates(5, [[Interval(0, 1)]])

    def test_extend(self):
        table = SubscriptionTable(1)
        table.extend(
            (i, Rectangle((float(i),), (float(i) + 1,))) for i in range(4)
        )
        assert len(table) == 4

    def test_subscribers_sorted_unique(self):
        table = SubscriptionTable(1)
        r = Rectangle((0.0,), (1.0,))
        for subscriber in (30, 10, 30, 20):
            table.add(subscriber, r)
        assert table.subscribers == [10, 20, 30]

    def test_subscribers_of(self):
        table = SubscriptionTable(1)
        r = Rectangle((0.0,), (1.0,))
        for subscriber in (7, 7, 9):
            table.add(subscriber, r)
        assert table.subscribers_of([0, 1]) == [7]
        assert table.subscribers_of([0, 2]) == [7, 9]
        assert table.subscribers_of([]) == []

    def test_to_arrays(self):
        table = SubscriptionTable(2)
        table.add(1, Rectangle((0.0, 2.0), (1.0, 3.0)))
        lows, highs = table.to_arrays()
        assert lows.tolist() == [[0.0, 2.0]]
        assert highs.tolist() == [[1.0, 3.0]]

    def test_to_arrays_empty_table(self):
        with pytest.raises(ValueError):
            SubscriptionTable(2).to_arrays()

    def test_from_placed(self, small_placed):
        table = SubscriptionTable.from_placed(small_placed)
        assert len(table) == len(small_placed)
        assert table[0].subscriber == small_placed[0].node

    def test_iteration_and_indexing(self):
        table = SubscriptionTable(1)
        table.add(1, Rectangle((0.0,), (1.0,)))
        assert [s.subscription_id for s in table] == [0]
        assert table[0].subscriber == 1
