"""The churn engine against a static engine rebuilt over the live set.

``DynamicMatchingEngine`` answers from a packed base index, an overflow
of rectangles added since the last repack and a set of tombstones.  None
of that may show: after any sequence of subscribes, unsubscribes,
threshold rebuilds and forced rebuilds, ``match_point`` must equal what
a fresh :class:`MatchingEngine` over the live subscriptions answers —
ids, their order and the subscribers.  Coordinates come from a small
pool so that points fall on rectangle edges, and sides may be rays or
wildcards.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core import DynamicMatchingEngine, MatchingEngine, SubscriptionTable
from repro.geometry import Rectangle

INF = float("inf")
NDIM = 3
POOL = [-INF, -2.0, 0.0, 0.5, 1.0, 3.0, INF]
VALUES = st.sampled_from(POOL[1:-1]) | st.floats(-4, 5, width=16)


@st.composite
def rectangles(draw):
    lows, highs = [], []
    for _ in range(NDIM):
        a, b = sorted((draw(VALUES), draw(VALUES)))
        kind = draw(st.integers(0, 5))
        lows.append(-INF if kind in (0, 2) else a)
        highs.append(INF if kind in (1, 2) else b)
    return Rectangle(tuple(lows), tuple(highs))


POINTS = st.tuples(*[st.sampled_from(POOL) | VALUES] * NDIM)

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 9), rectangles()),
        st.tuples(st.just("remove"), st.integers(0, 10**6)),
        st.tuples(st.just("rebuild")),
        st.tuples(st.just("query"), POINTS),
    ),
    max_size=60,
)


def expected_match(engine, live, point):
    """What a freshly built static engine answers over ``live``."""
    table = SubscriptionTable(NDIM)
    for sid in live:
        table.add(engine.table[sid].subscriber, engine.table[sid].rectangle)
    if not live:
        return (), ()
    result = MatchingEngine(table).match_point(point)
    ids = tuple(live[i] for i in result.subscription_ids)
    return ids, result.subscribers


@given(
    initial=st.lists(
        st.tuples(st.integers(0, 9), rectangles()), min_size=1, max_size=40
    ),
    tombstones=st.sets(st.integers(0, 39)),
    fraction=st.sampled_from([0.05, 0.25, 1.0]),
    operations=OPERATIONS,
    probes=st.lists(POINTS, min_size=1, max_size=8),
)
def test_churn_matches_a_rebuilt_static_engine(
    initial, tombstones, fraction, operations, probes
):
    table = SubscriptionTable(NDIM)
    for subscriber, rectangle in initial:
        table.add(subscriber, rectangle)
    removed = {sid for sid in tombstones if sid < len(table)}
    engine = DynamicMatchingEngine(
        table, rebuild_fraction=fraction, removed=removed
    )
    live = [sid for sid in range(len(table)) if sid not in removed]
    for operation in operations:
        if operation[0] == "add":
            added = engine.add(operation[1], operation[2])
            live.append(added.subscription_id)
        elif operation[0] == "remove" and live:
            engine.remove(live.pop(operation[1] % len(live)))
        elif operation[0] == "rebuild":
            engine.rebuild()
        elif operation[0] == "query":
            point = operation[1]
            got = engine.match_point(point)
            assert tuple(got) == expected_match(engine, sorted(live), point)
    for point in probes:
        got = engine.match_point(point)
        assert tuple(got) == expected_match(engine, sorted(live), point)
