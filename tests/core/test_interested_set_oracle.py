"""The interested set against the Python-set answer it has always been.

An event's matched subscription ids become its interested set ``s``:
the distinct subscribers behind those ids, sorted, which the threshold
rule, the unicast reference and the ideal reference all read.
:func:`reference_from_ids` is ``MatchResult.from_ids`` as it was when
the distinct subscribers were ``sorted(set(...))`` over a list of
owners, and :func:`reference_ids` finds the matched ids by brute force
(``lo < x <= hi`` in every dimension, tombstones filtered out one by
one), so neither depends on how the library stores owners, overflow
ids or tombstones.

:class:`MatchingEngine`, :class:`ShardBroker` and
:class:`DynamicMatchingEngine` must give the same :class:`MatchResult`
as those references, with ``int`` elements, over generated tables:
duplicate owners, owners 0, the last node and sparse large ids, sides
that are ±inf rays, empty rectangles, and the benchmark's 1k and 8k
testbeds.  The dynamic engine runs generated subscribe / unsubscribe /
rebuild sequences, with tombstones in the base index and in the
overflow, grown past the overflow's first doubling.

:func:`reference_record` is ``PubSubBroker._cost`` as it was when the
recipients were a filtered list: ``publish`` must give the same
:class:`DeliveryRecord`, field by field, and price the same recipients,
for publishers among the subscribers, alone among them and absent, for
``NOT_SENT`` and catchall events, healthy and under a fault snapshot;
and it cuts the publisher from the sorted subscribers without reading
``PublishPlan.recipients`` (which the chaos harnesses still use).
"""

from __future__ import annotations

import tracemalloc
from itertools import filterfalse

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    DeliveryMethod,
    DynamicMatchingEngine,
    Event,
    MatchingEngine,
    MatchResult,
    SubscriptionTable,
)
from repro.core.broker import DeliveryRecord, PublishPlan
from repro.core.subscription import Subscription
from repro.experiments.config import ExperimentConfig
from repro.experiments.testbed import build_testbed
from repro.faults.plan import FaultState
from repro.faults.verifier import build_chaos_testbed
from repro.geometry import Rectangle
from repro.network.multicast import DeliveryCostModel
from repro.sharding.router import ShardBroker
from repro.workload import PublicationGenerator

INF = float("inf")
NDIM = 3
#: The paper network's last node id (``TransitStubGenerator(seed=600)``).
LAST_NODE = 599
COORDS = st.sampled_from([-2.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(
    -4, 5, width=16
)
OWNERS = (
    st.sampled_from([0, 1, 2, LAST_NODE])
    | st.sampled_from([2**31, 2**40, 2**62, 2**63 - 1])
    | st.integers(0, 2**63 - 1)
)


@st.composite
def rectangles(draw):
    """Finite sides, ±inf rays, wildcards and empty (``lo == hi``) sides."""
    lows, highs = [], []
    for _ in range(NDIM):
        a, b = sorted((draw(COORDS), draw(COORDS)))
        kind = draw(st.integers(0, 6))
        if kind == 6:
            b = a  # lo < x <= lo holds for no x
        lows.append(-INF if kind in (0, 2) else a)
        highs.append(INF if kind in (1, 2) else b)
    return Rectangle(tuple(lows), tuple(highs))


ENTRIES = st.lists(st.tuples(OWNERS, rectangles()), min_size=1, max_size=40)
POINTS = st.lists(st.tuples(*[COORDS] * NDIM), min_size=1, max_size=8)


def reference_from_ids(ids, owners):
    """Today's ``MatchResult.from_ids`` over a plain list of owners."""
    return MatchResult(
        tuple(ids), tuple(sorted(set(map(owners.__getitem__, ids))))
    )


def reference_ids(table, point, removed=()):
    """Every row containing ``point``, ascending, tombstones filtered."""
    lows, highs = table.to_arrays()
    at = np.asarray(point, dtype=np.float64)
    inside = ((lows < at) & (at <= highs)).all(axis=1)
    hits = [int(i) for i in inside.nonzero()[0]]
    return list(filterfalse(set(removed).__contains__, hits))


def owners_of(table):
    return [s.subscriber for s in table]


def assert_same(result, expected):
    assert result == expected
    assert type(result) is MatchResult
    for value in result.subscription_ids + result.subscribers:
        assert type(value) is int


def table_of(entries):
    table = SubscriptionTable(NDIM)
    for owner, rectangle in entries:
        table.add(owner, rectangle)
    return table


@given(entries=ENTRIES, probes=POINTS)
def test_static_engine_equals_today(entries, probes):
    table = table_of(entries)
    engine = MatchingEngine(table)
    owners = owners_of(table)
    for sequence, point in enumerate(probes):
        expected = reference_from_ids(reference_ids(table, point), owners)
        assert_same(engine.match_point(point), expected)
        event = Event.create(sequence, 0, point)
        assert_same(engine.match(event), expected)
    for ids in ([], [0], list(range(len(table))), [len(table) - 1] * 3):
        assert table.subscribers_of(ids) == sorted(
            set(map(owners.__getitem__, ids))
        )


@given(
    entries=ENTRIES,
    gids=st.lists(
        st.integers(0, 10**12), min_size=40, max_size=40, unique=True
    ),
    withdrawn=st.sets(st.integers(0, 39), max_size=10),
    probes=POINTS,
)
def test_shard_match_is_the_sorted_global_ids(
    entries, gids, withdrawn, probes
):
    shard = ShardBroker(0, 0, NDIM)
    by_gid = {}
    for gid, (owner, rectangle) in zip(gids, entries):
        shard.register(Subscription(gid, owner, rectangle))
        by_gid[gid] = (owner, rectangle)
    for _ in range(2):
        ordered = sorted(by_gid)
        local = table_of([by_gid[gid] for gid in ordered])
        for sequence, point in enumerate(probes):
            event = Event.create(sequence, 0, point)
            result = shard.match(event)
            if not ordered:
                assert result == MatchResult((), ())
                continue
            today = reference_from_ids(
                reference_ids(local, point), owners_of(local)
            )
            expected = MatchResult(
                tuple(ordered[i] for i in today.subscription_ids),
                today.subscribers,
            )
            assert_same(result, expected)
            # The global ids are the brute-force answer, sorted.
            assert list(result.subscription_ids) == sorted(
                gid for gid, (_, rectangle) in by_gid.items()
                if rectangle.contains_point(point)
            )
        gone = [gid for i, gid in enumerate(gids) if i in withdrawn]
        shard.withdraw(gone)
        for gid in gone:
            by_gid.pop(gid, None)


OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), OWNERS, rectangles()),
        st.tuples(st.just("remove"), st.integers(0, 10**6)),
        st.tuples(st.just("rebuild")),
        st.tuples(st.just("query"), st.tuples(*[COORDS] * NDIM)),
    ),
    max_size=60,
)


def assert_dynamic_today(engine, removed, point, sequence=0):
    table = engine.table
    expected = reference_from_ids(
        reference_ids(table, point, removed), owners_of(table)
    )
    assert_same(engine.match(Event.create(sequence, 0, point)), expected)
    assert_same(engine.match_point(point), expected)


@given(
    initial=ENTRIES,
    tombstones=st.sets(st.integers(0, 79)),
    fraction=st.sampled_from([0.05, 0.25, 1.0]),
    grown=st.lists(st.tuples(OWNERS, rectangles()), max_size=40),
    operations=OPERATIONS,
    probes=POINTS,
)
def test_dynamic_engine_equals_today(
    initial, tombstones, fraction, grown, operations, probes
):
    table = table_of(initial)
    # Seeded ids past the table are withdrawn once ``add`` reaches them.
    removed = set(tombstones)
    engine = DynamicMatchingEngine(
        table, rebuild_fraction=fraction, removed=removed
    )
    # ``grown`` runs the overflow (and the table) past their first
    # doubling at the loosest fraction; each add is queried at once.
    for owner, rectangle in grown:
        engine.add(owner, rectangle)
        assert_dynamic_today(engine, removed, probes[0])
    for operation in operations:
        if operation[0] == "add":
            engine.add(operation[1], operation[2])
        elif operation[0] == "remove":
            sid = operation[1] % (len(engine.table) + 1)
            if sid >= len(engine.table) or sid in removed:
                with pytest.raises(KeyError):
                    engine.remove(sid)
            else:
                engine.remove(sid)
                removed.add(sid)
        elif operation[0] == "rebuild":
            engine.rebuild()
        else:
            assert_dynamic_today(engine, removed, operation[1])
    for sequence, point in enumerate(probes):
        assert_dynamic_today(engine, removed, point, sequence)



# -- the subscriber-id domain ------------------------------------------------

DOMAIN = [-1, 0, 2**40, 2**62]
#: Past int64 either way: kept as the Python ints they are.
BEYOND = [-(2**70), 2**63, 2**64 + 1]


def domain_table(owners):
    table = SubscriptionTable(2)
    for i, owner in enumerate(owners * 3):
        table.add(owner, Rectangle((-1.0 - i, -INF), (float(i), INF)))
    return table


@pytest.mark.parametrize("owners", [DOMAIN, BEYOND, DOMAIN + BEYOND])
def test_owner_domain_gives_today_results(owners):
    table = domain_table(owners)
    engine = MatchingEngine(table)
    dynamic = DynamicMatchingEngine(domain_table(owners))
    for owner in reversed(owners):  # new subscribers below the others
        dynamic.add(owner - 1, Rectangle((-1.0, -1.0), (0.5, 0.5)))
    for x in (-0.5, 0.5, 3.0, 40.0):
        point = (x, 0.0)
        expected = reference_from_ids(
            reference_ids(table, point), owners_of(table)
        )
        assert_same(engine.match_point(point), expected)
        expected = reference_from_ids(
            reference_ids(dynamic.table, point), owners_of(dynamic.table)
        )
        assert_same(dynamic.match_point(point), expected)
    assert table.subscribers == sorted(set(owners))


def test_owner_magnitude_allocates_nothing():
    """A build and a query hold no memory in proportion to an owner id."""

    def peak(owners):
        table = domain_table(owners)
        tracemalloc.start()
        try:
            MatchingEngine(table).match_point((0.5, 0.0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak([3, 0, 1, 2])
    assert peak(DOMAIN) < small + 4096
    assert peak(BEYOND + [0]) < small + 4096


@pytest.mark.parametrize("fraction", [0.25, 1.0])
def test_seeded_tombstones_outside_the_table(fraction):
    """As with a set of removed ids: a negative id names nothing, and an
    id past the table is withdrawn once ``add`` reaches it (at 1.0 no
    repack follows the adds)."""
    wide = Rectangle((-INF,) * NDIM, (INF,) * NDIM)
    table = table_of([(7, wide), (8, wide), (9, wide)])
    engine = DynamicMatchingEngine(
        table, rebuild_fraction=fraction, removed={-1, -3, 1, 4}
    )
    for owner in (10, 11):
        engine.add(owner, wide)
    point = (0.0,) * NDIM
    assert_same(engine.match_point(point), MatchResult((0, 2, 3), (7, 9, 10)))

# -- the benchmark's testbeds -------------------------------------------------


def probe_points(table, count, seed):
    """Uniform points over the finite frame, half of them on corners."""
    lows, highs = table.to_arrays()
    finite = np.concatenate(
        [lows[np.isfinite(lows)], highs[np.isfinite(highs)]]
    )
    rng = np.random.default_rng(seed)
    points = rng.uniform(
        finite.min(), finite.max(), size=(count, table.ndim)
    )
    half = count // 2
    corners = highs[rng.integers(0, len(highs), size=half)]
    points[:half] = np.where(np.isfinite(corners), corners, points[:half])
    return [tuple(float(x) for x in row) for row in points]


@pytest.fixture(scope="module", params=[1000, 8000], ids=["1k", "8k"])
def testbed_table(request):
    return build_testbed(
        ExperimentConfig(seed=2003, num_subscriptions=request.param)
    ).table


def test_testbed_engines_equal_today(testbed_table):
    table = testbed_table
    owners = owners_of(table)
    engine = MatchingEngine(table)
    points = probe_points(table, 150, seed=len(table))
    for point in points:
        expected = reference_from_ids(reference_ids(table, point), owners)
        assert_same(engine.match_point(point), expected)

    # The churn engine over a copy: tombstones in the base, then adds
    # past the overflow's first doubling, then tombstones among them.
    copy = SubscriptionTable(table.ndim)
    for s in table:
        copy.add(s.subscriber, s.rectangle)
    rng = np.random.default_rng(43)
    removed = {int(i) for i in rng.choice(len(copy), 40, replace=False)}
    dynamic = DynamicMatchingEngine(copy, rebuild_fraction=1.0)
    for sid in sorted(removed):
        dynamic.remove(sid)
    for i in range(40):
        dynamic.add(int(owners[i * 7]), table[i * 11].rectangle)
    for sid in range(len(table), len(table) + 40, 3):
        dynamic.remove(sid)
        removed.add(sid)
    assert dynamic.rebuilds == 0
    for point in points[:60]:
        expected = reference_from_ids(
            reference_ids(copy, point, removed), owners_of(copy)
        )
        assert_same(dynamic.match_point(point), expected)

    # One shard holding every third subscription under sparse global ids.
    shard = ShardBroker(1, 0, table.ndim)
    for s in list(table)[::3]:
        shard.register(
            Subscription(s.subscription_id * 7919, s.subscriber, s.rectangle)
        )
    for sequence, point in enumerate(points[:60]):
        result = shard.match(Event.create(sequence, 0, point))
        hits = [i for i in reference_ids(table, point) if i % 3 == 0]
        assert_same(
            result,
            MatchResult(
                tuple(i * 7919 for i in hits),
                tuple(sorted({owners[i] for i in hits})),
            ),
        )


# -- publish records ---------------------------------------------------------


def reference_record(broker, event, faults=None):
    """Today's ``publish``: the plan, then ``_cost`` over a filtered list.

    Returns the record and the recipients it priced.
    """
    plan = broker.plan(event)
    event, match, q, decision, _root, _flooded = plan
    if decision.method is DeliveryMethod.NOT_SENT:
        return DeliveryRecord(event, match, decision, 0.0, 0.0, 0.0), None
    publisher = event.publisher
    recipients = [n for n in match.subscribers if n != publisher]
    costs = broker.costs
    nodes = costs.routing.node_array(recipients)
    unicast_cost = costs.unicast_cost(publisher, nodes)
    ideal_cost = costs.ideal_cost(publisher, nodes)
    unicast = decision.method is DeliveryMethod.UNICAST
    repaired = undeliverable = ()
    if faults is not None:
        dead = {
            "dead_links": faults.dead_links,
            "dead_nodes": faults.dead_nodes,
        }
        if unicast:
            degraded = costs.degraded_unicast_cost(
                publisher, recipients, **dead
            )
        else:
            degraded = costs.degraded_multicast_cost(
                publisher,
                broker.partition.group(q).member_set,
                interested=recipients,
                **dead,
            )
        scheme_cost = degraded.cost
        repaired, undeliverable = degraded.repaired, degraded.unreachable
    elif unicast:
        scheme_cost = unicast_cost
    else:
        scheme_cost = costs.multicast_cost(
            publisher, broker.partition.group(q).member_set
        )
    record = DeliveryRecord(
        event, match, decision, scheme_cost, unicast_cost, ideal_cost,
        repaired, undeliverable,
    )
    return record, recipients


@pytest.fixture(scope="module")
def chaos_broker():
    broker, density = build_chaos_testbed(
        seed=13, subscriptions=250, num_groups=9
    )
    points, publishers = PublicationGenerator(
        density, broker.topology.all_stub_nodes(), seed=17
    ).generate(240)
    # Far outside the grid's frame: the catchall ``S_0``.
    far = np.full((12, points.shape[1]), 1e9)
    far[::2] *= -1
    return broker, np.vstack([points, far]), publishers


def _events(broker, points, publishers):
    """Publishers among the subscribers, alone among them and absent."""
    absent = broker.topology.num_nodes - 1
    for sequence, point in enumerate(points):
        subscribers = broker.engine.match_point(point).subscribers
        choices = [int(publishers[sequence % len(publishers)]), absent]
        if subscribers:
            choices += [subscribers[0], subscribers[-1]]
            choices.append(subscribers[len(subscribers) // 2])
        for publisher in choices:
            yield Event.create(sequence, publisher, point)


def test_publish_records_equal_today(chaos_broker, monkeypatch):
    broker, points, publishers = chaos_broker
    priced = []
    real = DeliveryCostModel.ideal_cost

    def spy(self, source, recipients):
        priced.append((recipients.dtype, recipients.tolist()))
        return real(self, source, recipients)

    monkeypatch.setattr(DeliveryCostModel, "ideal_cost", spy)
    stub = sorted(broker.topology.all_stub_nodes())
    faults = FaultState(
        0.0, frozenset(stub[::9]), frozenset({(stub[1], stub[2])})
    )
    cases = ("among", "alone", "absent", "not_sent", "catchall")
    seen = dict.fromkeys(cases, 0)
    for event in _events(broker, points, publishers):
        for snapshot in (None, faults):
            expected, recipients = reference_record(broker, event, snapshot)
            del priced[:]
            record = broker.publish(event, faults=snapshot)
            assert record == expected
            for a, b in zip(record, expected):
                assert type(a) is type(b) and a == b
            if recipients is None:
                assert priced == []
                continue
            assert priced == [
                (broker.costs.routing.node_array([]).dtype, recipients)
            ]
        subscribers = expected.match.subscribers
        if expected.method is DeliveryMethod.NOT_SENT:
            seen["not_sent"] += 1
        elif event.publisher not in subscribers:
            seen["absent"] += 1
        elif len(subscribers) == 1:
            seen["alone"] += 1
        else:
            seen["among"] += 1
        if expected.decision.group == 0 and subscribers:
            seen["catchall"] += 1
    assert all(seen.values()), seen


def test_publish_reads_no_plan_recipients(chaos_broker, monkeypatch):
    broker, points, publishers = chaos_broker
    reads = []
    real = PublishPlan.recipients

    def counted(plan):
        reads.append(1)
        return real.fget(plan)

    monkeypatch.setattr(PublishPlan, "recipients", property(counted))
    sent = 0
    for event in _events(broker, points[:60], publishers):
        sent += broker.publish(event).method is not DeliveryMethod.NOT_SENT
    assert sent > 0
    assert reads == []
