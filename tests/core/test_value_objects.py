"""The contract of the publish path's three records.

``MatchResult``, ``DistributionDecision`` and ``DeliveryRecord`` are
values: fixed field names and defaults, no attribute assignment,
equality and hashing that see the type as well as the fields (a record
never equals a bare tuple of its fields), pickling, and a readable
``repr``.  Callers build decisions positionally, so the field order is
part of the contract too.
"""

from __future__ import annotations

import inspect
import pickle

import pytest

from repro.core import (
    DeliveryMethod,
    DeliveryRecord,
    DistributionDecision,
    Event,
    MatchResult,
)

EMPTY = inspect.Parameter.empty


def make_match():
    return MatchResult(subscription_ids=(3, 8), subscribers=(5,))


def make_decision():
    return DistributionDecision(DeliveryMethod.UNICAST, 2, 10, 4)


def make_record():
    return DeliveryRecord(
        Event.create(7, 1, (1.0, 2.0, 3.0, 4.0)),
        make_match(),
        make_decision(),
        4.5,
        6.0,
        3.0,
    )


#: The factory of one record and its field names, in order, with defaults.
CASES = {
    "match": (
        make_match,
        {"subscription_ids": EMPTY, "subscribers": EMPTY},
    ),
    "decision": (
        make_decision,
        {"method": EMPTY, "interested": EMPTY, "group_size": 0, "group": 0},
    ),
    "record": (
        make_record,
        {
            "event": EMPTY,
            "match": EMPTY,
            "decision": EMPTY,
            "scheme_cost": EMPTY,
            "unicast_cost": EMPTY,
            "ideal_cost": EMPTY,
            "repaired": (),
            "undeliverable": (),
        },
    ),
}


def values(obj, fields):
    return tuple(getattr(obj, name) for name in fields)


@pytest.fixture(params=sorted(CASES))
def case(request):
    factory, fields = CASES[request.param]
    return factory, fields


class TestShape:
    def test_field_names_defaults_and_order(self, case):
        factory, fields = case
        cls = type(factory())
        parameters = inspect.signature(cls).parameters
        assert list(parameters) == list(fields)
        assert {
            name: parameter.default for name, parameter in parameters.items()
        } == fields

    def test_positional_construction_equals_keyword(self, case):
        factory, fields = case
        obj = factory()
        cls = type(obj)
        by_position = cls(*values(obj, fields))
        by_keyword = cls(**dict(zip(fields, values(obj, fields))))
        assert by_position == obj
        assert by_keyword == obj

    def test_attribute_assignment_raises(self, case):
        factory, fields = case
        obj = factory()
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        with pytest.raises(AttributeError):
            obj.extra = 1


class TestEquality:
    def test_equal_fields_equal_and_hash_alike(self, case):
        factory, _ = case
        first, second = factory(), factory()
        assert first is not second
        assert first == second
        assert not first != second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_never_equal_to_a_plain_tuple(self, case):
        factory, fields = case
        obj = factory()
        plain = values(obj, fields)
        assert obj != plain
        assert plain != obj
        assert not obj == plain
        assert not plain == obj
        assert plain not in {obj}
        assert obj not in {plain}
        assert {obj: 1}.get(plain) is None

    def test_another_type_with_the_same_fields_is_not_equal(self):
        # Two records whose field values coincide, but not their type.
        match = MatchResult((1,), (2,))
        decision_like = DistributionDecision(DeliveryMethod.UNICAST, 1)
        assert match != decision_like
        assert MatchResult((), ()) != DistributionDecision((), ())
        assert DistributionDecision((), ()) != MatchResult((), ())

    def test_different_fields_differ(self):
        assert make_match() != MatchResult((3, 8), (6,))
        assert make_decision() != DistributionDecision(
            DeliveryMethod.MULTICAST, 2, 10, 4
        )


class TestValueSemantics:
    def test_pickle_round_trip(self, case):
        factory, _ = case
        obj = factory()
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj
        assert type(copy) is type(obj)

    def test_repr_names_every_field(self, case):
        factory, fields = case
        obj = factory()
        text = repr(obj)
        assert text.startswith(type(obj).__name__ + "(")
        for name in fields:
            assert f"{name}=" in text

    def test_repr_of_the_small_records(self):
        assert repr(make_match()) == (
            "MatchResult(subscription_ids=(3, 8), subscribers=(5,))"
        )
        assert repr(make_decision()) == (
            "DistributionDecision(method=<DeliveryMethod.UNICAST: "
            "'unicast'>, interested=2, group_size=10, group=4)"
        )


class TestProperties:
    def test_match_properties(self):
        assert not make_match().is_empty
        assert make_match().num_subscribers == 1
        assert MatchResult((), ()).is_empty

    def test_decision_ratio(self):
        assert make_decision().interested_ratio == 0.2
        assert DistributionDecision(
            DeliveryMethod.UNICAST, 3
        ).interested_ratio == 0.0

    def test_record_method_and_defaults(self):
        record = make_record()
        assert record.method is DeliveryMethod.UNICAST
        assert record.repaired == ()
        assert record.undeliverable == ()
