"""``canonical_json`` against the encoder it has always been.

Every stored byte and digest in the durability layer is defined over
``canonical_json``: keys sorted, no whitespace, ASCII only.  This holds
it to a fresh ``json.JSONEncoder(sort_keys=True, separators=(",",
":")).encode`` — the reference, built here on every call — over
generated JSON-shaped values: nested dicts and lists, int keys,
non-ASCII, control-character and lone-surrogate strings, huge ints,
``bool`` and ``None``, the floats whose text is easy to get wrong, and
top-level scalars.  Whatever the reference raises, ``canonical_json``
must raise too, with the same exception type.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.io import canonical_json


def reference(value):
    return json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode(
        value
    )


def outcome(encode, value):
    """The text, or the type of what encoding raised."""
    try:
        return encode(value)
    except Exception as error:  # compared, not swallowed
        return type(error)


_FLOATS = [
    -0.0, 0.0, 5e-324, 1e16, 1e22, 1.5, -2.25, 0.1,
    math.inf, -math.inf, math.nan,
    np.float64(0.1), np.float64(1e22), np.float64(-0.0),
]
_strings = st.one_of(
    st.text(max_size=8),
    st.text(st.characters(max_codepoint=0x1F), max_size=4),
    st.text(st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF,
                          blacklist_categories=()), max_size=3),
    st.sampled_from(["", "é", "日本", "\x00", " ", '"\\/', "\U0001F600"]),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.sampled_from(_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    _strings,
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_strings, inner, max_size=4),
        st.dictionaries(st.integers(-50, 50), inner, max_size=4),
    ),
    max_leaves=20,
)


@given(_values)
def test_canonical_text_equals_the_reference_encoder(value):
    assert outcome(canonical_json, value) == outcome(reference, value)


@pytest.mark.parametrize("value", _FLOATS + [True, False, None, 2**90, -7])
def test_scalars_at_top_level(value):
    assert canonical_json(value) == reference(value)
    assert canonical_json([value]) == reference([value])
    assert canonical_json({"k": value}) == reference({"k": value})


@pytest.mark.parametrize(
    "value", [{"b": 1, "a": [1, {"d": None, "c": "é"}]}, {3: "x", -1: "y"}]
)
def test_nested_objects_sort_their_keys(value):
    assert canonical_json(value) == reference(value)


@pytest.mark.parametrize(
    "value", [np.int64(3), {1, 2}, object(), [np.int64(3)], {"a": {2}}]
)
def test_unencodable_values_raise_type_error_on_both(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        canonical_json(value)


def test_mixed_key_types_raise_type_error_on_both():
    value = {1: "a", "b": 2}
    assert outcome(canonical_json, value) is TypeError
    assert outcome(reference, value) is TypeError
