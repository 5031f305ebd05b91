"""The canonical JSON encoder, and the one decoding policy for JSON read
from outside the process: no NaN and no infinity, either way."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoprobe import canonical
from geoprobe.actions import extract_json_object
from geoprobe.canonical import (NonFiniteNumberError, Raw, canonical_compose, canonical_json,
                                parse_json)

#: JSON trees: non-ASCII and control-character strings, integers past 64
#: bits, finite floats, and nesting.
TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2 ** 100), 2 ** 100)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)

#: Both of ``_canonical_encoder``'s encoders: CPython's C encoder object
#: and the pure-Python one ``json`` falls back to where the interpreter has none.
ENCODERS = {"c": canonical._canonical_encoder(), "python": canonical._canonical_encoder(None)}
#: ``canonical_compose``, and the same composer built on the pure-Python encoder.
COMPOSERS = {"c": canonical_compose,
             "python": canonical._canonical_encoder(None, canonical._raw_or_string)}


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False)


def test_the_c_encoder_is_the_one_in_use():
    assert json.encoder.c_make_encoder is not None
    assert canonical._encode.__qualname__ == "_canonical_encoder.<locals>.encode"


@settings(max_examples=50)
@given(TREES)
def test_canonical_json_is_json_dumps_in_canonical_form(tree):
    expected = reference(tree)
    assert canonical_json(tree) == expected
    assert ENCODERS["python"](tree) == expected
    assert parse_json(expected) == tree


def with_fragments(tree, draw):
    """``tree`` with drawn subtrees, or the whole of it, replaced by their
    canonical JSON as ``Raw`` fragments."""
    if draw(st.booleans()):
        return Raw(canonical_json(tree))
    if type(tree) is list:
        return [with_fragments(item, draw) for item in tree]
    if type(tree) is dict:
        return {key: with_fragments(value, draw) for key, value in tree.items()}
    return tree


@pytest.mark.parametrize("compose", COMPOSERS.values(), ids=COMPOSERS)
@settings(max_examples=50)
@given(tree=TREES, data=st.data())
def test_composing_raw_fragments_gives_the_bytes_of_the_whole(compose, tree, data):
    assert compose(with_fragments(tree, data.draw)) == canonical_json(tree)


def test_canonical_json_encodes_a_fragment_as_the_string_it_is():
    fragment = Raw('{"a":[1]}')
    assert canonical_json([fragment]) == '["{\\"a\\":[1]}"]'
    assert canonical_compose([fragment]) == '[{"a":[1]}]'
    assert type(canonical_compose([fragment])) is Raw


@pytest.mark.parametrize("encoder", ENCODERS.values(), ids=ENCODERS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_raise_value_error(encoder, value):
    for obj in (value, [1, value], {"a": {"b": value}}):
        with pytest.raises(ValueError):
            encoder(obj)


@pytest.mark.parametrize("encoder", ENCODERS.values(), ids=ENCODERS)
def test_unencodable_values_raise_type_error(encoder):
    with pytest.raises(TypeError, match="not JSON serializable"):
        encoder({"a": object()})


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "-2.5E+400"])
def test_parse_json_rejects_non_finite_numbers_where_they_stand(token):
    text = '{"a": "NaN, Infinity, 1e999",\n "b": [1, {"c": 2.5, "d": ' + token + "}]}"
    with pytest.raises(NonFiniteNumberError) as ei:
        parse_json(text)
    e = ei.value
    assert isinstance(e, json.JSONDecodeError)
    assert e.pos == text.rindex(token)
    assert (e.lineno, e.colno) == (2, e.pos - text.index("\n"))
    assert e.path == ("b", 1, "d")
    assert str(e).startswith(f"{token} is not a finite JSON number (at b[1].d): line 2")


def test_parse_json_from_start_rejects_a_non_finite_value():
    text = "reply: {\"k\": NaN}"
    with pytest.raises(NonFiniteNumberError) as ei:
        parse_json(text, text.index("{"))
    assert ei.value.pos == text.index("NaN") and ei.value.path == ("k",)


def test_parse_json_keeps_finite_numbers_and_strings_that_name_constants():
    doc = '{"x": [1e308, -0.0, 12345678901234567890], "y": "NaN Infinity"}'
    assert parse_json(doc) == {"x": [1e308, -0.0, 12345678901234567890], "y": "NaN Infinity"}


def test_extract_json_object_skips_a_candidate_holding_nan():
    text = 'first {"version": "1", "score": NaN} then {"version": "1", "actions": []} done'
    value, (start, end) = extract_json_object(text)
    assert value == {"version": "1", "actions": []}
    assert text[start:end] == '{"version": "1", "actions": []}'
