"""Property tests for the JSON wire path: ``json_text`` writes exactly what
``json.dumps(..., indent=2)`` writes, a system written directly from its
monomials reads as its ``system_to_json`` dict would, an MPS system
serializes to the same bytes after a parse round trip or with its terms
reordered, and
``detect_zero_variables`` finds the least fixpoint of the "some monomial is
all positive" rule."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lfpsolve import (
    Monomial,
    MonotoneSystem,
    detect_zero_variables,
    parse_mps,
    serialize_mps,
    system_of,
    system_to_json,
)
from lfpsolve.mps import json_text

# Control characters, escapes, non-ASCII, an astral character and a lone
# surrogate, mixed into otherwise arbitrary text.
TRICKY = "\x00\x01\x1f\x7f\"\\/\b\f\n\r\t é€ 😀\ud800"
strings = st.text() | st.text(st.sampled_from(TRICKY)) | st.text(st.characters(exclude_categories=()))
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**300), 2**300)
    | st.floats(allow_nan=True, allow_infinity=True)
    | strings
)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(strings, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(json_values)
@example("")
@example([])
@example({})
@example([[], {}, [[{}]]])
@example({"": {"": []}})
@example([float("nan"), float("inf"), float("-inf"), -0.0, 1e300])
@example([True, False, None, 0, -1, 2**200])
@example({"t": True, "f": False, "n": None, "deep": [[None, {"": False}], (True,)]})
def test_emitter_matches_indented_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_emitter_raises_where_json_cannot_write():
    with pytest.raises(TypeError):
        json_text({"x": [object()]})
    with pytest.raises(TypeError):
        json_text({1: "x"})


@st.composite
def systems(draw, max_exponent=5):
    """Arbitrary monotone systems: any names, big coefficients, any degree,
    empty equations and repeated monomials."""
    name = st.text(min_size=1, max_size=4) | strings.filter(bool)
    names = draw(st.lists(name, min_size=1, max_size=6, unique=True))
    n = len(names)
    coefficient = st.builds(Fraction, st.integers(1, 2**70), st.integers(1, 2**70))
    powers = st.dictionaries(st.integers(0, n - 1), st.integers(1, max_exponent), max_size=3)
    equations = []
    for _ in range(n):
        terms = draw(st.lists(st.tuples(coefficient, powers), max_size=4))
        equations.append(tuple(Monomial(c, tuple(sorted(p.items()))) for c, p in terms))
    return MonotoneSystem(tuple(names), tuple(equations))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(systems())
def test_serialization_is_canonical(system):
    text = serialize_mps(system)
    assert serialize_mps(parse_mps(text)) == text
    reordered = MonotoneSystem(system.names, tuple(terms[::-1] for terms in system.equations))
    assert serialize_mps(reordered) == text
    assert text == json.dumps(json.loads(text), indent=2)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(systems())
@example(MonotoneSystem((), ()))
@example(system_of(["x", "y"], [], [("1/3", {}), ("2", {})]))
@example(
    system_of(
        ["a", "b"],
        [("1/2", {"a": 2}), ("1/4", {"a": 1, "b": 1}), ("1/8", {"b": 2}), ("1", {})],
        [("1/3", {"a": 1, "b": 1}), ("1/5", {"a": 1, "b": 1}), ("3", {"b": 1}), ("2", {"b": 1})],
    )
)
@example(
    system_of(
        ["é", '"q\\', "\n\x00", "😀", "a b", "\ud800"],
        [("1/7", {"é": 1, "😀": 2, "\ud800": 1})],
        [("1", {'"q\\': 3})],
        [("2/3", {"\n\x00": 1}), ("1/9", {})],
        [],
        [("5", {"a b": 1, "é": 1})],
        [("1/2", {"\ud800": 2})],
    )
)
def test_system_writer_matches_the_dict_form(system):
    as_dict = system_to_json(system)
    assert serialize_mps(system) == json.dumps(as_dict, indent=2)
    doc = {"system": system, "more": [system, {"inner": system, "flag": True}], "none": None}
    as_dicts = {"system": as_dict, "more": [as_dict, {"inner": as_dict, "flag": True}], "none": None}
    assert json_text(doc) == json.dumps(as_dicts, indent=2)


def fixpoint_zero_set(system) -> frozenset:
    """Repeat full passes until no variable is newly marked positive."""
    positive: set = set()
    changed = True
    while changed:
        changed = False
        for i, terms in enumerate(system.equations):
            if i not in positive and any(all(v in positive for v, _ in m.exponents) for m in terms):
                positive.add(i)
                changed = True
    return frozenset(range(system.n)) - positive


@settings(max_examples=200, derandomize=True, deadline=None)
@given(systems(max_exponent=2))
def test_zero_variables_match_the_fixpoint_reference(system):
    assert detect_zero_variables(system) == fixpoint_zero_set(system)
