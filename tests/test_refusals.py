"""Every refusal from a public call is a PolynerveError: one row per refusal
that the rest of the suite does not reach, each naming the error class and
the start of its message. Refusals of malformed arguments are MalformedInput,
which stays a ValueError, and an out-of-range signature index stays an
IndexError, so callers that catch the builtins keep working. The one
builtin left is the LP's internal error."""
import argparse
import json
import random
from fractions import Fraction as Fr

import pytest

import polynerve as pn
from polynerve import FinitePoset, PMorphism, Signature, validate_poset
from polynerve.cli import cmd_census
from polynerve.errors import (
    CycleDetected,
    DuplicateLabel,
    EmptyPoset,
    IndexOutOfRange,
    MalformedInput,
    NotComparable,
    PolynerveError,
    SearchBudgetExceeded,
    UnknownElement,
)
from polynerve.exactla import lp_maximize
from polynerve.semantics import logic_validates

from conftest import make_chain

S = Signature.parse
EDGE = pn.validate_complex(pn.Simplex([(Fr(0),), (Fr(1),)]).faces())
FAR = pn.Simplex([(Fr(5),)])
DEEP = "[" * 200_000


def _chain_map(mapping):
    """A map from the chain a < b onto the chain x < y."""
    source, target = validate_poset(["a", "b"], [("a", "b")]), validate_poset(["x", "y"], [("x", "y")])
    return PMorphism(source, target, frozenset(mapping), mapping)


REFUSALS = {
    "census size cap": (
        lambda: cmd_census(argparse.Namespace(size=9)), MalformedInput, "census size is capped at 8"
    ),
    "complex vertex dim": (
        lambda: pn.RationalComplex.from_json('{"dim": 2, "vertices": [[[0, 1]]], "simplices": [[0]]}'),
        MalformedInput,
        "vertex dimension disagrees",
    ),
    "open star of a stranger": (lambda: pn.open_star(EDGE, FAR), UnknownElement, "open star is only"),
    "barycentric at a stranger": (
        lambda: pn.elementary_barycentric(EDGE, FAR), UnknownElement, "can only subdivide"
    ),
    "farey at a stranger": (lambda: pn.elementary_farey(EDGE, FAR), UnknownElement, "can only take"),
    "open set of a stranger": (
        lambda: pn.OpenPolyhedralSet(EDGE, [FAR]), UnknownElement, "<5> is not in the complex"
    ),
    "map off its domain": (
        lambda: PMorphism(make_chain(1), make_chain(1), frozenset(["x0"]), {}),
        UnknownElement,
        "mapping must be defined exactly on the domain",
    ),
    "misaligned composition": (
        lambda: pn.compose(_chain_map({"a": "x", "b": "y"}), _chain_map({"a": "x", "b": "y"})),
        UnknownElement,
        "composition needs",
    ),
    "isomorphism budget": (
        lambda: pn.are_isomorphic(make_chain(2), make_chain(2), budget=0),
        SearchBudgetExceeded,
        "isomorphism search exceeded 0 nodes",
    ),
    "duplicate labels": (lambda: FinitePoset(["a", "a"], [1, 2]), DuplicateLabel, "element labels"),
    "unknown edge end": (lambda: validate_poset(["a"], [("a", "b")]), UnknownElement, "edge endpoint 'b'"),
    "self-loop": (lambda: validate_poset(["a"], [("a", "a")]), CycleDetected, "self-loop at 'a'"),
    "graded empty": (lambda: pn.is_graded(validate_poset([], [])), EmptyPoset, "gradedness of the empty"),
    "diamond downwards": (
        lambda: pn.diamond(make_chain(2), "x1", "x0"), NotComparable, "'x1' < 'x0' does not hold"
    ),
    "missing relation row": (lambda: FinitePoset(["a"], []), MalformedInput, "one relation row per element"),
    "irreflexive row": (lambda: FinitePoset(["a"], [0]), MalformedInput, "relation not reflexive at element 0"),
    "intransitive rows": (
        lambda: FinitePoset(["a", "b", "c"], [0b011, 0b110, 0b100]),
        MalformedInput,
        "relation not transitive at 0 <= 1",
    ),
    "negative nerve count": (lambda: pn.iterated_nerve(make_chain(2), -1), MalformedInput, "nerve iteration"),
    "negative subdivision depth": (lambda: pn.derived(EDGE, -1), MalformedInput, "the subdivision depth"),
    "negative depth bound": (lambda: pn.validates_bd(make_chain(2), -1), MalformedInput, "the depth bound"),
    "BD without bound": (lambda: logic_validates(make_chain(2), "BD"), MalformedInput, "BD needs a bound"),
    "BD with a word": (lambda: logic_validates(make_chain(2), "BD:x"), MalformedInput, "invalid literal"),
    "SFL without signatures": (lambda: logic_validates(make_chain(2), "SFL: ,"), MalformedInput, "SFL needs"),
    "unknown logic": (lambda: logic_validates(make_chain(2), "KC:1"), MalformedInput, "unknown logic 'KC:1'"),
    "zero signature entry": (
        lambda: Signature(((0, 1),)), MalformedInput, r"signature entries must be positive, got 0\^1"
    ),
    "bad signature text": (lambda: S("2.x"), MalformedInput, "bad signature component 'x'"),
    "signature index": (lambda: S("2.1").at(3), IndexOutOfRange, r"signature index 3 out of range 1\.\.2"),
    "empty random poset": (lambda: pn.random_poset(0, random.Random(0)), MalformedInput, "poset size must"),
    "BTW at zero": (lambda: pn.named_formula("BTW", 0), MalformedInput, "BTW needs n >= 1"),
    "poset text not JSON": (
        lambda: FinitePoset.from_json("not json"), MalformedInput, "poset JSON is malformed: Expecting value"
    ),
    "complex text not JSON": (
        lambda: pn.RationalComplex.from_json("not json"), MalformedInput, "complex JSON is malformed: Expecting value"
    ),
    "p-morphism text not JSON": (
        lambda: PMorphism.from_json("not json", make_chain(1), make_chain(1)),
        MalformedInput,
        "p-morphism JSON is malformed: Expecting value",
    ),
    "poset JSON too deep": (
        lambda: FinitePoset.from_json(DEEP), MalformedInput, "poset JSON nests more than 500 levels deep"
    ),
    "complex JSON too deep": (
        lambda: pn.RationalComplex.from_json(DEEP), MalformedInput, "complex JSON nests more than 500 levels deep"
    ),
    "p-morphism JSON too deep": (
        lambda: PMorphism.from_json(DEEP, make_chain(1), make_chain(1)),
        MalformedInput,
        "p-morphism JSON nests more than 500 levels deep",
    ),
    "integer past the digit limit": (
        lambda: pn.RationalComplex.from_json('{"dim": ' + "9" * 5000 + "}"),
        MalformedInput,
        "complex JSON is malformed: Exceeds the limit",
    ),
    "unbounded LP": (
        lambda: lp_maximize([[1, -1]], [0], [1, 0]), RuntimeError, "internal error: LP unexpectedly unbounded"
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=list(REFUSALS))
def test_each_refusal_names_its_error(call, error, message):
    with pytest.raises(error, match=f"^{message}") as info:
        call()
    assert isinstance(info.value, PolynerveError) != (error is RuntimeError)
    if error is MalformedInput:
        assert isinstance(info.value, ValueError)
    if error is IndexOutOfRange:
        assert isinstance(info.value, IndexError)


def test_nesting_is_counted_outside_strings_and_up_to_the_limit():
    # brackets inside labels do not nest; 500 levels reach the reader's own
    # checks and 501 do not; a table of 300 vertices lists over 500 brackets
    # at depth 4
    label = "[" * 600 + "{"
    assert FinitePoset.from_json(json.dumps({"elements": [label], "edges": []})).labels == (label,)
    with pytest.raises(MalformedInput, match="^poset JSON must be an object"):
        FinitePoset.from_json("[" * 500 + "]" * 500)
    with pytest.raises(MalformedInput, match="^poset JSON nests more than 500 levels deep"):
        FinitePoset.from_json("[" * 501 + "]" * 501)
    table = json.dumps({"dim": 1, "vertices": [[[i, 1]] for i in range(300)], "simplices": [[0, 1]]})
    assert len(pn.RationalComplex.from_json(table)) == 3
