"""Every refusal from a public call is a PolynerveError: one row per refusal
that the rest of the suite does not reach, each naming the error class and
the start of its message. Refusals of malformed arguments are MalformedInput,
which stays a ValueError, and an out-of-range signature index stays an
IndexError, so callers that catch the builtins keep working. The one
builtin left is the LP's internal error. Every budget refusal is a
BudgetExceeded whose three fields survive pickling and copying."""
import argparse
import copy
import json
import pickle
import random
from fractions import Fraction as Fr

import pytest

import polynerve as pn
from polynerve import FinitePoset, PMorphism, Signature, starlike, validate_poset
from polynerve.cli import build_parser, cmd_census
from polynerve.errors import (
    BudgetExceeded,
    CycleDetected,
    DuplicateLabel,
    EmptyPoset,
    IndexOutOfRange,
    MalformedInput,
    NotComparable,
    ParseError,
    PolynerveError,
    SearchBudgetExceeded,
    SizeBudgetExceeded,
    UnknownElement,
)
from polynerve.exactla import lp_maximize
from polynerve.semantics import logic_validates

from conftest import make_antichain, make_chain

S = Signature.parse
EDGE = pn.validate_complex(pn.Simplex([(Fr(0),), (Fr(1),)]).faces())
FAR = pn.Simplex([(Fr(5),)])
DEEP = "[" * 200_000
DIAMOND = validate_poset(["r", "a", "b", "t"], [("r", "a"), ("r", "b"), ("a", "t"), ("b", "t")])


def _chain_map(mapping):
    """A map from the chain a < b onto the chain x < y."""
    source, target = validate_poset(["a", "b"], [("a", "b")]), validate_poset(["x", "y"], [("x", "y")])
    return PMorphism(source, target, frozenset(mapping), mapping)


REFUSALS = {
    "census size cap": (
        lambda: cmd_census(argparse.Namespace(size=9)), MalformedInput, "census size is capped at 8"
    ),
    "census negative samples": (
        lambda: cmd_census(build_parser().parse_args(["census", "--samples", "-3"])),
        MalformedInput,
        "census samples must be at least 0",
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
        "isomorphism search nodes: 1 over the budget of 0$",
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


def _starlike_tree_under(budget):
    """The 6-element starlike tree of 3.1^2, its size cap set to ``budget``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(starlike, "SIZE_BUDGET", budget)
        return pn.starlike_tree(S("3.1^2"))


# one row per budget in the package, reached through public calls: the
# error class, then its fields (what, consumed, budget), or for a parse error
# its message and position
FIELDED = {
    "nerve": (lambda: pn.nerve(make_chain(2), budget=2), SizeBudgetExceeded, ("nerve elements", 3, 2)),
    "subdivision": (
        lambda: pn.barycentric_subdivision(EDGE, budget=4), SizeBudgetExceeded, ("subdivision simplices", 5, 4)
    ),
    "starlike tree": (
        lambda: pn.starlike_tree(S("1000000")), SizeBudgetExceeded, ("starlike tree elements", 1000001, 10**6)
    ),
    "chains": (
        lambda: list(make_chain(2).iter_chain_masks(budget=2)), SizeBudgetExceeded, ("chains", 3, 2)
    ),
    "isomorphism nodes": (
        lambda: pn.are_isomorphic(make_antichain(3), make_antichain(3), budget=1),
        SearchBudgetExceeded,
        ("isomorphism search nodes", 2, 1),
    ),
    "monotone surjection": (
        lambda: pn.exists_monotone_surjection(make_chain(3), make_chain(2), budget=1),
        SearchBudgetExceeded,
        ("monotone surjection search states", 2, 1),
    ),
    # the first two apexes of the 5-chain spend 0 and 12 states in vain, so
    # the third is refused on the total, not on what is left
    "up-reduction across apexes": (
        lambda: pn.find_up_reduction(make_chain(5), DIAMOND, budget=30),
        SearchBudgetExceeded,
        ("up-reduction search states", 31, 30),
    ),
    "valuations while listing": (
        lambda: pn.frame_validates(make_antichain(40), pn.parse_formula("p"), budget=1000),
        SizeBudgetExceeded,
        ("valuations", 1024, 1000),
    ),
    "valuations once listed": (
        lambda: pn.frame_validates(pn.starlike_tree(S("1^3")), pn.parse_formula("p|q"), budget=80),
        SizeBudgetExceeded,
        ("valuations", 81, 80),
    ),
    "valuations without variables": (
        lambda: pn.counter_valuation(make_chain(1), pn.parse_formula("T"), budget=0),
        SizeBudgetExceeded,
        ("valuations", 1, 0),
    ),
    "parse error": (lambda: pn.parse_formula("p &"), ParseError, ("formula ended unexpectedly", 3)),
}


def _fields(exc):
    if isinstance(exc, BudgetExceeded):
        return exc.what, exc.consumed, exc.budget
    return exc.args[0], exc.position


@pytest.mark.parametrize("call, error, fields", FIELDED.values(), ids=list(FIELDED))
def test_each_refusal_carries_its_fields_through_pickle_and_copy(call, error, fields):
    with pytest.raises(error) as info:
        call()
    exc = info.value
    assert isinstance(exc, BudgetExceeded) == (error is not ParseError)
    assert exc.args == _fields(exc) == fields
    if error is ParseError:
        assert str(exc) == "{} (at position {})".format(*fields)
    else:
        assert str(exc) == "{}: {} over the budget of {}".format(*fields)
    for twin in (pickle.loads(pickle.dumps(exc)), copy.copy(exc), copy.deepcopy(exc)):
        assert type(twin) is error and _fields(twin) == fields and str(twin) == str(exc)


@pytest.mark.parametrize(
    "build, consumed",
    [
        (lambda budget: pn.nerve(make_chain(2), budget=budget), 3),
        (lambda budget: pn.barycentric_subdivision(EDGE, budget=budget), 5),
        (_starlike_tree_under, 6),
    ],
    ids=["nerve", "subdivision", "starlike tree"],
)
def test_a_counted_size_refuses_one_below_its_count(build, consumed):
    # these sizes are counted before anything is built, so the count is exact
    assert len(build(consumed)) == consumed
    with pytest.raises(SizeBudgetExceeded) as info:
        build(consumed - 1)
    assert (info.value.consumed, info.value.budget) == (consumed, consumed - 1)


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
