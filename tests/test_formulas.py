import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from polynerve import named_formula, parse_formula, print_formula
from polynerve.errors import MissingParameter, ParseError, UnknownName
from polynerve.formulas import FALSE, TRUE, And, Formula, Imp, Neg, Or, Var


def test_parse_basics():
    assert parse_formula("p") == Var("p")
    assert parse_formula("p0 & q | r") == Or(And(Var("p0"), Var("q")), Var("r"))
    assert parse_formula("p->q->r") == Imp(Var("p"), Imp(Var("q"), Var("r")))
    assert parse_formula("(p->q)->r") == Imp(Imp(Var("p"), Var("q")), Var("r"))
    assert parse_formula("~p") == Imp(Var("p"), FALSE)
    assert parse_formula("T & F") == And(TRUE, FALSE)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_formula("p->")
    with pytest.raises(ParseError):
        parse_formula("(p")
    with pytest.raises(ParseError):
        parse_formula("p q")
    with pytest.raises(ParseError):
        parse_formula("P")  # variables are lowercase


def test_print_round_trip_examples():
    for text in ["~p|~~p", "(p->q)|(q->p)", "p&(q|r)", "p->q->r", "(p->q)->r"]:
        assert print_formula(parse_formula(text)) == text


def test_long_chains_print_without_recursion():
    for op in "|&":
        text = op.join(["p"] * 1200)
        phi = parse_formula(text)
        assert print_formula(phi) == text
        assert str(phi) == text
    phi = Var("p")
    for _ in range(1200):
        phi = Neg(phi)
    assert print_formula(phi) == "~" * 1200 + "p"


def _nested(depth):
    """A right spine of -> and a left spine alternating | and &, each
    `depth` deep, with the texts they print as."""
    p = Var("p")
    implication, chain, chain_text = p, p, "p"
    for i in range(depth):
        implication = Imp(p, implication)
        if i % 2:
            chain, chain_text = And(chain, p), f"({chain_text})&p"
        else:
            chain, chain_text = Or(chain, p), chain_text + "|p"
    return [(implication, "->".join(["p"] * (depth + 1))), (chain, chain_text)]


def test_deep_spines_print_without_recursion():
    for phi, text in _nested(1200):
        assert print_formula(phi) == text
        assert str(phi) == text
    # below the parser's nesting limit both round-trip
    for phi, text in _nested(300):
        assert parse_formula(print_formula(phi)) == phi


def test_pickled_formula_rehashes_in_a_new_process():
    # the cached hash depends on the process (type identity, string hash
    # seed), so a pickle carries only the fields and the node is rebuilt
    text = "(p->q)|~(r0&T)"
    script = (
        "import pickle, sys; from polynerve import parse_formula; "
        "phi = pickle.loads(sys.stdin.buffer.read()); "
        f"print(phi == parse_formula({text!r}) and {{phi: 1}}.get(parse_formula({text!r})) == 1)"
    )
    env = dict(os.environ, PYTHONHASHSEED="7", PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", script],
        input=pickle.dumps(parse_formula(text)),
        capture_output=True,
        env=env,
        check=True,
    ).stdout
    assert out.strip() == b"True"


def test_negation_resugars():
    assert print_formula(Imp(Var("p"), FALSE)) == "~p"
    assert print_formula(Neg(And(Var("a"), Var("b")))) == "~(a&b)"


def test_variables_sorted():
    assert parse_formula("q|p->p1").variables() == ("p", "p1", "q")


formulas = st.recursive(
    st.sampled_from([Var("p"), Var("q"), Var("r0"), TRUE, FALSE]),
    lambda leaf: st.one_of(
        st.builds(And, leaf, leaf),
        st.builds(Or, leaf, leaf),
        st.builds(Imp, leaf, leaf),
    ),
    max_leaves=12,
)


@given(formulas)
def test_round_trip_property(phi):
    assert parse_formula(print_formula(phi)) == phi


def test_named_formulas():
    assert print_formula(named_formula("KC")) == "~p|~~p"
    assert print_formula(named_formula("LC")) == "(p->q)|(q->p)"
    assert print_formula(named_formula("SL")) == "((~~p->p)->p|~p)->~p|~~p"
    assert print_formula(named_formula("BC", 1)) == "p0|(p0->p1)"
    assert print_formula(named_formula("BW", 1)) == "(p0->p1)|(p1->p0)"
    assert (
        print_formula(named_formula("BC", 2))
        == "p0|(p0->p1)|(p0&p1->p2)"
    )
    bw2 = named_formula("BW", 2)
    assert print_formula(bw2) == "(p0->p1|p2)|(p1->p0|p2)|(p2->p0|p1)"
    btw1 = named_formula("BTW", 1)
    assert print_formula(btw1) == "~(~p0&~p1)->(~p0->~p1)|(~p1->~p0)"


def test_named_formula_errors():
    with pytest.raises(UnknownName):
        named_formula("XYZ")
    with pytest.raises(MissingParameter):
        named_formula("BW")
