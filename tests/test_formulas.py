import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from polynerve import formulas as formula_module, named_formula, parse_formula, print_formula
from polynerve.errors import MissingParameter, ParseError, UnknownName
from polynerve.formulas import FALSE, TRUE, And, Formula, Imp, Neg, Or, Var

from conftest import recursive_parse_formula


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


def _parsed(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.position


def _random_texts(rng, count):
    """Token strings, printed formulas and printed formulas with one token
    dropped, doubled or swapped, all shallow enough for the recursive
    oracle."""
    tokens = ["p", "q", "x1", "T", "F", "(", ")", "~", "&", "|", "->", " "]
    for _ in range(count):
        weights = [rng.random() for _ in tokens]
        text = "".join(rng.choices(tokens, weights=weights, k=rng.randint(0, 30)))
        if rng.random() < 0.5:
            words = formula_module._tokenize(print_formula(_random_formula(rng, 6)))
            words = [w for w, _ in words]
            if words and rng.random() < 0.75:
                k = rng.randrange(len(words))
                words[k : k + 1] = rng.choice([[], [words[k]] * 2, [rng.choice(tokens)]])
            text = " ".join(words)
        yield text


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([Var("p"), Var("q"), TRUE, FALSE])
    kind = rng.choice([And, Or, Imp, Neg])
    if kind is Neg:
        return Neg(_random_formula(rng, depth - 1))
    return kind(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


@pytest.mark.parametrize("nesting", [formula_module.MAX_NESTING, 3])
def test_parser_matches_recursive_oracle(monkeypatch, nesting):
    # same formula, or the same message at the same position; at a nesting
    # limit of 3 many inputs are refused as too deep
    monkeypatch.setattr(formula_module, "MAX_NESTING", nesting)
    rng = random.Random(71 + nesting)
    outcomes = set()
    for text in _random_texts(rng, 6000):
        got = _parsed(parse_formula, text)
        assert got == _parsed(recursive_parse_formula, text), text
        outcomes.add(got[0].rsplit(" (at", 1)[0].split(" '")[0] if isinstance(got, tuple) else "parsed")
    assert len(outcomes) == (5 if nesting > 3 else 6), outcomes


def test_nesting_limit_counts_each_open_level():
    limit = formula_module.MAX_NESTING
    for opener, closer in [("(", ")"), ("~", ""), ("p->", "")]:
        deepest = opener * limit + "p" + closer * limit
        assert isinstance(parse_formula(deepest), Formula)
        with pytest.raises(ParseError, match="nested too deeply") as info:
            parse_formula(opener + deepest + closer)
        assert info.value.position == len(opener) * (limit + 1)


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


def test_each_text_is_parsed_once_per_nesting_limit(monkeypatch):
    texts = ["~p|~~p", "(p->q)|(q->p)", "p&(q|r)", " p ", "T"]
    for text in texts:
        phi = parse_formula(text)
        assert parse_formula(text) is phi
        assert phi == recursive_parse_formula(text)
    # a refusal is raised afresh, with the same message and position, each time
    for text in ["p->", "(p", "p q", "P", "~(p&)"]:
        refusals = [_parsed(parse_formula, text) for _ in range(3)]
        assert refusals == [_parsed(recursive_parse_formula, text)] * 3
        assert isinstance(refusals[0], tuple)
    too_deep = "(" * 501 + "p" + ")" * 501
    assert [_parsed(parse_formula, too_deep)[1] for _ in range(3)] == [501] * 3
    # a text parsed under the limit of 500 is refused once the limit is 3
    deep = "((((p))))"
    phi = parse_formula(deep)
    monkeypatch.setattr(formula_module, "MAX_NESTING", 3)
    with pytest.raises(ParseError, match="nested too deeply") as info:
        parse_formula(deep)
    assert (str(info.value), info.value.position) == _parsed(recursive_parse_formula, deep)
    assert parse_formula("(((p)))") == Var("p")
    monkeypatch.undo()
    assert parse_formula(deep) is phi


def test_parse_memo_drops_old_texts_and_keeps_answers():
    rng = random.Random(97)
    kept = formula_module._PARSED_KEPT
    texts = [print_formula(_random_formula(rng, 5)) for _ in range(3 * kept)]
    assert len(set(texts)) > kept
    first = {text: parse_formula(text) for text in texts}
    for text in reversed(texts):  # the oldest texts were dropped and are parsed again
        assert parse_formula(text) == first[text] == recursive_parse_formula(text)
    assert formula_module._parsed.cache_info().currsize == kept


def test_repr_names_every_field():
    # the text the former dataclass nodes printed
    assert repr(Var("p")) == "Var(name='p')"
    assert repr(FALSE) == "Const(value=False)"
    assert repr(Neg(Var("p"))) == "Imp(left=Var(name='p'), right=Const(value=False))"
    assert repr(parse_formula("p0&T|q")) == (
        "Or(left=And(left=Var(name='p0'), right=Const(value=True)), right=Var(name='q'))"
    )
    assert repr(Imp(Var("p"), "q")) == "Imp(left=Var(name='p'), right='q')"


DEEP_REPR_SCRIPT = """
import sys
from polynerve import parse_formula
from polynerve.formulas import And, Imp, Var

sys.setrecursionlimit(120)
var = "Var(name='p')"
assert repr(parse_formula("p->" * 499 + "p")) == ("Imp(left=" + var + ", right=") * 499 + var + ")" * 499
phi = Var("p")
for _ in range(100):
    phi = Imp(phi, Var("p"))
assert repr(phi) == "Imp(left=" * 100 + var + (", right=" + var + ")") * 100
assert repr(parse_formula("&".join(["p"] * 1200))) == "And(left=" * 1199 + var + (", right=" + var + ")") * 1199
print("ok")
"""


def test_repr_of_deep_formulas_does_not_recurse():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", DEEP_REPR_SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


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
