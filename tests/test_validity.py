"""Frame validity of formulas: the pruned staged evaluator against the
former staged search and the former one-valuation-at-a-time search, its
budget, formulas too long or too deep for recursion, and the paper's starlike
axioms checked through formula semantics rather than through the
characterisation."""
import random

import pytest

import polynerve as pn
from polynerve import Signature, named_formula, parse_formula
from polynerve.errors import ParseError, SizeBudgetExceeded
from polynerve.formulas import Neg, Var
from polynerve.randposets import random_rooted_poset
from polynerve.semantics import VALUATION_BUDGET

from conftest import (
    make_antichain,
    make_chain,
    naive_counter_valuation,
    sample_posets,
    staged_counter_valuation,
)

S = Signature.parse

FORMULAS = {
    "KC": named_formula("KC"),
    "LC": named_formula("LC"),
    "SL": named_formula("SL"),
    "BW2": named_formula("BW", 2),
    "BW3": named_formula("BW", 3),
    "BC2": named_formula("BC", 2),
    "BC3": named_formula("BC", 3),
    "BTW2": named_formula("BTW", 2),
    "T": parse_formula("T"),
    "F": parse_formula("F"),
    "shared": parse_formula("((p->q)&(p->q)|~(p->q))->(q->p)|r|F"),
}


def outcome(search, poset, phi, budget):
    try:
        return search(poset, phi, budget=budget)
    except SizeBudgetExceeded:
        return SizeBudgetExceeded


def test_staged_search_matches_the_former_search():
    frames = sample_posets(110, 7, seed=101, rooted=True) + sample_posets(110, 7, seed=103)
    seen = set()
    for poset in frames:
        upsets = len(pn.UpsetAlgebra(poset).elements)
        for name, phi in FORMULAS.items():
            count = upsets ** len(phi.variables())
            # one valuation short of the count both refuse; at the count (if
            # the former search can afford it) both answer
            for budget in (count - 1, min(count, 500)):
                expected = outcome(naive_counter_valuation, poset, phi, budget)
                assert outcome(pn.counter_valuation, poset, phi, budget) == expected, (name, budget)
                seen.add((name, "refused" if expected is SizeBudgetExceeded else expected is None))
    assert {outcome for _, outcome in seen} == {"refused", True, False}
    assert {name for name, _ in seen if name not in ("T", "F")} == set(FORMULAS) - {"T", "F"}


def test_wide_formulas_refuted_alike():
    # refutations of the three- and four-variable formulas need frames with
    # more valuations than the sampled comparison lets the former search try
    fork3, fork4 = pn.starlike_tree(S("1^3")), pn.starlike_tree(S("1^4"))
    for poset, names in [(fork3, "BW2 BC2 BC3 BTW2"), (fork4, "BW3 BTW2"), (make_chain(5), "BC3")]:
        for name in names.split():
            expected = naive_counter_valuation(poset, FORMULAS[name])
            assert expected is not None
            assert pn.counter_valuation(poset, FORMULAS[name]) == expected, name


def test_pruned_search_matches_both_oracles():
    """The interval cuts skip or settle whole subtrees of valuations without
    visiting them; the result, counter-valuation included, must be the one
    both former searches find by visiting every valuation before it."""
    searches = (pn.counter_valuation, staged_counter_valuation, naive_counter_valuation)

    def agree(poset, phi, budget):
        results = [outcome(search, poset, phi, budget) for search in searches]
        assert results[1:] == results[:-1], (phi, poset.to_json())
        return results[0]

    # in these the last variables occur only where F or T absorbs them, so
    # the bounds see every completion of a refuting prefix refute, and the
    # search returns at once with those variables empty
    absorbing = {
        "vacuous": parse_formula("(q|T)->p"),
        "absorbed": parse_formula("p|~p|q&F"),
        "absorbed LC": parse_formula("(p->q)|(q->p)|r&F"),
    }
    # the naive search tries one valuation at a time, so on the small frames
    # the budget keeps it short; the three refuse alike beyond it
    seen = set()
    for poset in sample_posets(100, 7, seed=107, rooted=True) + sample_posets(100, 7, seed=113):
        for name, phi in {**FORMULAS, **absorbing}.items():
            result = agree(poset, phi, 2000)
            seen.add((name, "refused" if result is SizeBudgetExceeded else result is None))
    assert {outcome for _, outcome in seen} == {"refused", True, False}
    refuted = {name for name, outcome in seen if outcome is False}
    assert refuted == set(FORMULAS) - {"T", "BW3"} | set(absorbing)
    # rooted frames of 8-11 elements at the default budget, which 57 of the
    # 60 fit: their refutations lie deep in the valuation order
    rng = random.Random(3)
    wide = [random_rooted_poset(rng.randint(8, 11), rng, 0.25) for _ in range(60)]
    answered = 0
    for poset in wide:
        for name in ("BW2", "BC2"):
            answered += agree(poset, FORMULAS[name], VALUATION_BUDGET) is not SizeBudgetExceeded
    assert answered == 2 * 57


def test_budget_is_checked_while_the_upsets_are_listed():
    # 2^40 upsets: listing them all before counting would never finish
    big = make_antichain(40)
    with pytest.raises(SizeBudgetExceeded):
        pn.frame_validates(big, parse_formula("p"), budget=1000)
    # no variables, one valuation, no upset needed
    assert pn.frame_validates(big, parse_formula("T"))
    assert not pn.frame_validates(big, parse_formula("F"))


CENSUS = ("KC", "LC", "SL", "BW2", "BC2")


def test_one_algebra_answers_every_call_order_alike():
    """One poset object takes a shuffled run of validity calls, refusals
    before its first finished listing included; each answer and refusal
    class is the former search's on a fresh copy of the frame."""
    rng = random.Random(19)
    refused_unlisted = refused_listed = 0
    for poset in sample_posets(30, 5, seed=127, rooted=True) + sample_posets(30, 5, seed=131):
        upsets = len(pn.UpsetAlgebra(poset).elements)
        counts = {name: upsets ** len(FORMULAS[name].variables()) for name in CENSUS}
        calls = [(name, budget) for name in CENSUS for budget in (counts[name] - 1, counts[name], 10**7)]
        rng.shuffle(calls)
        algebra = poset._upset_algebra
        for name, budget in calls:
            listed = algebra._table is not None
            fresh = pn.FinitePoset.from_json(poset.to_json())
            expected = outcome(naive_counter_valuation, fresh, FORMULAS[name], budget)
            assert outcome(pn.counter_valuation, poset, FORMULAS[name], budget) == expected, (name, budget)
            if expected is SizeBudgetExceeded:
                refused_listed += listed
                refused_unlisted += not listed
        assert poset._upset_algebra is algebra and len(algebra._table) == upsets
    assert refused_unlisted and refused_listed


def test_one_listing_serves_every_validity_question(monkeypatch):
    listings = []
    upsets = pn.UpsetAlgebra.upsets

    def counted(algebra, k=0, budget=None):
        if algebra._table is None:
            listings.append(algebra.poset)
        return upsets(algebra, k, budget)

    monkeypatch.setattr(pn.UpsetAlgebra, "upsets", counted)
    frame = pn.starlike_tree(S("2.1"))
    answers = [pn.frame_validates(frame, FORMULAS[name]) for name in CENSUS * 2]
    assert listings == [frame]
    fresh = pn.starlike_tree(S("2.1"))
    assert answers == [naive_counter_valuation(fresh, FORMULAS[name]) is None for name in CENSUS * 2]
    assert True in answers and False in answers


def test_a_refused_listing_keeps_no_table():
    big = make_antichain(40)
    with pytest.raises(SizeBudgetExceeded, match="at least 1024 valuations"):
        pn.frame_validates(big, parse_formula("p"), budget=1000)
    assert big._upset_algebra._table is None
    # the fork 1^3 has 9 upsets: a listing that finishes over the budget is
    # not kept either, and a kept one refuses with its exact count
    fork, p = pn.starlike_tree(S("1^3")), parse_formula("p")
    with pytest.raises(SizeBudgetExceeded, match="^9 valuations exceed the budget of 8$"):
        pn.frame_validates(fork, p, budget=8)
    assert fork._upset_algebra._table is None
    assert not pn.frame_validates(fork, p, budget=9)
    assert len(fork._upset_algebra._table) == 9
    with pytest.raises(SizeBudgetExceeded, match="^81 valuations exceed the budget of 80$"):
        pn.frame_validates(fork, parse_formula("p|q"), budget=80)


@pytest.mark.parametrize("op", ["|", "&"], ids=["disjunction", "conjunction"])
def test_flat_1200_term_chains_are_decided(op):
    # a chain of one connective parses into a left-deep tree 1200 nodes deep;
    # hashing, variables() and the flattening walk it without recursion
    point, fork = make_chain(1), pn.starlike_tree(S("1^2"))
    text = op.join(["p"] * 1200)
    chain = parse_formula(text)
    assert chain.variables() == ("p",)
    assert chain == parse_formula(text) and hash(chain) == hash(parse_formula(text))
    # two equal halves built apart: flattening merges them by value
    halves = parse_formula(f"({text})&({text})")
    assert pn.counter_valuation(fork, halves) == pn.counter_valuation(fork, Var("p"))
    for frame in (point, fork):
        assert pn.counter_valuation(frame, chain) == pn.counter_valuation(frame, Var("p"))
    # with excluded middle appended it holds exactly on the classical frame
    middle = parse_formula(text + "|~p")
    assert pn.frame_validates(point, middle)
    assert pn.counter_valuation(fork, middle) == pn.counter_valuation(fork, parse_formula("p|~p"))
    assert pn.counter_valuation(fork, middle) is not None


def test_deep_nesting_is_refused_by_the_parser_but_evaluated_when_built():
    nested = ["~" * 501 + "p", "->".join(["p"] * 502), "(" * 600 + "p" + ")" * 600]
    for text in nested:
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_formula(text)
    fork = pn.starlike_tree(S("1^2"))
    negated = pn.counter_valuation(fork, parse_formula("~p"))
    assert pn.counter_valuation(fork, parse_formula("~" * 499 + "p")) == negated
    assert pn.frame_validates(fork, parse_formula("->".join(["p"] * 501)))
    # built through the API, 2001 negations evaluate like one
    phi = Var("p")
    for _ in range(2001):
        phi = Neg(phi)
    assert pn.counter_valuation(fork, phi) == negated


def test_starlike_axioms_through_semantics():
    """KC and SL are the Jankov-Fine formulas of the fork 1^2 and of the
    Scott tree 2.1: a rooted frame validates one exactly when no upset of it
    reduces onto its tree, which for 2.1 is 2.1-connectedness."""
    sl, kc = named_formula("SL"), named_formula("KC")
    fork = pn.starlike_tree(S("1^2"))
    seen_sl, seen_kc = set(), set()
    for poset in sample_posets(300, 7, seed=109, rooted=True):
        valid_sl = pn.frame_validates(poset, sl)
        assert valid_sl == pn.is_alpha_connected(poset, S("2.1"))
        valid_kc = pn.frame_validates(poset, kc)
        assert valid_kc == (pn.find_up_reduction(poset, fork) is None)
        seen_sl.add(valid_sl)
        seen_kc.add(valid_kc)
    assert seen_sl == seen_kc == {True, False}
