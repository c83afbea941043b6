"""Frame validity of formulas: the staged evaluator against the former
one-valuation-at-a-time search, its budget, and the paper's starlike axioms
checked through formula semantics rather than through the characterisation."""
import pytest

import polynerve as pn
from polynerve import Signature, named_formula, parse_formula
from polynerve.errors import SizeBudgetExceeded

from conftest import make_antichain, make_chain, naive_counter_valuation, sample_posets

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


def test_budget_is_checked_while_the_upsets_are_listed():
    # 2^40 upsets: listing them all before counting would never finish
    big = make_antichain(40)
    with pytest.raises(SizeBudgetExceeded):
        pn.frame_validates(big, parse_formula("p"), budget=1000)
    # no variables, one valuation, no upset needed
    assert pn.frame_validates(big, parse_formula("T"))
    assert not pn.frame_validates(big, parse_formula("F"))


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
