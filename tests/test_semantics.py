import os
import pickle
import random
import subprocess
import sys

import pytest

import polynerve as pn
from polynerve import Signature, parse_formula, print_formula, validate_poset
from polynerve import semantics
from polynerve.errors import ForbiddenSignature, PreconditionViolated, SizeBudgetExceeded
from polynerve.formulas import FALSE, TRUE, And, Imp, Neg, Or, Var
from polynerve.semantics import UpsetAlgebra

from conftest import (
    brute_upsets,
    interval_counter_valuation,
    make_antichain,
    make_chain,
    naive_counter_valuation,
    naive_evaluate,
    recursive_parse_formula,
    sample_posets,
    staged_counter_valuation,
)

S = Signature.parse


def test_upset_enumeration_matches_oracle():
    for poset in sample_posets(20, 6, seed=71):
        algebra = UpsetAlgebra(poset)
        mine = {poset.labels_of(m) for m in algebra.elements}
        assert mine == set(brute_upsets(poset))


def test_residuation_law():
    rng = random.Random(73)
    for poset in sample_posets(20, 7, seed=73):
        algebra = UpsetAlgebra(poset)
        ups = algebra.elements
        for _ in range(10):
            u, v, w = (rng.choice(ups) for _ in range(3))
            # w <= u -> v iff w & u <= v
            lhs = w & ~algebra.implies(u, v) == 0
            rhs = (w & u) & ~v == 0
            assert lhs == rhs
            # implications are upward closed
            imp = algebra.implies(u, v)
            assert all(
                poset.up_mask(i) & ~imp == 0
                for i in range(poset.n)
                if imp >> i & 1
            )


def test_frame_validates_basics(theta_frame):
    lc = parse_formula("(p->q)|(q->p)")
    kc = parse_formula("~p|~~p")
    assert pn.frame_validates(make_chain(2), lc)
    assert not pn.frame_validates(pn.starlike_tree(S("1^2")), kc)
    assert pn.frame_validates(theta_frame, parse_formula("p->p"))


def test_counter_valuation_is_a_witness():
    fork = pn.starlike_tree(S("1^2"))
    kc = parse_formula("~p|~~p")
    witness = pn.counter_valuation(fork, kc)
    assert witness is not None
    # the reported upset really refutes the formula
    algebra = UpsetAlgebra(fork)
    env = {name: fork.mask_of(members) for name, members in witness.items()}
    assert naive_evaluate(kc, env, algebra) != algebra.top


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Var("p"), Var("q"), Var("r"), TRUE, FALSE])
    kind = rng.choice([And, Or, Imp, Neg])
    if kind is Neg:
        return Neg(_random_formula(rng, depth - 1))
    return kind(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def test_shared_programs_match_both_oracles():
    # more distinct formulas than the program cache keeps, each asked on
    # several frames in an interleaved order, some as an equal formula that
    # is another object; an evicted program is built again
    rng = random.Random(101)
    kept = semantics._PROGRAMS_KEPT
    distinct = {}
    while len(distinct) <= kept + 40:
        phi = _random_formula(rng, 4)
        distinct.setdefault(phi, phi)
    formulas = list(distinct)
    frames = sample_posets(6, 4, seed=101) + sample_posets(6, 4, seed=103, rooted=True)
    asks = [(i, j) for i in range(len(formulas)) for j in rng.sample(range(len(frames)), 3)]
    rng.shuffle(asks)
    for n, (i, j) in enumerate(asks):
        phi, frame = formulas[i], frames[j]
        if n % 3 == 1:
            phi = pickle.loads(pickle.dumps(phi))  # equal, not identical
        elif n % 3 == 2:
            phi = recursive_parse_formula(print_formula(phi))
        assert phi == formulas[i]
        got = pn.counter_valuation(frame, phi)
        assert got == staged_counter_valuation(frame, phi), (print_formula(phi), frame)
        if n % 7 == 0:
            assert got == naive_counter_valuation(frame, phi), (print_formula(phi), frame)
    assert semantics._program.cache_info().currsize == kept


def _formula_over(rng, names, depth):
    """A random formula whose leaves are drawn from ``names`` and the two
    constants, so a name may repeat."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([*map(Var, names), TRUE, FALSE])
    kind = rng.choice([And, Or, Imp, Neg])
    if kind is Neg:
        return Neg(_formula_over(rng, names, depth - 1))
    return kind(_formula_over(rng, names, depth - 1), _formula_over(rng, names, depth - 1))


def test_kernels_match_the_interval_interpreter():
    # formulas over 0 to 4 variables, constants among the leaves, bare
    # variables and constants as whole formulas, and more distinct formulas
    # than the program cache keeps, asked in an interleaved order, so
    # evicted programs are compiled again
    rng = random.Random(109)
    kept = semantics._PROGRAMS_KEPT
    distinct = dict.fromkeys([Var("p"), Var("s"), TRUE, FALSE, Neg(Var("q"))])
    while len(distinct) <= kept + 60:
        names = ["p", "q", "r", "s"][: len(distinct) % 5]
        distinct.setdefault(_formula_over(rng, names, rng.randint(1, 5)))
    formulas = list(distinct)
    assert {len(phi.variables()) for phi in formulas} == {0, 1, 2, 3, 4}
    frames = sample_posets(5, 3, seed=109) + sample_posets(5, 4, seed=113, rooted=True)
    asks = [(phi, frame) for phi in formulas for frame in rng.sample(frames, 2)]
    rng.shuffle(asks)
    for n, (phi, frame) in enumerate(asks):
        got = pn.counter_valuation(frame, phi)
        assert got == interval_counter_valuation(frame, phi), (print_formula(phi), frame)
        assert got == staged_counter_valuation(frame, phi), (print_formula(phi), frame)
        if n % 7 == 0:
            assert got == naive_counter_valuation(frame, phi), (print_formula(phi), frame)
    assert semantics._program.cache_info().currsize == kept


def _kernels(phi):
    _, _, _, _, spans, innermost = semantics._program(phi)
    return [*spans, *([innermost] if innermost else [])]


def test_kernels_look_up_no_names_and_hold_only_node_positions():
    texts = ["T", "F->T", "p", "~p|~~p", "(p->q)|(q->p)", "((~~p->p)->p|~p)->~p|~~p", "p0|(p0->p1)|(p0&p1->p2)"]
    for phi in [parse_formula(text) for text in texts] + [Imp(Var("__import__"), Var("os"))]:
        for kernel in _kernels(phi):
            code = kernel.__code__
            assert code.co_names == ()
            assert all(c is None or type(c) is int for c in code.co_consts), code.co_consts


def test_variables_named_like_kernel_internals_evaluate():
    # the kernels' source holds node positions only, never a variable name
    names = ["__import__", "os", "lo", "top", "hi", "d", "imp", "L0"]
    rng = random.Random(127)
    frames = sample_posets(6, 4, seed=127) + [pn.starlike_tree(S("1^2"))]
    for _ in range(40):
        phi = _formula_over(rng, rng.sample(names, 3), 4)
        for frame in frames:
            got = pn.counter_valuation(frame, phi)
            assert got == interval_counter_valuation(frame, phi), print_formula(phi)
            assert got == naive_counter_valuation(frame, phi), print_formula(phi)
    lo, top = Var("lo"), Var("top")
    fork = pn.starlike_tree(S("1^2"))
    assert pn.counter_valuation(fork, Or(lo, Imp(lo, FALSE))) == {"lo": frozenset({"b1.1"})}
    assert pn.frame_validates(fork, Imp(And(lo, top), Or(top, Var("__import__"))))


DEEP_IMPLICATION_SCRIPT = """
import sys
import polynerve as pn
from polynerve import parse_formula, semantics

sys.setrecursionlimit(120)
fork = pn.starlike_tree(pn.Signature.parse("1^2"))
assert pn.frame_validates(fork, parse_formula("p->" * 499 + "p"))
assert pn.counter_valuation(fork, parse_formula("(" * 498 + "p" + "->p)" * 498)) == {"p": frozenset()}
assert all(not k.__code__.co_names for k in semantics._program(parse_formula("p->" * 499 + "p"))[4])
print("ok")
"""


def test_deep_implications_are_decided_without_recursion():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", DEEP_IMPLICATION_SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_census_axioms_share_programs_across_frames():
    texts = ["~p|~~p", "(p->q)|(q->p)", "((~~p->p)->p|~p)->~p|~~p", "p0|(p0->p1)|(p0&p1->p2)"]
    for frame in sample_posets(30, 5, seed=107, rooted=True):
        for text in texts:
            phi = parse_formula(text)
            assert semantics._program(phi) is semantics._program(recursive_parse_formula(text))
            assert pn.counter_valuation(frame, phi) == naive_counter_valuation(frame, phi)


def test_chains_validate_lc_forks_refute_kc():
    lc = parse_formula("(p->q)|(q->p)")
    for n in range(1, 5):
        assert pn.frame_validates(make_chain(n), lc)
    assert not pn.frame_validates(pn.starlike_tree(S("1^2")), lc)


def test_valuation_budget():
    big = make_antichain(10)
    phi = parse_formula("p&q&r->p1|p2|p3")
    with pytest.raises(SizeBudgetExceeded):
        pn.frame_validates(big, phi, budget=100)


def test_refutation_transports_along_up_reductions():
    # if f: F from an upset onto G and G refutes phi, then F refutes phi
    axioms = [parse_formula(t) for t in ("~p|~~p", "(p->q)|(q->p)")]
    hits = 0
    for poset in sample_posets(25, 6, seed=79):
        target = pn.starlike_tree(S("1^2"))
        witness = pn.find_up_reduction(poset, target)
        if witness is None:
            continue
        for phi in axioms:
            if not pn.frame_validates(target, phi):
                hits += 1
                assert not pn.frame_validates(poset, phi)
    assert hits


# -- validates_bd -----------------------------------------------------------------------


def test_validates_bd_examples():
    chain3 = make_chain(3)
    assert not pn.validates_bd(chain3, 2)
    assert pn.validates_bd(chain3, 3)
    assert pn.validates_bd(validate_poset(["x"], []), 1)
    assert not pn.validates_bd(validate_poset(["x"], []), 0)
    # the forbidden chain is capped at one element more than the frame
    assert pn.validates_bd(chain3, 10**9)
    assert pn.validates_bd(validate_poset([], []), 10**9)


def test_validates_bd_matches_the_chain_search():
    # the definition: no up-reduction onto the chain on n + 1 elements
    frames = sample_posets(25, 7, seed=83) + sample_posets(40, 6, seed=85)
    frames += sample_posets(40, 6, seed=87, rooted=True)
    for poset in frames + [validate_poset([], [])]:
        for n in range(0, 7):
            chain = pn.starlike_tree(Signature(((n, 1),) if n else ()))
            assert pn.validates_bd(poset, n) == pn.validates_jankov(poset, chain), (poset, n)


# -- validates_sfl and the Scott-form conditions -------------------------------------------


def test_validates_sfl_examples(theta_frame):
    assert pn.validates_sfl(theta_frame, [S("2.1")])
    scott_tree = pn.starlike_tree(S("2.1"))
    assert not pn.validates_sfl(scott_tree, [S("2.1")])
    with pytest.raises(ForbiddenSignature):
        pn.validates_sfl(theta_frame, [S("1^2")])


def test_chain_sfl_rule():
    for n in range(1, 5):
        chain = make_chain(n)
        # chains fail exactly the chain signatures at or below their height
        for k in range(1, 6):
            expected = k > pn.height(chain)
            assert pn.validates_sfl(chain, [Signature(((k, 1),))]) == expected
        assert pn.validates_sfl(chain, [S("2.1"), S("1^3"), S("2^2")])


def test_scott_conditions_examples(tangled_frame):
    assert pn.scott_frame_conditions(tangled_frame, [S("2.1")])
    fork3 = pn.starlike_tree(S("1^3"))
    assert not pn.scott_frame_conditions(fork3, [S("2.1"), S("1^3")])
    single = validate_poset(["x"], [])
    assert pn.scott_frame_conditions(single, [S("2.1")])
    with pytest.raises(PreconditionViolated):
        pn.scott_frame_conditions(tangled_frame, [S("1^3")])


def test_scott_conditions_match_validity():
    lambda_pool = [
        [S("2.1")],
        [S("2.1"), S("1^3")],
        [S("2.1"), S("3")],
        [S("2.1"), S("1^4"), S("4")],
    ]
    rng = random.Random(89)
    for poset in sample_posets(60, 7, seed=89, rooted=True):
        lambdas = rng.choice(lambda_pool)
        assert pn.scott_frame_conditions(poset, lambdas) == pn.validates_sfl(
            poset, lambdas
        )
