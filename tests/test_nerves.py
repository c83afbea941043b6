import time

import pytest

import polynerve as pn
from polynerve import Signature, validate_poset
from polynerve.errors import EmptyPoset, SizeBudgetExceeded

from conftest import (
    brute_chains,
    make_antichain,
    make_chain,
    sample_posets,
    walked_nerve_contypes,
)

S = Signature.parse


def test_nerve_of_two_chain():
    nrv = pn.nerve(make_chain(2))
    assert len(nrv) == 3
    assert set(nrv.labels) == {"(x0)", "(x1)", "(x0|x1)"}
    assert nrv.leq("(x0)", "(x0|x1)") and nrv.leq("(x1)", "(x0|x1)")
    assert not nrv.leq("(x0)", "(x1)")


def test_nerve_of_antichain():
    nrv = pn.nerve(make_antichain(4))
    assert len(nrv) == 4
    assert pn.height(nrv) == 0


def test_nerve_of_theta_frame_has_19_chains(theta_frame):
    assert len(pn.nerve(theta_frame)) == len(brute_chains(theta_frame)) == 19


def test_nerve_matches_brute_chains_with_inclusion_order():
    for poset in sample_posets(15, 5, seed=13):
        nrv = pn.nerve(poset)
        chains = {poset.labels_of(m) for m in nrv.chain_masks}
        assert chains == set(brute_chains(poset))
        # inclusion order
        for i, mi in enumerate(nrv.chain_masks):
            for j, mj in enumerate(nrv.chain_masks):
                assert nrv.leq(nrv.labels[i], nrv.labels[j]) == (mi & ~mj == 0)


def test_height_and_grading_of_nerves():
    for poset in sample_posets(15, 5, seed=29):
        if poset.is_empty:
            continue
        nrv = pn.nerve(poset)
        assert pn.height(nrv) == pn.height(poset)
        ranks = pn.is_graded(nrv)
        assert ranks is not None
        for label, mask in zip(nrv.labels, nrv.chain_masks):
            assert ranks[label] == bin(mask).count("1") - 1


def test_iterated_nerve():
    chain2 = make_chain(2)
    assert pn.iterated_nerve(chain2, 0) is chain2
    single = validate_poset(["s"], [])
    assert len(pn.iterated_nerve(single, 3)) == 1
    # nerve of the 2-chain is a 3-element wedge; its own chain count is 5
    twice = pn.iterated_nerve(chain2, 2)
    assert len(twice) == pn.nerve(chain2).count_chains() == 5


def test_size_budget():
    with pytest.raises(SizeBudgetExceeded):
        pn.nerve(make_chain(8), budget=10)


def test_max_map(theta_frame):
    two = make_chain(2)
    mm = pn.max_map(two)
    assert mm.mapping == {"(x0)": "x0", "(x1)": "x1", "(x0|x1)": "x1"}
    anti = pn.max_map(make_antichain(3))
    assert sorted(anti.mapping.values()) == ["x0", "x1", "x2"]
    big = pn.max_map(theta_frame)
    assert len(big.source) == 19 and pn.is_up_reduction(big)
    with pytest.raises(EmptyPoset):
        pn.max_map(validate_poset([], []))


def test_up_reductions_lift_along_max_map(theta_frame):
    # a reduction F -> Q composes with the max map to a reduction N(F) -> Q
    target = pn.starlike_tree(S("1^2"))
    for poset in sample_posets(20, 5, seed=37):
        witness = pn.find_up_reduction(poset, target)
        if witness is None:
            continue
        lifted = pn.compose(pn.max_map(poset), witness)
        assert pn.is_up_reduction(lifted)


def test_nerve_alpha_connected_agrees_with_materialised_nerve():
    alphas = [S("2"), S("1^3"), S("2.1"), S("2^2"), S("1^2")]
    for poset in sample_posets(25, 5, seed=43):
        nrv = pn.nerve(poset)
        for alpha in alphas:
            assert pn.nerve_is_alpha_connected(poset, alpha) == pn.is_alpha_connected(
                nrv, alpha
            )


def test_nerve_check_answers_on_long_chains():
    # 2^60 - 1 chains: answered only if no chain is enumerated
    chain = make_chain(60)
    started = time.perf_counter()
    assert pn.nerve_is_alpha_connected(chain, S("1^3"))
    assert not pn.nerve_is_alpha_connected(chain, S("2"))
    assert time.perf_counter() - started < 1.0


NERVE_ALPHAS = [S(t) for t in ("e", "1", "2", "3", "1^2", "1^3", "2.1", "2^2", "3.1", "2.1^2", "1^4")]


def nerve_samples():
    """Rooted and unrooted posets of 1-9 elements, and the empty poset."""
    return (
        sample_posets(300, 9, seed=47)
        + sample_posets(300, 9, seed=53, rooted=True)
        + [validate_poset([], [])]
    )


def test_interval_types_are_walked_types_up_to_dominated_ones():
    for poset in nerve_samples():
        table, walked = set(poset._nerve_contypes), set(walked_nerve_contypes(poset))
        assert table <= walked
        longest = pn.height(poset) + 1 if poset.n else 0
        # a chain with two or more nonempty parts leaves one component of
        # height at most L - 1, dominated by the strict upset of the bottom
        # of a longest chain
        for contype in walked - table:
            assert len(contype) == 1 and contype[0] <= longest - 1


def test_interval_types_answer_as_the_chain_walk():
    for poset in nerve_samples():
        walked = set(walked_nerve_contypes(poset))
        for alpha in NERVE_ALPHAS:
            assert pn.nerve_is_alpha_connected(poset, alpha) == (
                not any(map(alpha.splits, walked))
            ), (poset, alpha)


def test_nerve_connectedness_is_the_criterion_on_rooted_frames():
    for poset in sample_posets(150, 9, seed=59, rooted=True):
        for alpha in NERVE_ALPHAS:
            assert pn.nerve_is_alpha_connected(poset, alpha) == pn.is_alpha_nerve_connected(
                poset, alpha
            ), (poset, alpha)


def test_unrooted_nerve_check_needs_strict_downsets():
    # a, b < c: the strict downset of c splits into two points; no strict
    # upset or strict diamond does
    vee = validate_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    fork = S("1^2")
    assert pn.is_alpha_nerve_connected(vee, fork)
    assert not pn.nerve_is_alpha_connected(vee, fork)
    assert not pn.is_alpha_connected(pn.nerve(vee), fork)


def test_nerve_labels_nest():
    nrv2 = pn.iterated_nerve(make_chain(2), 2)
    assert "((x0)|(x0|x1))" in nrv2.labels
