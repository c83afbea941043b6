import pytest

import polynerve as pn
from polynerve import Signature, validate_poset
from polynerve.errors import EmptyPoset, SizeBudgetExceeded

from conftest import brute_chains, make_antichain, make_chain, sample_posets

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


def test_nerve_chain_walk_budget():
    chain = make_chain(12)  # 4095 nonempty chains
    assert not pn.nerve_is_alpha_connected(chain, S("2"), budget=1)
    with pytest.raises(SizeBudgetExceeded):
        pn.nerve_is_alpha_connected(chain, S("1^3"), budget=4094)
    assert pn.nerve_is_alpha_connected(chain, S("1^3"), budget=4095)


def test_nerve_labels_nest():
    nrv2 = pn.iterated_nerve(make_chain(2), 2)
    assert "((x0)|(x0|x1))" in nrv2.labels
