import random

import pytest

import polynerve as pn
from polynerve import Signature, validate_poset
from polynerve.errors import ForbiddenSignature
from polynerve.randposets import random_rooted_poset

from conftest import (
    brute_has_alpha_partition,
    completion_diamond_connected,
    completion_nerve_connected,
    make_antichain,
    make_chain,
    sample_posets,
)

S = Signature.parse

ALPHAS = [S("2"), S("1^3"), S("2.1"), S("2^2"), S("3.1")]


# -- starlike trees ------------------------------------------------------------


def test_starlike_tree_shapes():
    fork = pn.starlike_tree(S("1^3"))
    assert len(fork) == 4 and pn.height(fork) == 1
    assert len(pn.starlike_tree(S("e"))) == 1
    big = pn.starlike_tree(S("3^2.2.1"))
    assert len(big) == 10
    assert pn.is_tree(big)
    scott = pn.starlike_tree(S("2.1"))
    assert len(scott) == 4 and pn.height(scott) == 2


def test_contype_of_tree_minus_root():
    for text in ["2", "1^3", "2.1", "3^2.2.1"]:
        alpha = S(text)
        tree = pn.starlike_tree(alpha)
        above = tree.restrict(pn.strict_up(tree, "r"))
        assert pn.con_type(above) == alpha


# -- partitions ------------------------------------------------------------------


def test_alpha_partition_examples():
    two_one = validate_poset(["a1", "a2", "b"], [("a1", "a2")])
    assert pn.has_alpha_partition(two_one, S("2.1"))
    empty = validate_poset([], [])
    assert pn.has_alpha_partition(empty, S("e"))
    assert not pn.has_alpha_partition(empty, S("1"))
    connected = make_chain(3)
    assert not pn.has_alpha_partition(connected, S("1^2"))
    assert pn.has_alpha_partition(connected, S("3"))


def test_alpha_partition_constructive():
    parts = pn.alpha_partition(
        validate_poset(["a1", "a2", "b", "c"], [("a1", "a2")]), S("2.1")
    )
    assert parts is not None and len(parts) == 2
    # surplus merged into the first slot keeps the height demands
    assert {"a1", "a2"} <= parts[0] or {"a1", "a2"} <= parts[1]
    assert pn.alpha_partition(make_chain(2), S("1^2")) is None
    assert pn.alpha_partition(validate_poset([], []), S("e")) == []


def test_partition_oracle_agreement():
    for poset in sample_posets(12, 5, seed=53):
        for alpha in ALPHAS + [S("1^2"), S("1")]:
            assert pn.has_alpha_partition(poset, alpha) == brute_has_alpha_partition(
                poset, alpha
            ), (poset.to_json(), alpha.text())
            # each strict upset, through the cached per-element types
            for i, lab in enumerate(poset.labels):
                above = poset.restrict(pn.strict_up(poset, lab))
                assert alpha.splits(poset.strict_up_contypes[i]) == brute_has_alpha_partition(
                    above, alpha
                ), (poset.to_json(), lab, alpha.text())
            blocks = pn.alpha_partition(poset, alpha)
            if blocks is not None:
                assert len(blocks) == alpha.size and all(blocks)
                assert sorted(x for b in blocks for x in b) == sorted(poset.labels)
                for block, demand in zip(blocks, alpha.heights):
                    assert all(pn.up_set(poset, x) <= block for x in block)  # open
                    assert pn.height(poset.restrict(block)) + 1 >= demand


# -- connectedness -----------------------------------------------------------------


def test_theta_frame_connectedness(theta_frame):
    assert pn.is_alpha_connected(theta_frame, S("2.1"))
    assert not pn.is_alpha_connected(pn.nerve(theta_frame), S("2.1"))
    tree = pn.starlike_tree(S("2.1"))
    assert not pn.is_alpha_connected(tree, S("2.1"))


def test_theta_frame_diamonds(theta_frame):
    assert not pn.is_alpha_diamond_connected(theta_frame, S("2.1"))
    for alpha in ALPHAS:
        if alpha.size >= 2:
            assert pn.is_alpha_diamond_connected(make_chain(4), alpha)
    assert pn.is_alpha_diamond_connected(make_antichain(2), S("1^3"))


def test_nerve_connected_is_both(theta_frame):
    assert not pn.is_alpha_nerve_connected(theta_frame, S("2.1"))
    chain = make_chain(4)
    assert pn.is_alpha_nerve_connected(chain, S("2.1"))


def test_diamond_and_nerve_connectedness_match_the_completion():
    alphas = [S(text) for text in ["e", "1", "2", "1^3", "2.1", "2^2", "3.1"]]
    posets = [validate_poset([], [])]
    posets += sample_posets(250, 9, seed=71) + sample_posets(250, 9, seed=73, rooted=True)
    outcomes = set()
    for poset in posets:
        for alpha in alphas:
            diamond = pn.is_alpha_diamond_connected(poset, alpha)
            assert diamond == completion_diamond_connected(poset, alpha)
            assert pn.is_alpha_nerve_connected(poset, alpha) == completion_nerve_connected(poset, alpha)
            outcomes.add(diamond)
    assert outcomes == {True, False}


def test_nerve_connectedness_on_a_frame_labelled_inf():
    frame = validate_poset(["inf", "a", "b"], [("inf", "a"), ("inf", "b")])
    assert pn.is_alpha_nerve_connected(frame, S("2.1"))
    assert not pn.is_alpha_nerve_connected(frame, S("1^2"))


def test_connectedness_equals_forbidden_configuration_validity():
    for poset in sample_posets(30, 6, seed=59):
        for alpha in ALPHAS:
            expected = pn.validates_jankov(poset, pn.starlike_tree(alpha))
            assert pn.is_alpha_connected(poset, alpha) == expected


def test_nerve_connectedness_matches_nerve_of_poset():
    # the equivalence is about rooted frames; see the boundary test below
    for poset in sample_posets(15, 5, seed=61, rooted=True):
        nrv = pn.nerve(poset)
        for alpha in ALPHAS:
            lhs = pn.is_alpha_nerve_connected(poset, alpha)
            mid = pn.is_alpha_connected(nrv, alpha)
            rhs = pn.is_alpha_nerve_connected(nrv, alpha)
            assert lhs == mid == rhs


def test_nerve_criterion_on_second_nerves():
    # Nerve Criterion on the materialised second nerve, decided three ways;
    # second nerves reach a few hundred elements, where a backtracking
    # reduction search can exhaust its budget
    rng = random.Random(67)
    frames = 0
    outcomes = set()
    while frames < 150:
        poset = random_rooted_poset(rng.randint(1, 5), rng)
        if pn.nerve(poset).count_chains() > 400:
            continue
        frames += 1
        twice = pn.iterated_nerve(poset, 2)
        for alpha in ALPHAS:
            holds = pn.is_alpha_nerve_connected(poset, alpha)
            assert holds == pn.is_alpha_connected(twice, alpha)
            assert holds == (pn.find_up_reduction(twice, pn.starlike_tree(alpha)) is None)
            outcomes.add(holds)
    assert outcomes == {True, False}


def test_nerve_equivalence_needs_a_root():
    """Without a root, a chain can have a disconnected 'gap below its
    minimum', which no upset or diamond sees; rooting restores the
    correspondence because the root is comparable with everything."""
    loose = validate_poset(
        ["x0", "x1", "x2", "x3", "x4"],
        [("x0", "x3"), ("x1", "x2"), ("x2", "x3"), ("x3", "x4")],
    )
    scott = S("2.1")
    assert pn.is_alpha_nerve_connected(loose, scott)
    assert not pn.is_alpha_connected(pn.nerve(loose), scott)
    rooted = validate_poset(
        ["rt"] + list(loose.labels),
        [("rt", lab) for lab in loose.labels] + loose.cover_edges(),
    )
    assert pn.is_alpha_nerve_connected(rooted, scott) == pn.is_alpha_connected(
        pn.nerve(rooted), scott
    )


def test_nerve_validates_starlike(theta_frame):
    assert not pn.nerve_validates_starlike(theta_frame, S("2.1"))
    assert pn.nerve_validates_starlike(make_chain(3), S("2.1"))
    with pytest.raises(ForbiddenSignature):
        pn.nerve_validates_starlike(theta_frame, S("1^2"))
    for poset in sample_posets(10, 5, seed=67):
        for alpha in ALPHAS:
            assert pn.nerve_validates_starlike(poset, alpha) == pn.is_alpha_connected(
                pn.nerve(poset), alpha
            )
