import json
import random
import time
from collections import Counter
from fractions import Fraction as Fr

import pytest

import polynerve as pn
from polynerve import PMorphism, Signature, validate_poset
from polynerve.errors import (
    DomainNotUpClosed,
    MalformedInput,
    NotComparableSignatures,
    SearchBudgetExceeded,
    SizeBudgetExceeded,
    TargetNotRooted,
)
from polynerve.morphisms import _search_up_reduction
from polynerve.randposets import random_poset

from conftest import (
    backtracking_isomorphism,
    brute_up_reduction_exists,
    make_antichain,
    make_chain,
    recursive_monotone_surjection,
    recursive_search_up_reduction,
    refine_isomorphism,
    sample_posets,
    scanned_starlike_reduction,
)

S = Signature.parse


def identity_morphism(poset):
    return PMorphism(poset, poset, frozenset(poset.labels), {l: l for l in poset.labels})


def test_identity_is_p_morphism(theta_frame):
    assert pn.is_p_morphism(identity_morphism(theta_frame))
    assert pn.is_up_reduction(identity_morphism(theta_frame))


def test_max_map_is_p_morphism(theta_frame):
    assert pn.is_up_reduction(pn.max_map(theta_frame))


def test_constant_map_fails_back():
    chain = make_chain(2)
    # collapsing everything onto the bottom leaves the top unreachable
    const = PMorphism(chain, chain, frozenset(chain.labels), {"x0": "x0", "x1": "x0"})
    assert pn.is_p_morphism(const) is False
    # whereas collapsing onto the top retracts: back holds pointwise
    to_top = PMorphism(chain, chain, frozenset(chain.labels), {"x0": "x1", "x1": "x1"})
    assert pn.is_p_morphism(to_top) is True


def test_order_reversing_map_fails_forth():
    chain = make_chain(2)
    # the top lands below the image of the bottom: surjective, but not a
    # p-morphism, so not an up-reduction either
    swap = PMorphism(chain, chain, frozenset(chain.labels), {"x0": "x1", "x1": "x0"})
    assert pn.is_p_morphism(swap) is False
    assert pn.is_up_reduction(swap) is False


def test_domain_must_be_up_closed(theta_frame):
    bad = PMorphism(theta_frame, theta_frame, frozenset({"r"}), {"r": "r"})
    with pytest.raises(DomainNotUpClosed):
        pn.is_p_morphism(bad)


def test_witness_serialisation(theta_frame):
    f = pn.max_map(theta_frame)
    back = PMorphism.from_json(f.to_json(), f.source, f.target)
    assert back.mapping == f.mapping and back.domain == f.domain


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        "[]",
        "null",
        json.dumps({"domain": "ab", "map": {"a": "a", "b": "b"}}),
        json.dumps({"domain": ["a", "b"], "map": [["a", "a"], ["b", "b"]]}),
        json.dumps({"domain": ["a", "b"], "map": {"a": "a", "b": 1}}),
    ],
    ids=["empty-object", "list", "null", "string-domain", "pair-list-map", "integer-value"],
)
def test_malformed_morphism_json(text):
    pair = validate_poset(["a", "b"], [])
    with pytest.raises(MalformedInput):
        PMorphism.from_json(text, pair, pair)


# -- find_up_reduction --------------------------------------------------------------


def test_theta_frame_reductions(theta_frame):
    scott = pn.starlike_tree(S("2.1"))
    assert pn.find_up_reduction(theta_frame, scott) is None
    nerve = pn.nerve(theta_frame)
    witness = pn.find_up_reduction(nerve, scott)
    assert witness is not None
    assert pn.is_up_reduction(witness)


def test_identity_reduction(theta_frame):
    witness = pn.find_up_reduction(theta_frame, theta_frame)
    assert witness is not None and pn.is_up_reduction(witness)


def test_chain_reductions():
    chain3 = make_chain(3)
    assert pn.validates_jankov(chain3, pn.starlike_tree(S("2"))) is False
    assert pn.validates_jankov(chain3, pn.starlike_tree(S("3"))) is True


def test_target_must_be_rooted(theta_frame):
    with pytest.raises(TargetNotRooted):
        pn.find_up_reduction(theta_frame, make_antichain(2))


def test_budget_is_honoured(theta_frame):
    # the theta is no starlike tree, so reductions onto it are searched for
    with pytest.raises(SearchBudgetExceeded):
        pn.find_up_reduction(pn.nerve(theta_frame), theta_frame, budget=3)
    # onto a starlike tree the witness is constructed: the budget is unused
    fork = pn.starlike_tree(S("1^3"))
    nerve = pn.nerve(fork)
    with pytest.raises(SearchBudgetExceeded):
        _search_up_reduction(nerve, fork, budget=1)
    witness = pn.find_up_reduction(nerve, fork, budget=1)
    assert witness is not None and pn.is_up_reduction(witness)


def _relabelled(poset, rng):
    """The poset under fresh labels, its elements listed in a random order."""
    names = {lab: f"v{k}" for k, lab in enumerate(rng.sample(poset.labels, poset.n))}
    elements = [names[lab] for lab in poset.labels]
    rng.shuffle(elements)
    return validate_poset(elements, [(names[a], names[b]) for a, b in poset.cover_edges()])


def _apex(witness):
    return [x for x, v in witness.mapping.items() if v == witness.target.root()]


def test_construction_agrees_with_search_oracle():
    rng = random.Random(61)
    targets = []
    for text in ("e", "1", "2", "1^2", "2.1", "1^3", "2^2", "3.1", "3.2.1", "1^4"):
        tree = pn.starlike_tree(S(text))
        targets += [(S(text), tree), (S(text), _relabelled(tree, rng))]
    posets = []
    for k in range(300):
        frame = random_poset(rng.randint(1, 8), rng, rooted=bool(k % 2))
        posets.append(frame)
        if frame.count_chains() <= 60:
            posets.append(pn.nerve(frame))
    pairs = refused = found = 0
    for poset in posets:
        for alpha, target in targets:
            pairs += 1
            witness = pn.find_up_reduction(poset, target)
            if witness is not None:
                found += 1
                assert pn.is_up_reduction(witness)
            try:
                oracle = _search_up_reduction(poset, target, budget=5000)
            except SearchBudgetExceeded:
                # undecided by the oracle: check existence against the
                # connectedness characterisation instead
                refused += 1
                assert (witness is None) == pn.is_alpha_connected(poset, alpha)
                continue
            assert (witness is None) == (oracle is None), (poset, alpha)
            if witness is not None:
                assert _apex(witness) == _apex(oracle), (poset, alpha)
    print(f"{pairs} pairs, {found} reductions, {refused} refused by the oracle")
    assert found and refused < pairs // 20


def test_constructed_reductions_match_the_element_scan():
    # the type index and the branches kept per target give the same apex,
    # blocks and map as a scan over every element with branches derived on
    # each call, onto relabelled trees too
    rng = random.Random(131)
    targets = []
    for text in ("e", "1", "2", "1^2", "2.1", "1^3", "2^2", "3.1", "2^2.1^2"):
        tree = pn.starlike_tree(S(text))
        targets += [tree, _relabelled(tree, rng)]
    posets = sample_posets(120, 8, seed=131) + sample_posets(120, 8, seed=137, rooted=True)
    posets += [pn.nerve(frame) for frame in sample_posets(20, 5, seed=139, rooted=True)]
    found = 0
    for poset in posets:
        for target in targets:
            if target.n > poset.n:
                continue
            witness = pn.find_up_reduction(poset, target)
            expected = scanned_starlike_reduction(poset, target)
            assert (None if witness is None else witness.mapping) == expected, (poset, target)
            found += witness is not None
    assert found


def _decided(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except SearchBudgetExceeded as exc:
        return str(exc)


def test_searches_match_recursive_oracles():
    # the same witness wherever the recursive search answers; the shared
    # routine's cut on the values left to hit may answer where it refuses
    rng = random.Random(67)
    posets = [random_poset(rng.randint(1, 7), rng, rooted=bool(k % 2)) for k in range(160)]
    posets += [pn.nerve(p) for p in posets[:80] if p.count_chains() <= 40]
    targets = [pn.starlike_tree(S(t)) for t in ("e", "1", "2", "1^2", "2.1", "1^3")]
    targets += [p for p in posets[:30] if p.root() is not None]
    seen = {"same": 0, "answered": 0, "confirmed": 0}
    for poset in posets:
        for target in rng.sample(targets, 5):
            budget = rng.choice((50, 500, 5000))
            oracle = _decided(recursive_search_up_reduction, poset, target, budget=budget)
            found = _decided(_search_up_reduction, poset, target, budget=budget)
            if found == oracle:
                seen["same"] += 1
            else:
                assert isinstance(oracle, str) and not isinstance(found, str), (poset, target)
                seen["answered"] += 1
                deeper = _decided(recursive_search_up_reduction, poset, target, budget=10**5)
                assert found == deeper or isinstance(deeper, str), (poset, target)
                seen["confirmed"] += found == deeper
            other = rng.choice(posets + targets)
            assert _decided(pn.exists_monotone_surjection, poset, other, budget=budget) == _decided(
                recursive_monotone_surjection, poset, other, budget=budget
            )
    print(seen)
    assert seen["confirmed"] and seen["same"] > 10 * seen["answered"]


def test_no_reduction_onto_a_larger_target(theta_frame):
    chain = make_chain(2000)
    assert pn.find_up_reduction(theta_frame, chain) is None
    assert "covers_up" not in chain.__dict__  # decided before the covers are read
    assert pn.find_up_reduction(theta_frame, make_chain(5)) is None
    assert pn.find_up_reduction(make_chain(5), make_chain(5)) is not None


def test_reduction_search_agrees_with_unpruned_oracle():
    targets = [pn.starlike_tree(S(a)) for a in ("2", "1^2", "2.1")]
    for poset in sample_posets(12, 5, seed=23):
        for target in targets:
            fast = pn.find_up_reduction(poset, target)
            slow = brute_up_reduction_exists(poset, target)
            assert (fast is not None) == slow
            if fast is not None:
                assert pn.is_up_reduction(fast)


def test_reduction_existence_composes():
    rng = random.Random(5)
    found = 0
    for poset in sample_posets(40, 6, seed=31, rooted=True):
        g = pn.starlike_tree(S("1^2"))
        h = pn.starlike_tree(S("1"))
        fg = pn.find_up_reduction(poset, g)
        gh = pn.find_up_reduction(g, h)
        if fg is None:
            continue
        found += 1
        assert gh is not None
        composite = pn.compose(fg, gh)
        assert pn.is_up_reduction(composite)
    assert found  # the sample must actually exercise the property


def test_reduction_is_deterministic(theta_frame):
    nerve = pn.nerve(theta_frame)
    scott = pn.starlike_tree(S("2.1"))
    first = pn.find_up_reduction(nerve, scott)
    second = pn.find_up_reduction(nerve, scott)
    assert first.mapping == second.mapping


# -- signature_reduction ----------------------------------------------------------------


def test_signature_reduction_examples():
    f = pn.signature_reduction(S("3.1^2"), S("1^3"))
    assert pn.is_p_morphism(f)
    g = pn.signature_reduction(S("3.1^2"), S("2"))
    assert pn.is_p_morphism(g)
    ident = pn.signature_reduction(S("2.1"), S("2.1"))
    assert ident.mapping == {l: l for l in ident.source.labels}
    with pytest.raises(NotComparableSignatures):
        pn.signature_reduction(S("2"), S("1^3"))


def test_signature_reduction_refuses_trees_over_the_size_budget():
    # the size, 1 + the sum of the branch heights, is read off the entries
    with pytest.raises(SizeBudgetExceeded, match="1000000001 elements"):
        pn.signature_reduction(S("1^1000000000"), S("1^5"))
    for text in ("1^1000000", "500000^2", "1000000"):
        with pytest.raises(SizeBudgetExceeded):
            pn.starlike_tree(S(text))
    assert pn.starlike_tree(S("3.1^2")).n == 6


def test_signature_reduction_random_pairs():
    rng = random.Random(17)
    for _ in range(25):
        beta_heights = sorted(
            (rng.randint(1, 4) for _ in range(rng.randint(1, 4))), reverse=True
        )
        cut = rng.randint(0, len(beta_heights))
        alpha_heights = []
        ceiling = None
        for h in beta_heights[:cut]:
            pick = rng.randint(1, h if ceiling is None else min(h, ceiling))
            alpha_heights.append(pick)
            ceiling = pick
        beta = Signature.from_heights(beta_heights)
        alpha = Signature.from_heights(alpha_heights)
        assert alpha.leq(beta)
        assert pn.is_p_morphism(pn.signature_reduction(beta, alpha))


# -- isomorphism ------------------------------------------------------------------------------


def test_isomorphism_basics(theta_frame):
    ident = pn.are_isomorphic(theta_frame, theta_frame)
    assert ident is not None
    assert pn.are_isomorphic(make_chain(2), make_antichain(2)) is None
    relabelled = validate_poset(
        ["p", "q", "s", "u", "v"],
        [("p", "q"), ("q", "s"), ("p", "u"), ("s", "v"), ("u", "v")],
    )
    mapping = pn.are_isomorphic(theta_frame, relabelled)
    assert mapping is not None
    for a in theta_frame.labels:
        for b in theta_frame.labels:
            assert theta_frame.leq(a, b) == relabelled.leq(mapping[a], mapping[b])


def assert_is_isomorphism(poset, other, mapping):
    assert set(mapping) == set(poset.labels)
    assert sorted(mapping.values()) == sorted(other.labels)
    for a in poset.labels:
        for b in poset.labels:
            assert poset.leq(a, b) == other.leq(mapping[a], mapping[b])


def relabelled_copy(poset, rng):
    """The same order on fresh labels listed in a shuffled order."""
    rename = {lab: f"y{k}" for k, lab in enumerate(poset.labels)}
    order = list(rename.values())
    rng.shuffle(order)
    return validate_poset(order, [(rename[a], rename[b]) for a, b in poset.cover_edges()])


def test_isomorphism_agrees_with_backtracking_oracle():
    rng = random.Random(2024)
    outcomes = {"copy": set(), "draw": set()}
    for _ in range(200):
        size = rng.randint(1, 8)
        poset = random_poset(size, rng, rng.choice((0.2, 0.35, 0.6)))
        pairs = {
            "copy": relabelled_copy(poset, rng),
            "draw": random_poset(size, rng, rng.choice((0.2, 0.35, 0.6))),
        }
        for kind, other in pairs.items():
            fast = pn.are_isomorphic(poset, other)
            slow = backtracking_isomorphism(poset, other)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert_is_isomorphism(poset, other, fast)
            outcomes[kind].add(fast is not None)
    assert outcomes == {"copy": {True}, "draw": {True, False}}


def _outcome(search, poset, other, budget):
    try:
        return search(poset, other, budget=budget)
    except SearchBudgetExceeded:
        return "refused"


def _copies(rng):
    """Two to four copies of a random poset of one to four elements side by
    side, under a common top and over a common bottom at random: many cells
    of equal size, where the order of the cells decides which map is found."""
    base = random_poset(rng.randint(1, 4), rng, rng.choice((0.2, 0.4, 0.6)))
    labels, edges = [], []
    for k in range(rng.randint(2, 4)):
        labels += [f"c{k}{lab}" for lab in base.labels]
        edges += [(f"c{k}{a}", f"c{k}{b}") for a, b in base.cover_edges()]
    if rng.random() < 0.5:
        edges += [(lab, "top") for lab in labels]
        labels.append("top")
    if rng.random() < 0.5:
        edges += [("bot", lab) for lab in labels]
        labels.append("bot")
    return validate_poset(labels, edges)


def test_isomorphism_matches_former_refinement_search():
    # same answers and the same maps, so the iso verb's bytes stay put, and
    # the same node counts: a small budget refuses on both sides or neither
    rng = random.Random(2026)
    seen = Counter()
    for _ in range(300):
        size = rng.randint(1, 9)
        poset = random_poset(size, rng, rng.choice((0.1, 0.2, 0.35, 0.6)))
        symmetric = _copies(rng)
        pairs = [
            (poset, relabelled_copy(poset, rng)),
            (poset, random_poset(size, rng, rng.choice((0.2, 0.35, 0.6)))),
            (symmetric, relabelled_copy(symmetric, rng)),
        ]
        for left, right in pairs:
            for budget in (10**7, rng.randint(1, 6)):
                answer = _outcome(pn.are_isomorphic, left, right, budget)
                assert answer == _outcome(refine_isomorphism, left, right, budget)
                seen["map" if isinstance(answer, dict) else answer] += 1
    assert min(seen[kind] for kind in ("map", None, "refused")) > 40


def test_isomorphism_scales_on_long_chains_and_antichains():
    # one individualization per element (antichains) or one refinement round
    # per element (chains); covers, cached per poset, are built first
    for make in (make_antichain, make_chain):
        poset, other = make(1100), make(1100)
        for p in (poset, other):
            assert p.covers_up and p.covers_down
        started = time.perf_counter()
        mapping = pn.are_isomorphic(poset, other)
        assert time.perf_counter() - started < 3.0
        assert mapping == {label: label for label in poset.labels}


def crown(size, prefix):
    """Minimal elements a0..a(size-1), each below b_i and b_(i+1 mod size)."""
    edges = [(f"{prefix}a{i}", f"{prefix}b{(i + d) % size}") for i in range(size) for d in (0, 1)]
    return [f"{prefix}{kind}{i}" for kind in "ab" for i in range(size)], edges


def test_isomorphism_finds_second_subdivision_within_small_budget():
    triangle = pn.Simplex(((Fr(0), Fr(0)), (Fr(1), Fr(0)), (Fr(0), Fr(1))))
    complex_ = pn.validate_complex(triangle.faces())
    faces = pn.face_poset(pn.derived(complex_, 2))
    nerve2 = pn.iterated_nerve(pn.face_poset(complex_), 2)
    assert faces.n == nerve2.n == 121
    mapping = pn.are_isomorphic(faces, nerve2, budget=1000)
    assert mapping is not None
    assert_is_isomorphism(faces, nerve2, mapping)


def test_isomorphism_rejects_pair_with_equal_refinement_colours():
    # in both posets each minimal element has two upper covers and each
    # maximal one two lower covers, so colour refinement stops at the same
    # two classes on each side: equal colours are no proof, and only the
    # individualization search tells a 24-cycle from two 12-cycles
    one = validate_poset(*crown(12, "p"))
    labels, edges = crown(6, "q")
    more_labels, more_edges = crown(6, "r")
    two = validate_poset(labels + more_labels, edges + more_edges)
    degrees = [sorted((len(p.covers_up[i]), len(p.covers_down[i])) for i in range(p.n)) for p in (one, two)]
    assert degrees[0] == degrees[1]
    assert pn.are_isomorphic(one, two, budget=1000) is None
    assert pn.are_isomorphic(two, one, budget=1000) is None


def test_isomorphism_budget_is_honoured(double_chain):
    other = relabelled_copy(double_chain, random.Random(3))
    with pytest.raises(SearchBudgetExceeded):
        pn.are_isomorphic(double_chain, other, budget=1)
    assert pn.are_isomorphic(double_chain, other) is not None


# -- monotone surjections -----------------------------------------------------------------------


def test_monotone_surjections(theta_frame):
    single = validate_poset(["s"], [])
    assert pn.exists_monotone_surjection(theta_frame, single)
    assert not pn.exists_monotone_surjection(single, make_chain(2))
    # a fan with enough tops maps onto any small rooted poset
    fan = validate_poset(
        ["z", "t1", "t2", "t3"], [("z", "t1"), ("z", "t2"), ("z", "t3")]
    )
    target = validate_poset(["b", "m", "t"], [("b", "m"), ("m", "t")])
    assert pn.exists_monotone_surjection(fan, target)
    # comparabilities cannot be flattened away
    assert not pn.exists_monotone_surjection(make_chain(2), make_antichain(2))


def test_p_morphism_composition_property():
    for poset in sample_posets(10, 6, seed=41, rooted=True):
        tree, last = pn.tree_unravelling(poset)
        assert pn.is_up_reduction(last)
        tree2, last2 = pn.tree_unravelling(tree)
        composite = pn.compose(last2, last)
        assert pn.is_p_morphism(composite)
