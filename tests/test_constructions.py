import hashlib
import json
import random
from itertools import combinations_with_replacement

import pytest

import polynerve as pn
from polynerve import Signature, constructions, validate_poset
from polynerve.constructions import (
    ConstructionResult,
    _check_profiles,
    _sample_ample_signatures,
    _verify,
)
from polynerve.errors import (
    ConstructionPostconditionFailed,
    ForbiddenSignature,
    NotGraded,
    NotRooted,
    PolynerveError,
    PreconditionViolated,
)

from conftest import make_antichain, make_chain, sample_posets

S = Signature.parse

LAMBDA_POOL = [
    [S("2.1")],
    [S("1^3")],
    [S("2.1"), S("1^3")],
    [S("2^2")],
    [S("3.1"), S("1^4")],
]


def check_result(result, original, lambdas=None, nerve=False):
    """The witness is an up-reduction onto the original and the output
    validates ``lambdas``; with 2.1 among them, the output meets the
    Scott-form frame conditions, and with ``nerve`` (a nervify or pipeline
    output) its nerve validates them too. The verifier reads neither."""
    assert pn.is_up_reduction(result.witness)
    assert result.witness.source is result.output
    assert set(result.witness.mapping.values()) == set(original.labels)
    if lambdas is not None:
        assert pn.validates_sfl(result.output, lambdas)
        if S("2.1") in lambdas:
            assert pn.scott_frame_conditions(result.output, lambdas)
        if nerve:
            assert all(pn.nerve_is_alpha_connected(result.output, alpha) for alpha in lambdas)


# -- gradification with Scott's signature ----------------------------------------------


def test_gradify_with_scott_tangled_frame(tangled_frame):
    lambdas = [S("2.1")]
    assert pn.validates_sfl(tangled_frame, lambdas)
    result = pn.gradify_with_scott(tangled_frame, lambdas)
    check_result(result, tangled_frame, lambdas)
    ranks = pn.is_graded(result.output)
    assert ranks is not None
    assert pn.height(result.output) == pn.height(tangled_frame) == 5
    # all branches pad up to the full height: every top has rank 5
    tops = result.output.maximal_elements()
    assert {ranks[t] for t in tops} == {5}
    # tops merge per their image: one top per original top
    assert len(tops) == len(tangled_frame.maximal_elements())


def test_gradify_with_scott_on_graded_tree():
    # a broom: branching only at depth 1 keeps Scott's axiom valid
    tree = validate_poset(
        ["r", "a", "t1", "t2"], [("r", "a"), ("a", "t1"), ("a", "t2")]
    )
    lambdas = [S("2.1")]
    result = pn.gradify_with_scott(tree, lambdas)
    check_result(result, tree, lambdas)
    # distinct top images stay distinct: only padding happens
    assert len(result.output.maximal_elements()) == len(tree.maximal_elements())
    assert pn.height(result.output) == pn.height(tree)


def test_gradify_with_scott_singleton():
    single = validate_poset(["s"], [])
    result = pn.gradify_with_scott(single, [S("2.1")])
    assert len(result.output) == 1
    check_result(result, single)


def test_gradify_with_scott_under_a_depth_two_axiom():
    # the axiom 2 caps the height at 1, so the input comes back as it is
    fork = pn.starlike_tree(S("1^3"))
    lambdas = [S("2.1"), S("2")]
    result = pn.gradify_with_scott(fork, lambdas)
    assert result.output is fork
    assert result.trace == [{"step": "already graded under the depth bound"}]
    check_result(result, fork, lambdas)


def test_gradify_with_scott_preconditions(tangled_frame):
    with pytest.raises(PreconditionViolated):
        pn.gradify_with_scott(tangled_frame, [S("1^3")])  # Scott's signature missing
    with pytest.raises(PreconditionViolated):
        pn.gradify_with_scott(make_antichain(2), [S("2.1")])  # not rooted
    scott_tree = pn.starlike_tree(S("2.1"))
    with pytest.raises(PreconditionViolated):
        pn.gradify_with_scott(scott_tree, [S("2.1")])  # refutes its own axiom


# -- gradification without Scott's signature ---------------------------------------------


def test_gradify_without_scott_two_track_frame(two_track_frame):
    lambdas = [S("2^2")]
    assert pn.validates_sfl(two_track_frame, lambdas)
    result = pn.gradify_without_scott(two_track_frame, lambdas)
    check_result(result, two_track_frame, lambdas)
    assert pn.is_graded(result.output) is not None
    assert pn.height(result.output) == pn.height(two_track_frame)
    assert any(step["step"] == "zigzag" for step in result.trace)


def test_gradify_without_scott_lopsided_frame(lopsided_frame):
    # the frame where naive padding would break 2^2-connectedness
    lambdas = [S("2^2")]
    result = pn.gradify_without_scott(lopsided_frame, lambdas)
    check_result(result, lopsided_frame, lambdas)
    assert pn.is_graded(result.output) is not None
    # connectedness types are preserved pointwise over the tree part
    assert pn.is_alpha_connected(result.output, S("2^2"))


def test_gradify_without_scott_tree_is_padding_free():
    tree = pn.starlike_tree(S("3.1^2"))
    result = pn.gradify_without_scott(tree, [S("2^2")])
    # all last-fibres are singletons: no bridges, output isomorphic to input
    assert pn.are_isomorphic(result.output, tree) is not None


def test_gradify_without_scott_preconditions(two_track_frame):
    with pytest.raises(PreconditionViolated):
        pn.gradify_without_scott(two_track_frame, [S("2.1")])
    with pytest.raises(PreconditionViolated):
        pn.gradify_without_scott(make_antichain(3), [S("2^2")])


def test_gradify_random_rooted_posets():
    rng = random.Random(97)
    done = 0
    for poset in sample_posets(60, 6, seed=97, rooted=True):
        lambdas = rng.choice(LAMBDA_POOL)
        if not pn.validates_sfl(poset, lambdas):
            continue
        done += 1
        if S("2.1") in lambdas:
            result = pn.gradify_with_scott(poset, lambdas)
        else:
            result = pn.gradify_without_scott(poset, lambdas)
        check_result(result, poset, lambdas)
        assert pn.is_graded(result.output) is not None
    assert done >= 20


# -- nervification ------------------------------------------------------------------------


def test_nervify_double_chain(double_chain):
    result = pn.nervify(double_chain)
    check_result(result, double_chain)
    # the two branches over the shared top get joined level by level
    chevrons = [lab for lab in result.output.labels if lab.startswith("w@")]
    assert len(chevrons) == 2
    assert len(result.output) == 11  # nine tree elements plus the ladder
    assert pn.is_graded(result.output) is not None
    # the previously splittable diamond between root and top is now tangled
    for alpha in [S("2.1"), S("2^2"), S("1^3")]:
        assert not any(map(alpha.splits, result.output.diamond_contypes))


def test_nervify_chain_unchanged():
    chain = make_chain(4)
    result = pn.nervify(chain)
    assert pn.are_isomorphic(result.output, chain) is not None


def test_nervify_preconditions(theta_frame):
    with pytest.raises(NotGraded):
        pn.nervify(theta_frame)  # theta_frame is not graded
    with pytest.raises(NotRooted):
        pn.nervify(make_antichain(2))
    # an input that refutes its own axioms is refused before any candidate
    # is built: an up-reduction's image keeps validity, so none could pass
    fork = pn.starlike_tree(S("1^3"))
    with pytest.raises(PreconditionViolated, match="validate its own starlike logic"):
        pn.nervify(fork, [S("1^3")])
    with pytest.raises(ForbiddenSignature):
        pn.nervify(make_chain(3), [S("1^2")])


def test_nervify_makes_diamonds_unsplittable(double_chain):
    for poset in sample_posets(40, 6, seed=101, rooted=True):
        if pn.is_graded(poset) is None:
            continue
        result = pn.nervify(poset)
        check_result(result, poset)
        n = pn.height(poset)
        for alpha in [S("1^3"), S("2.1"), S("2^2"), S("3.1")]:
            assert not any(map(alpha.splits, result.output.diamond_contypes))
        assert all(len(ct) <= 1 or ct == (1, 1) for ct in result.output.diamond_contypes)
        # strict-upset types survive on the tree part, so validity does too
        for alpha in [S("2.1"), S("1^3"), S("2^2")]:
            assert pn.is_alpha_connected(result.output, alpha) == pn.is_alpha_connected(
                poset, alpha
            )


def test_sampled_signatures_split_every_forbidden_diamond_shape():
    # nervify's signature-free verifier relies on this to keep strict
    # diamonds connected or two-point antichains
    shapes = [
        ct
        for k in range(2, 6)
        for ct in combinations_with_replacement(range(4, 0, -1), k)
        if ct != (1, 1)
    ]
    for n in range(1, 9):
        sample = _sample_ample_signatures(n)
        for ct in shapes:
            assert any(alpha.splits(ct) for alpha in sample), (n, ct)


def layered_frame(spec):
    """A frame from layers: "a<b,c; b<d" has every element of a layer below
    every element of the next one, per ';'-separated part."""
    labels, edges = [], []
    for part in spec.split(";"):
        layers = [layer.strip().split(",") for layer in part.split("<")]
        for layer in layers:
            labels.extend(x for x in layer if x not in labels)
        for lower, upper in zip(layers, layers[1:]):
            edges.extend((a, b) for a in lower for b in upper)
    return validate_poset(labels, edges)


def strategy(result):
    """Which nervify candidate won, read off its trace steps."""
    steps = [entry["step"] for entry in result.trace]
    if steps == ["already nerve-connected"]:
        return "identity"
    for step in ("ladder", "split_rung", "chevron"):
        if step in steps:
            return step
    raise AssertionError(f"unknown strategy: {steps}")


@pytest.mark.parametrize(
    "spec, lambdas, winner",
    [
        ("rt<x0", None, "identity"),
        ("rt<x0", "1^3", "identity"),
        ("rt<x0<x1<x4; rt<x2<x3<x4", None, "ladder"),
        ("rt<x0<x1<x4; rt<x2<x3<x4", "1^3", "identity"),
        ("rt<x0<x1<x4; rt<x2<x3<x4", "2.1", "ladder"),
        ("rt<x0,x1,x2<x3", None, "chevron"),
        ("rt<x0,x1,x2<x3", "1^3", "chevron"),
        ("rt<x0,x1,x3; x0,x1<x2; x0,x1,x3<x4", None, "split_rung"),
        ("rt<x0,x1,x3; x0,x1<x2; x0,x1,x3<x4", "1^3", "split_rung"),
    ],
)
def test_nervify_strategies(spec, lambdas, winner):
    poset = layered_frame(spec)
    lambdas = None if lambdas is None else [S(lambdas)]
    result = pn.nervify(poset, lambdas)
    assert strategy(result) == winner
    check_result(result, poset, lambdas, nerve=True)
    assert pn.is_graded(result.output) is not None


@pytest.mark.parametrize("lambdas", [None, [S("2.1")]])
def test_nervify_tries_the_input_before_the_scaffold(monkeypatch, lambdas):
    def unwanted(poset):
        raise AssertionError("the tree scaffold was built for an input that passes")

    monkeypatch.setattr(constructions, "_tree_scaffold", unwanted)
    for poset in [make_chain(4), layered_frame("rt<x0,x1<x2")]:
        result = pn.nervify(poset, lambdas)
        assert strategy(result) == "identity" and result.output is poset


@pytest.mark.parametrize("lambdas", [None, [S("1^3")]])
def test_nervify_refusal_says_what_was_tried(lambdas):
    # both fibres' orderings double-cover a rung that keeps taller structure,
    # so the plan rejects all four and only the input and the ladders remain
    poset = layered_frame("rt<x0,x1,x2; x0,x1,x2<x3,x5; x3<x4")
    with pytest.raises(ConstructionPostconditionFailed) as info:
        pn.nervify(poset, lambdas)
    message = str(info.value)
    assert "2 verified" in message
    assert "4 fibre orderings rejected by the rung plan" in message
    assert "not stopped by the cap of 4096 arrangements" in message


def test_split_rung_copy_sees_one_point_per_top():
    """Copy p%1 of a split rung sees two chevron tops, so the profile check
    refuses the output when ``split`` says it serves one top, and accepts it
    when ``split`` says two."""
    base = validate_poset(["r", "p", "t"], [("r", "p"), ("p", "t")])
    output = validate_poset(
        ["r", "p%1", "p%2", "a", "b", "c"],
        [("r", "p%1"), ("r", "p%2"), ("p%1", "a"), ("p%1", "b"), ("p%2", "c")],
    )
    mapping = {"r": "r", "p%1": "p", "p%2": "p", "a": "t", "b": "t", "c": "t"}
    result = ConstructionResult(output, pn.PMorphism(output, base, frozenset(mapping), mapping))
    assert pn.is_up_reduction(result.witness)
    _check_profiles(result, base, ["a", "b", "c"], {"p%1": 2, "p%2": 1})
    with pytest.raises(ConstructionPostconditionFailed, match=r"'p%1' has profile 1\^2, expected 1$"):
        _check_profiles(result, base, ["a", "b", "c"], {"p%1": 1, "p%2": 1})


# -- the verifier ---------------------------------------------------------------------------

# output, base, witness (None for the identity), checks, message: each
# hand-built result breaks one postcondition. A witness onto a rooted base
# that skips the output's root also lifts the height, so the non-total case
# breaks that too; totality is checked first.
BROKEN = {
    "non-total": ("r<a<t", "b0<b1", {"a": "b0", "t": "b1"}, {}, "total"),
    "non-surjective": ("c0<c1<c2", "b0<y<z; b0<x", {"c0": "y", "c1": "z", "c2": "z"}, {}, "surjective"),
    "unrooted": ("a,b", "s", {"a": "s", "b": "s"}, {}, "rooted"),
    "ungraded": (
        "r<a<b<t; r<c<t",
        "c0<c1<c2<c3",
        {"r": "c0", "a": "c1", "b": "c2", "t": "c3", "c": "c2"},
        {},
        "graded",
    ),
    "changed height": ("c0<c1<c2", "b0<b1", {"c0": "b0", "c1": "b1", "c2": "b1"}, {}, "height"),
    "split upset": ("r<a,b,c", "r<a,b,c", None, {"upsets": [S("1^3")]}, r"lost 1\^3-connectedness"),
    "split diamond": (
        "r<a,b,c<t",
        "r<a,b,c<t",
        None,
        {"upsets": [S("1^3")], "diamonds": [S("1^3")]},
        r"splittable diamond for 1\^3",
    ),
}


@pytest.mark.parametrize("output_spec, base_spec, mapping, checks, message", BROKEN.values(), ids=list(BROKEN))
def test_verifier_refuses_each_broken_postcondition(output_spec, base_spec, mapping, checks, message):
    output, base = layered_frame(output_spec), layered_frame(base_spec)
    mapping = mapping or {lab: lab for lab in output.labels}
    result = ConstructionResult(output, pn.PMorphism(output, base, frozenset(mapping), mapping))
    with pytest.raises(ConstructionPostconditionFailed, match=message):
        _verify(result, base, **checks)


def test_verifier_walks_no_chains(monkeypatch, theta_frame):
    lambdas = {S("2.1"), S("1^3"), S("2^2")}
    walks = []
    chains = pn.FinitePoset.iter_chain_masks

    def counted(poset, budget):
        walks.append(poset)
        return chains(poset, budget)

    monkeypatch.setattr(pn.FinitePoset, "iter_chain_masks", counted)
    # the upset and diamond checks decide the nerve's connectedness, so
    # neither the pipeline nor the verifier enumerates a chain
    result = pn.starlike_witness(theta_frame, lambdas)
    assert walks == []
    _verify(result, theta_frame, upsets=lambdas, diamonds=lambdas)
    assert walks == []
    _verify(result, theta_frame, upsets=lambdas)
    assert walks == []


# -- the full pipeline ----------------------------------------------------------------------


def test_starlike_witness_theta_frame(theta_frame):
    lambdas = [S("2.1")]
    result = pn.starlike_witness(theta_frame, lambdas)
    check_result(result, theta_frame, lambdas, nerve=True)
    assert pn.is_alpha_nerve_connected(result.output, S("2.1"))
    assert pn.is_alpha_connected(pn.nerve(result.output), S("2.1"))


def test_starlike_witness_chain():
    chain = make_chain(4)
    result = pn.starlike_witness(chain, [S("1^3")])
    check_result(result, chain, [S("1^3")], nerve=True)
    assert pn.are_isomorphic(result.output, chain) is not None


def test_starlike_witness_trace_export(theta_frame):
    result = pn.starlike_witness(theta_frame, [S("2.1")])
    trace = json.loads(result.trace_json())
    assert isinstance(trace, list) and trace
    assert all("step" in step for step in trace)


RESISTANT_FRAME = "rt<x0,x1,x2; x0,x2<x3; x1,x3<x4,x5"


def test_resistant_frame_fails_honestly():
    """A frame of the convex-polyhedra logic that the pipeline's candidate
    families do not cover: the back condition plants a tall chain and a
    stray point over every maximal root preimage, the Scott axiom demands
    they connect, and every connecting top that gradify and nervify build
    splits a diamond. A witness does exist outside those families (see
    test_resistant_frame_has_a_certified_witness), so the refusal is the
    pipeline's limit, not the frame's. The pipeline must refuse with a
    postcondition error rather than return an unverified output."""
    frame = layered_frame(RESISTANT_FRAME)
    lambdas = [S("2.1"), S("1^3")]
    assert pn.validates_sfl(frame, lambdas)
    with pytest.raises(ConstructionPostconditionFailed):
        pn.starlike_witness(frame, lambdas)


def test_resistant_frame_has_a_certified_witness():
    """A 10-element graded frame of height 3 reduces onto the resistant
    frame and passes the pipeline's final verifier; its materialised nerve
    validates the logic too."""
    frame = layered_frame(RESISTANT_FRAME)
    cover = layered_frame(
        "g0<g1,g3,g7; g1<g4,g8; g2<g5,g6; g3<g4,g9; g4<g5,g6; g7<g2,g8,g9; g8<g5; g9<g6"
    )
    mapping = dict(zip([f"g{i}" for i in range(10)], "rt x0 x1 x2 x3 x4 x5 x1 x4 x5".split()))
    lambdas = [S("2.1"), S("1^3")]
    witness = pn.PMorphism(cover, frame, frozenset(mapping), mapping)
    assert pn.is_up_reduction(witness)
    assert pn.is_graded(cover) is not None and pn.height(cover) == pn.height(frame) == 3
    _verify(ConstructionResult(cover, witness), frame, upsets=lambdas, diamonds=lambdas)
    for alpha in lambdas:
        assert pn.is_alpha_nerve_connected(cover, alpha)
        assert pn.nerve_is_alpha_connected(cover, alpha)
    nerve = pn.nerve(cover)
    assert len(nerve) == 77 and pn.validates_sfl(nerve, lambdas)


def test_starlike_witness_random_pipeline():
    rng = random.Random(103)
    done = 0
    for poset in sample_posets(60, 6, seed=103, rooted=True):
        lambdas = rng.choice(LAMBDA_POOL)
        if not pn.validates_sfl(poset, lambdas):
            continue
        done += 1
        result = pn.starlike_witness(poset, lambdas)
        check_result(result, poset, lambdas)
        for alpha in lambdas:
            assert pn.is_alpha_nerve_connected(result.output, alpha)
            assert pn.nerve_is_alpha_connected(result.output, alpha)
    assert done >= 20


# -- byte identity ---------------------------------------------------------------------------


def construction_lines():
    """One line per construction call on 60 seeded rooted frames of 4-8
    elements: nervify without Lambda on every graded frame, and for every
    pool entry the frame validates, its gradify regime, the pipeline and
    (on graded frames) nervify with Lambda. A line holds the output, the
    witness and the trace as JSON, or the class of the refusal."""
    rng = random.Random(211)
    for k in range(60):
        frame = pn.random_rooted_poset(rng.randint(4, 8), rng)
        graded = pn.is_graded(frame) is not None
        calls = [("nervify", pn.nervify, (frame,))] if graded else []
        for lambdas in LAMBDA_POOL:
            if not pn.validates_sfl(frame, lambdas):
                continue
            gradify = pn.gradify_with_scott if S("2.1") in lambdas else pn.gradify_without_scott
            calls += [("gradify", gradify, (frame, lambdas)), ("witness", pn.starlike_witness, (frame, lambdas))]
            if graded:
                calls.append(("nervify_lambdas", pn.nervify, (frame, lambdas)))
        for name, fn, args in calls:
            try:
                result = fn(*args)
                out = result.output.to_json() + result.witness.to_json() + result.trace_json()
            except PolynerveError as exc:
                out = "refused " + type(exc).__name__
            yield f"{k} {name} {out}"


def test_construction_bytes_are_pinned():
    """Outputs, witnesses and traces of every construction stay byte for
    byte what they were when the digest was recorded; CI reruns this file
    under a second hash seed."""
    digest = hashlib.sha256()
    count = 0
    for line in construction_lines():
        digest.update(line.encode() + b"\n")
        count += 1
    assert count == 463
    assert digest.hexdigest() == "8364be768e76a1712bbe20456ec8866ac4a9d95041cb9261cdce25fd08cb5c04"


def test_every_candidate_is_pinned(monkeypatch):
    """Every candidate a construction hands to its checks, losers included,
    stays byte for byte what it was when the digest was recorded: over the
    calls of ``construction_lines`` and, with and without an axiom, the
    frames of ``test_nervify_strategies`` and the refused frame. The pin
    above sees only what each call returns."""
    digest = hashlib.sha256()
    calls = 0

    def hashed(check):
        def wrapper(result, *args, **kwargs):
            nonlocal calls
            calls += 1
            text = check.__name__ + result.output.to_json() + result.witness.to_json() + result.trace_json()
            digest.update(text.encode() + b"\n")
            return check(result, *args, **kwargs)

        return wrapper

    for name in ("_check_profiles", "_verify"):
        monkeypatch.setattr(constructions, name, hashed(getattr(constructions, name)))
    for _ in construction_lines():
        pass
    frames = [
        "rt<x0",
        "rt<x0<x1<x4; rt<x2<x3<x4",
        "rt<x0,x1,x2<x3",
        "rt<x0,x1,x3; x0,x1<x2; x0,x1,x3<x4",
        "rt<x0,x1,x2; x0,x1,x2<x3,x5; x3<x4",
    ]
    for spec in frames:
        for lambdas in (None, [S("1^3")], [S("2.1")]):
            try:
                pn.nervify(layered_frame(spec), lambdas)
            except PolynerveError:
                pass
    assert calls == 1251
    assert digest.hexdigest() == "6952318456b4ee0269a7de3911c25f89e152c0d6fc2cf81d57726eea5d8e89e5"
