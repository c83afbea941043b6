import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import polynerve as pn
from polynerve import Signature, validate_poset
from polynerve.starlike import alpha_blocks
from polynerve.errors import (
    CycleDetected,
    EmptyPoset,
    IndexOutOfRange,
    LabelCollision,
    NotATree,
    NotComparable,
    NotRooted,
    SizeBudgetExceeded,
    UnknownElement,
)

from conftest import (
    _longest_chain_size,
    bitwise_covers_up,
    brute_chains,
    brute_components,
    brute_is_graded,
    down_bit_chain_heights,
    exhaustive_width,
    make_antichain,
    make_chain,
    recursive_chain_masks,
    sample_posets,
    scanned_strict_up_types,
    searched_diamond_contypes,
    searched_strict_down_contypes,
    searched_strict_up_contypes,
)

S = Signature.parse


# -- construction ---------------------------------------------------------------


def test_theta_frame_shape(theta_frame):
    assert len(theta_frame) == 5
    assert pn.height(theta_frame) == 3


def test_singleton_and_cycle():
    single = validate_poset(["x"], [])
    assert pn.height(single) == 0
    with pytest.raises(CycleDetected):
        validate_poset(["x", "y"], [("x", "y"), ("y", "x")])


def test_duplicate_and_unknown_labels():
    with pytest.raises(pn.errors.DuplicateLabel):
        validate_poset(["x", "x"], [])
    with pytest.raises(UnknownElement):
        validate_poset(["x"], [("x", "y")])


def test_closure_is_idempotent(theta_frame):
    again = validate_poset(theta_frame.labels, theta_frame.cover_edges())
    assert again == theta_frame
    # rebuilding from the full relation changes nothing either
    full = [
        (a, b)
        for a in theta_frame.labels
        for b in theta_frame.labels
        if theta_frame.lt(a, b)
    ]
    assert validate_poset(theta_frame.labels, full) == theta_frame


# -- upsets, heights, width ----------------------------------------------------------


def test_up_down_sets(theta_frame):
    assert pn.strict_up(theta_frame, "r") == {"a1", "a2", "b", "t"}
    assert pn.up_set(theta_frame, "b") == {"b", "t"}
    assert pn.down_set(theta_frame, "b") == {"r", "b"}
    assert pn.strict_down(theta_frame, "r") == frozenset()
    single = validate_poset(["x"], [])
    assert pn.strict_up(single, "x") == frozenset()
    chain3 = make_chain(3)
    assert pn.down_set(chain3, "x1") == {"x0", "x1"}
    with pytest.raises(UnknownElement):
        pn.up_set(theta_frame, "zz")


def test_heights_and_depths(theta_frame):
    assert pn.height(theta_frame) == 3  # longest chain r<a1<a2<t
    assert pn.depth_of(theta_frame, "b") == 1
    assert pn.height_of(theta_frame, "t") == 3
    assert pn.height(make_antichain(4)) == 0
    with pytest.raises(EmptyPoset):
        pn.height(validate_poset([], []))


def test_width(theta_frame):
    assert pn.width(theta_frame) == 2  # {a1, b}
    assert pn.width(make_chain(5)) == 1
    assert pn.width(make_antichain(4)) == 4
    assert pn.width(make_antichain(21)) == 21
    with pytest.raises(EmptyPoset):
        pn.width(validate_poset([], []))


def test_width_matches_exhaustive_search():
    for poset in sample_posets(120, 12, seed=17):
        assert pn.width(poset) == exhaustive_width(poset)


# -- components and connectedness types ----------------------------------------------


def test_components(theta_frame):
    above_r = theta_frame.restrict(pn.strict_up(theta_frame, "r"))
    assert len(pn.connected_components(above_r)) == 1
    two = validate_poset(["a1", "a2", "b"], [("a1", "a2")])
    assert sorted(map(sorted, pn.connected_components(two))) == [["a1", "a2"], ["b"]]
    assert pn.connected_components(validate_poset([], [])) == []


def test_components_partition_and_are_clopen():
    for poset in sample_posets(25, 7, seed=11):
        comps = pn.connected_components(poset)
        assert sorted(lab for c in comps for lab in c) == sorted(poset.labels)
        for comp in comps:
            for lab in comp:
                assert pn.up_set(poset, lab) <= comp
                assert pn.down_set(poset, lab) <= comp
        assert comps == brute_components(poset) or sorted(
            map(sorted, comps)
        ) == sorted(map(sorted, brute_components(poset)))


def test_con_type(theta_frame):
    between = theta_frame.restrict(pn.strict_diamond(theta_frame, "r", "t"))
    assert pn.con_type(between) == S("2.1")
    assert pn.con_type(validate_poset([], [])) == S("e")
    for poset in sample_posets(10, 6, seed=3):
        if len(pn.connected_components(poset)) == 1 and not poset.is_empty:
            assert pn.con_type(poset) == Signature(((pn.height(poset) + 1, 1),))


# -- gradedness ------------------------------------------------------------------------


def test_graded_examples(theta_frame):
    tree = pn.starlike_tree(S("3.1^2"))
    assert pn.is_graded(tree) is not None
    # two maximal chains of different lengths below d
    lopsided = validate_poset(
        ["a", "b", "c", "d", "e", "f"],
        [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d"), ("a", "e"), ("e", "f"), ("f", "d")],
    )
    assert pn.is_graded(lopsided) is None
    ranks = pn.is_graded(theta_frame)
    assert ranks is None  # r<b<t vs r<a1<a2<t disagree below t


def test_graded_matches_maximal_chain_oracle():
    for poset in sample_posets(40, 6, seed=7):
        assert (pn.is_graded(poset) is not None) == brute_is_graded(poset)


def test_rank_function_values():
    chain = make_chain(4)
    assert pn.is_graded(chain) == {"x0": 0, "x1": 1, "x2": 2, "x3": 3}


# -- diamonds and completion -------------------------------------------------------------


def test_diamonds(theta_frame):
    assert pn.strict_diamond(theta_frame, "r", "t") == {"a1", "a2", "b"}
    assert pn.diamond(theta_frame, "r", "t") == {"r", "a1", "a2", "b", "t"}
    assert pn.strict_diamond(theta_frame, "a1", "a2") == frozenset()
    chain = make_chain(3)
    assert pn.strict_diamond(chain, "x0", "x2") == {"x1"}
    with pytest.raises(NotComparable):
        pn.strict_diamond(theta_frame, "a1", "b")


def test_check_completion(theta_frame):
    done = pn.check_completion(theta_frame)
    assert len(done) == 6
    assert pn.up_set(done, "r") == set(done.labels)
    assert pn.strict_up(done, "t") == {"inf"}
    two = pn.check_completion(make_antichain(2))
    assert len(two) == 3 and pn.height(two) == 1
    lone = pn.check_completion(validate_poset([], []))
    assert len(lone) == 1
    with pytest.raises(LabelCollision):
        pn.check_completion(validate_poset(["inf"], []))


# -- trees --------------------------------------------------------------------------------


def test_is_tree(theta_frame):
    assert not pn.is_tree(theta_frame)
    assert pn.is_tree(pn.starlike_tree(S("2.1")))
    assert pn.is_tree(make_chain(4))
    assert not pn.is_tree(make_antichain(2))


def test_tree_unravelling(theta_frame):
    tree, last = pn.tree_unravelling(theta_frame)
    assert pn.is_tree(tree)
    branch_lengths = sorted(
        pn.height_of(tree, lab) + 1
        for lab in tree.maximal_elements()
    )
    assert branch_lengths == [3, 4]  # r/b/t and r/a1/a2/t
    assert pn.is_up_reduction(last)
    # a tree unravels to itself
    star = pn.starlike_tree(S("2.1"))
    tree2, _ = pn.tree_unravelling(star)
    assert pn.are_isomorphic(tree2, star) is not None
    with pytest.raises(NotRooted):
        pn.tree_unravelling(make_antichain(2))


def test_chain_element_at():
    chain = make_chain(4)
    assert pn.chain_element_at(chain, "x3", 0) == "x0"
    assert pn.chain_element_at(chain, "x3", -1) == "x2"
    assert pn.chain_element_at(chain, "x2", 1) == "x1"
    with pytest.raises(IndexOutOfRange):
        pn.chain_element_at(chain, "x1", 3)
    with pytest.raises(NotATree):
        pn.chain_element_at(make_antichain(2), "x0", 0)


# -- the order kernel on arbitrary masks -------------------------------------------------------


def _kernel_cases(seed):
    """Seeded posets of up to 9 elements, each with random sub-masks."""
    rng = random.Random(seed)
    for poset in sample_posets(40, 9, seed=seed):
        masks = {0, poset.full_mask} | {rng.getrandbits(poset.n) for _ in range(6)}
        yield poset, sorted(masks)


def test_heights_and_depths_match_longest_chains():
    for poset, _ in _kernel_cases(23):
        for x in poset.labels:
            below = [y for y in poset.labels if poset.leq(y, x)]
            above = [y for y in poset.labels if poset.leq(x, y)]
            assert pn.height_of(poset, x) == _longest_chain_size(poset, below) - 1
            assert pn.depth_of(poset, x) == _longest_chain_size(poset, above) - 1


def test_mask_kernel_matches_oracles():
    for poset, masks in _kernel_cases(29):
        for mask in masks:
            members = poset.labels_of(mask)
            assert poset.mask_height(mask) == _longest_chain_size(poset, members) - 1
            sub = poset.restrict(members)
            comps = brute_components(sub)
            want = sorted((_longest_chain_size(sub, c) for c in comps), reverse=True)
            assert poset.contype_of_mask(mask) == tuple(want)


def test_interval_type_tables_match_the_per_set_types():
    # the tables read component heights off depths, heights and one pass per
    # bottom; contype_of_mask runs its own pass on each set
    frames = sample_posets(60, 9, seed=41) + sample_posets(60, 9, seed=43, rooted=True)
    for poset in frames:
        ups = [poset.strict_up_mask(i) for i in range(poset.n)]
        downs = [poset.strict_down_mask(i) for i in range(poset.n)]
        assert poset.strict_up_contypes == tuple(map(poset.contype_of_mask, ups))
        pairs = [(i, j) for i in range(poset.n) for j in range(poset.n) if ups[i] >> j & 1]
        diamonds = {poset.contype_of_mask(ups[i] & downs[j]) for i, j in pairs}
        assert poset.diamond_contypes == diamonds
        every = {*poset.strict_up_contypes, *diamonds, *map(poset.contype_of_mask, downs)}
        assert poset._nerve_contypes == tuple(sorted(every))


def test_interval_type_tables_take_one_pass_per_bottom(monkeypatch):
    passes = []
    chain_heights = pn.FinitePoset._chain_heights

    def counted(poset, mask, dual=False):
        passes.append(mask)
        return chain_heights(poset, mask, dual)

    monkeypatch.setattr(pn.FinitePoset, "_chain_heights", counted)
    for poset in [make_chain(12), make_antichain(5)] + sample_posets(20, 9, seed=47, rooted=True):
        passes.clear()
        poset._nerve_contypes
        # heights, depths and one pass over each element's strict upset
        assert len(passes) <= poset.n + 2


def test_masks_outside_the_elements_are_refused():
    # a bit at or above n, or a negative mask (an infinite run of bits),
    # names no subset of the elements
    chain = make_chain(3)
    calls = (chain.contype_of_mask, chain.mask_height, lambda mask: alpha_blocks(chain, mask, 1))
    for mask in (1 << 5, 0b1001, 1 << 3, -1, -8):
        for call in calls:
            with pytest.raises(IndexOutOfRange, match="^mask is negative or has a bit at or above 3,"):
                call(mask)
    assert chain.contype_of_mask(0b111) == (3,) and chain.mask_height(0b101) == 1
    empty = pn.FinitePoset([], [])
    assert empty.contype_of_mask(0) == () and empty.mask_height(0) == -1
    with pytest.raises(IndexOutOfRange):
        empty.mask_height(1)


def test_alpha_blocks_are_an_alpha_partition():
    rng = random.Random(31)
    for poset, masks in _kernel_cases(31):
        for mask in masks:
            contype = poset.contype_of_mask(mask)
            for _ in range(4):
                alpha = Signature.from_heights(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
                if not alpha.splits(contype):
                    continue
                blocks = alpha_blocks(poset, mask, alpha.size)
                assert len(blocks) == alpha.size
                covered = 0
                for block, want in zip(blocks, alpha.heights):
                    assert block and not block & covered and not block & ~mask
                    covered |= block
                    for i in range(poset.n):
                        if block >> i & 1:
                            assert not poset.up_mask(i) & mask & ~block  # up-closed in mask
                    assert _longest_chain_size(poset, poset.labels_of(block)) >= want
                assert covered == mask


def test_chain_element_at_on_tree_unravellings():
    for poset in sample_posets(15, 6, seed=37, rooted=True):
        tree, _ = pn.tree_unravelling(poset)
        for x in tree.labels:
            h = pn.height_of(tree, x)
            below = [y for y in tree.labels if tree.leq(y, x)]
            for k in range(-h, h + 1):
                y = pn.chain_element_at(tree, x, k)
                assert y in below
                assert pn.height_of(tree, y) == (h + k if k < 0 else k)
            for k in (h + 1, -h - 1):
                with pytest.raises(IndexOutOfRange):
                    pn.chain_element_at(tree, x, k)


# -- chains ---------------------------------------------------------------------------------


def test_chain_count_matches_oracle(theta_frame):
    assert theta_frame.count_chains() == len(brute_chains(theta_frame)) == 19
    for poset in sample_posets(20, 6, seed=5):
        chains = {poset.labels_of(m) for m in poset.iter_chain_masks()}
        assert chains == set(brute_chains(poset))
        assert poset.count_chains() == len(chains)
    for poset, _ in _kernel_cases(41):
        assert poset.count_chains() == len(brute_chains(poset))


def _walk(chains):
    """The chains yielded, then the budget refusal if there is one."""
    out = []
    try:
        out.extend(chains)
    except SizeBudgetExceeded as exc:
        out.append(str(exc))
    return out


def test_chain_walk_matches_recursive_oracle():
    rng = random.Random(43)
    for poset, _ in _kernel_cases(43):
        chains = list(poset.iter_chain_masks())
        assert chains == list(recursive_chain_masks(poset))
        budget = rng.randint(0, len(chains))
        walked = _walk(poset.iter_chain_masks(budget=budget))
        assert walked == _walk(recursive_chain_masks(poset, budget=budget))
        assert walked[-1] == f"chains: {budget + 1} over the budget of {budget}" or budget == len(chains)
    assert list(pn.FinitePoset([], []).iter_chain_masks()) == []


def test_covers_match_the_bitwise_oracle():
    for poset in sample_posets(250, 12, seed=47) + sample_posets(250, 12, seed=53, rooted=True):
        assert poset.covers_up == bitwise_covers_up(poset)
    assert pn.FinitePoset([], []).covers_up == ()


def test_covers_scale_on_long_chains():
    # each strict upset of a chain leaves the walk at its first element;
    # testing every element of it against the upset is quadratic
    chain = make_chain(1100)
    assert chain.down_mask(1099)  # the downsets are shared, so built first
    started = time.perf_counter()
    covers = chain.covers_up
    assert time.perf_counter() - started < 0.1
    assert covers == tuple((i + 1,) for i in range(1099)) + ((),)


def _strict_upset_cases():
    cases = sample_posets(150, 9, seed=59) + sample_posets(150, 9, seed=61, rooted=True)
    cases += [pn.nerve(poset) for poset in sample_posets(30, 5, seed=67, rooted=True)]
    cases += [make_antichain(size) for size in range(4)] + [make_chain(6), pn.FinitePoset([], [])]
    return cases


def test_strict_up_types_from_covers_match_the_component_search():
    for poset in _strict_upset_cases():
        assert poset.strict_up_contypes == searched_strict_up_contypes(poset), poset


def test_strict_up_types_from_covers_on_a_long_chain():
    # one cover per element: once the covers and depths are known the types
    # take one step each, 0.0014 s at 1100 elements against 0.26 s for the
    # component search (2 cores, CPython 3.11.7)
    chain = make_chain(1100)
    assert chain.covers_up and chain.depths
    started = time.perf_counter()
    contypes = chain.strict_up_contypes
    assert time.perf_counter() - started < 0.1
    assert contypes == tuple((1099 - i,) for i in range(1099)) + ((),)
    assert contypes == searched_strict_up_contypes(chain)


def test_cover_pass_and_interval_tables_match_the_former_kernels():
    # the cover pass against the former pass over every member below, on
    # random masks, convex or not; the three interval tables against one
    # component search per set
    rng = random.Random(73)
    cases = _strict_upset_cases() + [pn.tree_unravelling(p)[0] for p in sample_posets(20, 5, seed=79, rooted=True)]
    for poset in cases:
        full = poset.full_mask
        assert poset.heights == tuple(down_bit_chain_heights(poset, full)[i] for i in range(poset.n))
        assert poset.depths == tuple(down_bit_chain_heights(poset, full, dual=True)[i] for i in range(poset.n))
        for mask in [0, full] + [rng.getrandbits(poset.n) for _ in range(6)]:
            for dual in (False, True):
                got, want = poset._chain_heights(mask, dual), down_bit_chain_heights(poset, mask, dual)
                assert {i: got[i] for i in want} == want, (poset, mask, dual)
        downs = poset._grouped_types(poset.covers_down, poset._down, poset.heights)
        assert tuple(downs) == searched_strict_down_contypes(poset), poset
        assert poset.strict_up_contypes == searched_strict_up_contypes(poset), poset
        assert poset.diamond_contypes == searched_diamond_contypes(poset), poset


def test_nerve_types_on_a_long_chain():
    # each interval of a chain is a chain, one cover per element, so the
    # tables take one pass per bottom and one step per cover: about n²,
    # 1.0 s at 1100 elements where the component searches took n³, 9.5 s
    # at 400 (2 cores, CPython 3.11.7)
    chain = make_chain(1100)
    started = time.perf_counter()
    assert chain._nerve_contypes == ((),) + tuple((k,) for k in range(1, 1100))
    assert time.perf_counter() - started < 20
    assert pn.nerve_is_alpha_connected(chain, S("2.1")) and not pn.nerve_is_alpha_connected(chain, S("1"))


def test_type_index_matches_the_element_scan():
    for poset in _strict_upset_cases():
        assert list(poset._strict_up_types.items()) == scanned_strict_up_types(poset), poset


def test_cover_dag_constructors_keep_the_cover_relation():
    # nerves, face posets, tree unravellings and starlike trees keep the
    # covers they were built from, and their index order as the linear
    # extension; the covers, and the heights and depths read off them, must
    # equal what a poset with the same order computes afresh
    built = [pn.starlike_tree(S(text)) for text in ("e", "1", "3.1", "2^2.1", "1^4")]
    for poset in sample_posets(25, 6, seed=71, rooted=True):
        built += [pn.nerve(poset), pn.tree_unravelling(poset)[0]]
        built.append(pn.face_poset(pn.geometric_realization(poset)))
    for poset in built:
        fresh = pn.FinitePoset(poset.labels, poset._up)
        assert "covers_up" in vars(poset) and "_extension" in vars(poset)
        assert poset.covers_up == fresh.covers_up == bitwise_covers_up(poset)
        assert poset.heights == fresh.heights
        assert poset.depths == fresh.depths


def test_nerves_and_face_posets_hand_over_their_lower_covers():
    # nerve and the face poset set covers_down from the loops that build
    # their upper covers; it must equal, ascending, what a poset with the
    # same order rebuilds from its upper covers
    built = []
    for poset in sample_posets(25, 6, seed=73):
        nrv = pn.nerve(poset)
        built += [nrv, pn.face_poset(pn.geometric_realization(poset))]
        if nrv.count_chains() <= 5000:
            built.append(pn.nerve(nrv))
    triangle = pn.validate_complex(pn.Simplex(((0, 0), (1, 0), (0, 1))).faces())
    farey = pn.elementary_farey(triangle, triangle.sorted_simplices[-1])
    built += [pn.face_poset(pn.derived(triangle, 2)), pn.face_poset(farey)]
    for poset in built:
        fresh = pn.FinitePoset(poset.labels, poset._up)
        assert "covers_down" in vars(poset)
        assert poset.covers_down == fresh.covers_down
        assert all(list(below) == sorted(below) for below in poset.covers_down)
    assert sum(poset.n for poset in built) > 700


# -- serialisation -----------------------------------------------------------------------------


def test_json_round_trip(theta_frame):
    assert pn.FinitePoset.from_json(theta_frame.to_json()) == theta_frame


def test_dot_output(theta_frame):
    dot = theta_frame.to_dot()
    assert '"r" -> "a1";' in dot
    assert '"r" -> "t";' not in dot  # covering relation only


# -- invariants ------------------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30), st.integers(2, 6))
def test_height_split_inequality(seed, size):
    poset = sample_posets(1, size, seed=seed)[0]
    h = pn.height(poset)
    splits = []
    for x in poset.labels:
        up = poset.restrict(pn.up_set(poset, x))
        split = pn.height_of(poset, x) + pn.height(up)
        assert split <= h
        splits.append(split)
    # elements on a longest chain witness equality
    assert max(splits) == h
