"""Shared fixtures: a handful of small worked frames, plus deliberately
naive brute-force oracles that the fast implementations are tested against.
The brute-force oracles only ever use itertools-style enumeration, never the
package's own machinery beyond basic order lookups. The replaced algorithms
kept as differential oracles (exhaustive_width, backtracking_isomorphism,
refine_isomorphism, stellar_subdivision, all_pairs_check_complex,
lp_intersection_is_common_face, bounding_boxes_apart, scan_carrier,
scan_open_star, pairwise_open_implies, per_face_stellar,
volume_refinement_oracle, former_is_refinement, former_from_json,
former_sorted_simplices, former_homogeneous, former_locate, former_facets,
former_maximal, former_face_poset, former_to_json,
fraction_lp_maximize, fraction_solve_exact, fraction_rank_exact,
fraction_determinant, naive_counter_valuation, staged_counter_valuation,
interval_counter_valuation,
completion_diamond_connected, completion_nerve_connected,
recursive_parse_formula, recursive_chain_masks, walked_nerve_contypes,
bitwise_covers_up, down_bit_chain_heights, searched_typed_components,
searched_contype, searched_strict_up_contypes, searched_strict_down_contypes,
searched_diamond_contypes, scanned_strict_up_types,
scanned_starlike_reduction, recursive_search_up_reduction, recursive_monotone_surjection) reuse the
package primitives they were built on: the comparability masks, elementary
stellar moves, the exact LP, barycentric coordinates, the
face relation of simplices, the upset listing, the completion with a
synthetic top, the tokenizer and formula nodes, and the order masks. The
recursive ones recurse once per level of nesting, so they are run only on
inputs shallow enough for the interpreter's stack. solve_exact and
determinant are the Fraction front ends of exactla's integer solver and
integer determinant, which only tests use."""
from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, product
from math import lcm, prod

import pytest

from polynerve import (
    FinitePoset,
    RationalComplex,
    Signature,
    Simplex,
    check_completion,
    elementary_stellar,
    is_alpha_connected,
    rational_point,
    validate_complex,
    validate_poset,
)
from polynerve.errors import (
    BadIntersection,
    MalformedInput,
    NotDownwardClosed,
    ParseError,
    PointOutsideSupport,
    SearchBudgetExceeded,
    SizeBudgetExceeded,
)
from polynerve.exactla import _integer_determinant, _integer_row, _solve_integer
from polynerve import formulas
from polynerve.formulas import FALSE, TRUE, And, Const, Imp, Neg, Or, Var, _tokenize
from polynerve.morphisms import PMorphism, is_up_reduction
from polynerve.posets import SIZE_BUDGET, _bits, poset_from_cover_dag
from polynerve import geometry
from polynerve.geometry import _format_point
from polynerve.semantics import VALUATION_BUDGET, UpsetAlgebra, _flatten
from polynerve.randposets import random_poset, random_rooted_poset


# -- the worked examples -------------------------------------------------------


@pytest.fixture
def theta_frame():
    """Five elements shaped like a theta: r below a1<a2 and b, both below t."""
    return validate_poset(
        ["r", "a1", "a2", "b", "t"],
        [("r", "a1"), ("a1", "a2"), ("r", "b"), ("a2", "t"), ("b", "t")],
    )


@pytest.fixture
def tangled_frame():
    """An eleven-element rooted frame with branches of assorted lengths."""
    return validate_poset(
        ["a0", "b0", "b1", "b2", "c0", "c1", "c2", "d1", "d2", "e1", "f1"],
        [
            ("a0", "b0"),
            ("a0", "b1"),
            ("a0", "b2"),
            ("b0", "c0"),
            ("b1", "c1"),
            ("c1", "c0"),
            ("b2", "c2"),
            ("c2", "c1"),
            ("c2", "d1"),
            ("d1", "e1"),
            ("e1", "c0"),
            ("e1", "f1"),
            ("c2", "d2"),
            ("d2", "f1"),
        ],
    )


@pytest.fixture
def lopsided_frame():
    """A frame where naive branch padding would break 2^2-connectedness."""
    return validate_poset(
        ["a", "b1", "b2", "c", "d", "f1", "f2"],
        [
            ("a", "b1"),
            ("b1", "b2"),
            ("b2", "d"),
            ("a", "c"),
            ("c", "d"),
            ("c", "f1"),
            ("f1", "f2"),
        ],
    )


@pytest.fixture
def two_track_frame():
    """A two-top frame whose gradification needs zigzag bridges."""
    return validate_poset(
        ["a", "b3", "c3", "d3", "e3", "b1", "e2", "n"],
        [
            ("a", "b3"),
            ("b3", "c3"),
            ("c3", "d3"),
            ("d3", "e3"),
            ("a", "b1"),
            ("b1", "e3"),
            ("b1", "e2"),
            ("e2", "n"),
        ],
    )


@pytest.fixture
def double_chain():
    """Two parallel 3-chains from a shared root to a shared top."""
    return validate_poset(
        ["r", "b1", "b2", "b3", "c1", "c2", "c3", "t"],
        [
            ("r", "b1"),
            ("b1", "b2"),
            ("b2", "b3"),
            ("b3", "t"),
            ("r", "c1"),
            ("c1", "c2"),
            ("c2", "c3"),
            ("c3", "t"),
        ],
    )


def make_chain(length: int) -> FinitePoset:
    labels = [f"x{i}" for i in range(length)]
    return validate_poset(labels, list(zip(labels, labels[1:])))


def make_antichain(size: int) -> FinitePoset:
    return validate_poset([f"x{i}" for i in range(size)], [])


# -- brute-force oracles ---------------------------------------------------------


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def brute_chains(poset: FinitePoset):
    """Every nonempty chain, by filtering all subsets for pairwise
    comparability."""
    out = []
    for subset in powerset(poset.labels):
        if not subset:
            continue
        if all(
            poset.leq(a, b) or poset.leq(b, a) for a, b in combinations(subset, 2)
        ):
            out.append(frozenset(subset))
    return out


def brute_maximal_chains(poset: FinitePoset, within=None):
    """All inclusion-maximal chains inside the given subset (default all)."""
    ground = set(within) if within is not None else set(poset.labels)
    chains = [c for c in brute_chains(poset.restrict(ground))] if ground else []
    return [c for c in chains if not any(c < d for d in chains)]


def brute_is_graded(poset: FinitePoset) -> bool:
    """All maximal chains below each element have one shared length."""
    for x in poset.labels:
        down = [lab for lab in poset.labels if poset.leq(lab, x)]
        lengths = {len(c) for c in brute_maximal_chains(poset, down)}
        if len(lengths) > 1:
            return False
    return True


def brute_components(poset: FinitePoset):
    remaining = set(poset.labels)
    comps = []
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        changed = True
        while changed:
            changed = False
            for lab in list(remaining):
                if any(poset.leq(lab, c) or poset.leq(c, lab) for c in comp):
                    comp.add(lab)
                    remaining.discard(lab)
                    changed = True
        comps.append(frozenset(comp))
    return comps


def _longest_chain_size(poset: FinitePoset, members) -> int:
    snapshot = list(members)
    order = sorted(snapshot, key=lambda lab: sum(poset.leq(m, lab) for m in snapshot))
    best = {}
    for lab in order:
        below = [best[m] for m in order if m != lab and m in best and poset.leq(m, lab)]
        best[lab] = 1 + max(below, default=0)
    return max(best.values(), default=0)


def brute_has_alpha_partition(poset: FinitePoset, alpha: Signature) -> bool:
    """Exhaustively try every assignment of elements to |alpha| blocks and
    look for an open partition with the demanded heights."""
    k = alpha.size
    if k == 0:
        return poset.is_empty
    if poset.is_empty:
        return False
    labels = list(poset.labels)
    heights = alpha.heights
    for assignment in product(range(k), repeat=len(labels)):
        blocks = [
            [lab for lab, block in zip(labels, assignment) if block == j]
            for j in range(k)
        ]
        if any(not b for b in blocks):
            continue
        ok = True
        for j, block in enumerate(blocks):
            members = set(block)
            # open = upward closed
            if any(
                poset.leq(a, b) and b not in members
                for a in members
                for b in labels
            ):
                ok = False
                break
            if _longest_chain_size(poset, members) - 1 < heights[j] - 1:
                ok = False
                break
        if ok:
            return True
    return False


def completion_diamond_connected(poset: FinitePoset, alpha: Signature) -> bool:
    """Diamond-connectedness as first defined: no strict diamond of the
    materialised completion (the poset plus a top labelled "inf") splits."""
    return not any(map(alpha.splits, check_completion(poset).diamond_contypes))


def completion_nerve_connected(poset: FinitePoset, alpha: Signature) -> bool:
    return is_alpha_connected(poset, alpha) and completion_diamond_connected(poset, alpha)


def brute_upsets(poset: FinitePoset):
    out = []
    for subset in powerset(poset.labels):
        members = set(subset)
        if all(
            b in members
            for a in members
            for b in poset.labels
            if poset.leq(a, b)
        ):
            out.append(frozenset(members))
    return out


def brute_up_reduction_exists(poset: FinitePoset, target: FinitePoset) -> bool:
    """Unpruned search over every up-closed domain and every map on it."""
    targets = list(target.labels)
    for domain in brute_upsets(poset):
        if not domain:
            continue
        dom = sorted(domain)
        for values in product(targets, repeat=len(dom)):
            f = dict(zip(dom, values))
            if set(values) != set(targets):
                continue
            if _is_p_morphism_bruteforce(poset, target, f):
                return True
    return False


def _is_p_morphism_bruteforce(poset, target, mapping) -> bool:
    dom = list(mapping)
    for x in dom:
        for y in dom:
            if poset.leq(x, y) and not target.leq(mapping[x], mapping[y]):
                return False
    for x in dom:
        for z in target.labels:
            if target.leq(mapping[x], z):
                if not any(
                    poset.leq(x, y) and mapping[y] == z for y in dom
                ):
                    return False
    return True


def exhaustive_width(poset: FinitePoset) -> int:
    """The package's former width: the largest antichain found by growing
    every antichain in index order."""
    best = 0

    def grow(i: int, chosen: int, size: int):
        nonlocal best
        best = max(best, size)
        for j in range(i, poset.n):
            if not chosen & (poset.up_mask(j) | poset.down_mask(j)):
                grow(j + 1, chosen | 1 << j, size + 1)

    grow(0, 0, 0)
    return best


def backtracking_isomorphism(poset: FinitePoset, other: FinitePoset):
    """An order-isomorphism as a label bijection, or None: the package's
    former search. Elements are ordered by a one-round height/degree profile
    and each candidate is checked against every pair already assigned."""
    if poset.n != other.n:
        return None

    def profile(p: FinitePoset, i: int):
        return (
            p.heights[i],
            p.depths[i],
            len(p.covers_up[i]),
            len(p.covers_down[i]),
            bin(p.up_mask(i)).count("1"),
            bin(p.down_mask(i)).count("1"),
        )

    def refined(p: FinitePoset):
        base = [profile(p, i) for i in range(p.n)]
        return [
            (
                base[i],
                tuple(sorted(base[j] for j in p.covers_up[i])),
                tuple(sorted(base[j] for j in p.covers_down[i])),
            )
            for i in range(p.n)
        ]

    prof_left = refined(poset)
    prof_right = refined(other)
    left = sorted(range(poset.n), key=lambda i: (prof_left[i], i))
    if sorted(prof_left) != sorted(prof_right):
        return None
    candidates = {
        i: [j for j in range(other.n) if prof_right[j] == prof_left[i]]
        for i in range(poset.n)
    }
    assignment = {}
    used = set()

    def assign(k: int) -> bool:
        if k == poset.n:
            return True
        i = left[k]
        for j in candidates[i]:
            if j in used:
                continue
            consistent = all(
                ((poset.up_mask(i) >> i2) & 1) == ((other.up_mask(j) >> j2) & 1)
                and ((poset.up_mask(i2) >> i) & 1) == ((other.up_mask(j2) >> j) & 1)
                for i2, j2 in assignment.items()
            )
            if not consistent:
                continue
            assignment[i] = j
            used.add(j)
            if assign(k + 1):
                return True
            del assignment[i]
            used.discard(j)
        return False

    if assign(0):
        return {poset.labels[i]: other.labels[j] for i, j in assignment.items()}
    return None


def refine_isomorphism(poset: FinitePoset, other: FinitePoset, budget: int = 10**7):
    """The package's former are_isomorphic: individualization-refinement
    whose refinement recolours every element of both posets by its colour
    and the sorted colours of its upper and of its lower covers, round after
    round, until the number of colours stops growing; each search node
    (one per refined colouring) copies the colour lists. Same answers, maps,
    node count and budget as the package's splitter-queue refinement."""
    if poset.n != other.n:
        return None

    def refine(colours):
        while True:
            sigs = [
                [
                    (c[i], tuple(sorted(c[j] for j in up)), tuple(sorted(c[j] for j in down)))
                    for i, (up, down) in enumerate(zip(p.covers_up, p.covers_down))
                ]
                for p, c in zip((poset, other), colours)
            ]
            palette = {s: k for k, s in enumerate(sorted(set(sigs[0] + sigs[1])))}
            new = [[palette[s] for s in sig] for sig in sigs]
            if sorted(new[0]) != sorted(new[1]):
                return None
            if len(palette) == len(set(colours[0] + colours[1])):
                return new
            colours = new

    def individualized(left, right, cell):
        # the first left element of colour ``cell`` gets a fresh colour,
        # paired with each right element of it
        v = left.index(cell)
        for w, c in enumerate(right):
            if c == cell:
                yield left[:v] + [-1] + left[v + 1 :], right[:w] + [-1] + right[w + 1 :]

    nodes = 0
    branches = [iter([([0] * poset.n, [0] * other.n)])]
    while branches:
        colours = next(branches[-1], None)
        if colours is None:
            branches.pop()
            continue
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded("isomorphism search nodes", nodes, budget)
        colours = refine(colours)
        if colours is None:
            continue
        left, right = colours
        cells = [(size, c) for c, size in Counter(left).items() if size > 1]
        if cells:
            branches.append(individualized(left, right, min(cells)[1]))
            continue
        f = [right.index(c) for c in left]
        if all(
            sum(1 << f[k] for k in _bits(poset.up_mask(i))) == other.up_mask(f[i])
            for i in range(poset.n)
        ):
            return {poset.labels[i]: other.labels[j] for i, j in enumerate(f)}
    return None


def stellar_subdivision(complex_):
    """The barycentric subdivision as the package formerly built it: one
    elementary stellar move at the barycentre of every original simplex, in
    decreasing dimension (ties broken by vertex order)."""
    current = complex_
    for s in sorted(complex_.simplices, key=lambda s: (-s.dim, s.vertices)):
        if s.dim > 0:  # subdividing at a vertex is the identity
            current = elementary_stellar(current, s.barycentre())
    return current


def former_sorted_simplices(complex_):
    """The package's former sorted_simplices: by dimension, then by the
    vertex tuples themselves, comparing Fractions coordinate by coordinate."""
    return tuple(sorted(complex_.simplices, key=lambda s: (s.dim, s.vertices)))


def former_facets(simplex):
    """The package's former facet rule: the vertex sets of the facets, each
    the simplex's vertex set less one vertex."""
    whole = simplex.vertex_set
    return [whole - {v} for v in simplex.vertices] if simplex.dim > 0 else []


def former_maximal(complex_):
    """The package's former maximal simplices: in sorted order, those whose
    vertex sets are no facet of another simplex."""
    covered = {facet for t in complex_.simplices for facet in former_facets(t)}
    return [s for s in former_sorted_simplices(complex_) if s.vertex_set not in covered]


def former_face_poset(complex_):
    """The package's former face poset: element i is the i-th of the former
    sorted simplices, labelled by Simplex.label, and covered by every simplex
    having it as a facet; covers_down is what FinitePoset rebuilds."""
    sims = former_sorted_simplices(complex_)
    index = {s.vertex_set: i for i, s in enumerate(sims)}
    covers = [[] for _ in sims]
    for j, t in enumerate(sims):
        for facet in former_facets(t):
            covers[index[facet]].append(j)
    return poset_from_cover_dag([s.label() for s in sims], covers)


def former_to_json(complex_):
    """The package's former complex_to_json: the sorted vertices of the
    simplices and, per former maximal simplex, its sorted vertex indices."""
    verts = sorted({v for s in complex_.simplices for v in s.vertices})
    index = {v: i for i, v in enumerate(verts)}
    payload = {
        "dim": len(verts[0]) if verts else 0,
        "vertices": [[[c.numerator, c.denominator] for c in v] for v in verts],
        "simplices": [sorted(index[v] for v in s.vertices) for s in former_maximal(complex_)],
    }
    return json.dumps(payload, sort_keys=True)


def former_homogeneous(point):
    """The package's former homogeneous(): (q x, q) for q the lcm of the
    coordinates' denominators, computed in Fractions."""
    q = lcm(*(Fraction(c).denominator for c in point)) if point else 1
    return tuple(int(Fraction(c) * q) for c in point) + (q,)


def all_pairs_check_complex(simplices) -> None:
    """The package's former complex check: every face of every simplex must
    be present, and every pair of simplices must meet in a common face.
    Raises the package's error for the first failure it meets."""
    present = {s.vertex_set for s in simplices}
    for s in simplices:
        for face in s.faces():
            if face.vertex_set not in present:
                raise NotDownwardClosed(f"face {face.label()} of {s.label()} is missing")
    ordered = sorted(simplices, key=lambda s: (s.dim, s.vertices))
    for i, s in enumerate(ordered):
        for t in ordered[i + 1 :]:
            if not lp_intersection_is_common_face(s, t):
                raise BadIntersection(f"{s.label()} and {t.label()} do not meet in a common face")


def bounding_boxes_apart(s, t) -> bool:
    """The package's former pre-test: some axis on which the two simplices'
    coordinate ranges do not meet."""
    return any(
        max(a) < min(b) or max(b) < min(a)
        for a, b in zip(zip(*s.vertices), zip(*t.vertices))
    )


def lp_intersection_is_common_face(s, t) -> bool:
    """The package's former common-face check, an exact LP for every pair
    whose bounding boxes meet and neither of which is a face of the other:
    some pair of convex combinations agreeing coordinatewise with positive
    weight on a non-shared vertex exists iff the intersection sticks out of
    the shared face. Reads geometry.lp_maximize at call time."""
    if bounding_boxes_apart(s, t):
        return True
    shared = s.vertex_set & t.vertex_set
    if len(shared) in (len(s.vertices), len(t.vertices)):
        return True  # one is a face of the other
    *s_rows, s_q = s._integer_matrix
    *t_rows, t_q = t._integer_matrix
    rows = [[*a, *(-c for c in b)] for a, b in zip(s_rows, t_rows)]
    rows += [[*s_q] + [0] * len(t_q), [0] * len(s_q) + [*t_q]]
    rhs = [0] * s.ambient_dim + [1, 1]
    objective = [q * (v not in shared) for v, q in zip(s.vertices + t.vertices, s_q + t_q)]
    best = geometry.lp_maximize(rows, rhs, objective)
    if best is None:
        return True  # disjoint
    if not shared:
        return False  # they meet but share no vertex
    return best == 0


def scan_carrier(complex_, point):
    """The package's former carrier: the first simplex, in sorted order,
    whose relative interior holds the point, each test its own exact solve."""
    point = rational_point(point)
    for s in complex_.sorted_simplices:
        if s.relint_contains(point):
            return s
    raise PointOutsideSupport(f"{_format_point(point)} lies outside the support")


def scan_open_star(complex_, simplex):
    """The package's former open star: every simplex of the complex that has
    the given one as a face."""
    return frozenset(t for t in complex_.simplices if simplex.is_face_of(t))


def pairwise_open_implies(u, v):
    """The package's former implication of open sets, as a set of simplices:
    s is in U -> V when every coface of s in U is in V, found by scanning
    every pair of simplices."""
    simplices, u_members, v_members = u.complex.simplices, u.members, v.members
    return frozenset(
        s
        for s in simplices
        if all(t in v_members for t in simplices if s.is_face_of(t) and t in u_members)
    )


def per_face_stellar(complex_, point):
    """The package's former elementary stellar move: find the carrier first,
    then test the point against every simplex and, in each simplex holding
    it, against every face, each test its own exact solve."""
    point = rational_point(point)
    scan_carrier(complex_, point)  # raises PointOutsideSupport when outside
    new_simplices = set()
    for s in complex_.simplices:
        if not s.contains(point):
            new_simplices.add(s)
            continue
        for face in s.faces():
            if not face.contains(point):
                new_simplices.add(Simplex(face.vertices + (point,)))
    new_simplices.add(Simplex((point,)))
    return RationalComplex(new_simplices, _trusted=True)


def _chart_volume(simplex, piece) -> Fraction:
    """Volume of a full-dimensional sub-simplex in the barycentric chart of
    its host, normalised so the host has volume 1."""
    coords = [simplex.barycentric_coords(v) for v in piece.vertices]
    base = coords[0]
    mat = [
        [coords[i + 1][r] - base[r] for i in range(len(coords) - 1)]
        for r in range(1, len(base))
    ]
    return abs(fraction_determinant(mat))


def volume_refinement_oracle(finer, coarser) -> bool:
    """The package's former is_refinement: every fine simplex inside some
    coarse one, tested vertex by vertex against every coarse simplex; per
    coarse simplex, the chart volumes of the same-dimensional pieces inside
    it sum to one; and the barycentre of every coarse simplex has a carrier
    on the fine side."""
    if not finer.simplices and not coarser.simplices:
        return True
    if not finer.simplices or not coarser.simplices:
        return False
    if finer.ambient_dim != coarser.ambient_dim:
        return False
    for piece in finer.simplices:
        if not any(
            all(host.contains(v) for v in piece.vertices) for host in coarser.simplices
        ):
            return False
    for host in coarser.simplices:
        pieces = [
            piece
            for piece in finer.simplices
            if piece.dim == host.dim and all(host.contains(v) for v in piece.vertices)
        ]
        total = sum((_chart_volume(host, piece) for piece in pieces), Fraction(0))
        if total != 1:
            return False
        try:
            scan_carrier(finer, host.barycentre())
        except PointOutsideSupport:
            return False
    return True


def former_locate(point, tops):
    """The package's former point location: the point's carrier as
    {vertex: positive numerator} and their positive denominator, read off
    the first of the given simplices whose coordinates for it are all >= 0."""
    for top in tops:
        coords = top._integer_coords(point)
        if coords is not None and min(coords[0]) >= 0:
            numerators, denom = coords
            return {v: m for v, m in zip(top.vertices, numerators) if m > 0}, denom
    raise PointOutsideSupport(f"{_format_point(point)} lies outside the support")


def former_is_refinement(finer, coarser) -> bool:
    """The package's former is_refinement: one point location per fine
    vertex, the carrier-union test against every coarse simplex, and a chart
    volume sum of 1 demanded of every coarse simplex, maximal or not."""
    if finer.ambient_dim != coarser.ambient_dim:
        return False
    try:
        chart = {v: former_locate(v, coarser.maximal_simplices()) for v in finer.vertices}
    except PointOutsideSupport:
        return False
    volume = {s.vertex_set: Fraction(0) for s in coarser.simplices}
    for piece in finer.simplices:
        union = frozenset().union(*(chart[v][0] for v in piece.vertices))
        if union not in volume:
            return False
        if len(union) == len(piece.vertices):
            rows = [[chart[v][0].get(w, 0) for w in union] for v in piece.vertices]
            scale = prod(chart[v][1] for v in piece.vertices)
            volume[union] += Fraction(abs(_integer_determinant(rows)), scale)
    return all(total == 1 for total in volume.values())


def former_from_json(text):
    """The package's former RationalComplex.from_json: the payload checks,
    then one Simplex per listed simplex in list order, each sorting its own
    points and checking its own rank, then validate_complex on every face
    of every listed simplex."""
    payload = json.loads(text)
    try:
        if type(payload["dim"]) is not int:
            raise MalformedInput("dim must be an integer")
        if payload["dim"] < 0:
            raise MalformedInput("dim must be nonnegative")
        if payload["dim"] and not payload["vertices"]:
            raise MalformedInput("a complex with no vertices must have dim 0")
        if not all(type(c) is list and len(c) == 2 and all(type(x) is int for x in c) for v in payload["vertices"] for c in v):
            raise MalformedInput("a coordinate must be a pair of integers [numerator, denominator]")
        verts = [rational_point(Fraction(num, den) for num, den in v) for v in payload["vertices"]]
        for v in verts:
            if len(v) != payload["dim"]:
                raise MalformedInput("vertex dimension disagrees with the declared dim")
        if not all(ix and all(type(i) is int for i in ix) for ix in payload["simplices"]):
            raise MalformedInput("a simplex must be a nonempty list of vertex indices")
        if not all(0 <= i < len(verts) for ix in payload["simplices"] for i in ix):
            raise MalformedInput("a simplex names a vertex index out of range")
        tops = [Simplex(tuple(verts[i] for i in ix)) for ix in payload["simplices"]]
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise MalformedInput(f"malformed complex JSON: {exc!r}") from exc
    return validate_complex({face for s in tops for face in s.faces()})


def solve_exact(matrix, rhs):
    """One exact solution of A x = b as Fractions, or None if the system is
    inconsistent, through exactla's integer solver; free variables are 0."""
    cols = len(matrix[0]) if matrix else 0
    solution = _solve_integer([_integer_row([*row, b])[0] for row, b in zip(matrix, rhs)], cols)
    if solution is None:
        return None
    numerators, denom = solution
    return [Fraction(m, denom) for m in numerators]


def determinant(matrix):
    """The determinant of a square matrix of Fractions, through exactla's
    integer determinant of the rows scaled to integers."""
    scaled = [_integer_row(row) for row in matrix]
    return Fraction(_integer_determinant([ints for ints, _ in scaled]), prod(scale for _, scale in scaled))


def fraction_solve_exact(matrix, rhs):
    """The package's former solve_exact: Gauss-Jordan elimination on
    Fractions, each pivot row divided through. One solution of A x = b with
    the free variables at 0, or None if the system is inconsistent."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    a = [list(map(Fraction, matrix[r])) + [Fraction(rhs[r])] for r in range(rows)]
    pivot_cols = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = a[r][c]
        a[r] = [v / inv for v in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                factor = a[i][c]
                a[i] = [v - factor * w for v, w in zip(a[i], a[r])]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if a[i][cols] != 0:
            return None
    solution = [Fraction(0)] * cols
    for row, c in enumerate(pivot_cols):
        solution[c] = a[row][cols]
    return solution


def fraction_rank_exact(matrix):
    """The package's former rank_exact: Gauss-Jordan elimination on
    Fractions."""
    rows = [list(map(Fraction, r)) for r in matrix]
    n_rows = len(rows)
    cols = len(rows[0]) if n_rows else 0
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(n_rows):
            if i != rank and rows[i][c] != 0:
                factor = rows[i][c] / rows[rank][c]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def fraction_determinant(matrix):
    """The package's former determinant: forward elimination on Fractions,
    negated once per row swap."""
    n = len(matrix)
    a = [list(map(Fraction, row)) for row in matrix]
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        inv = a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                factor = a[i][c] / inv
                a[i] = [v - factor * w for v, w in zip(a[i], a[c])]
    return det


def fraction_lp_maximize(a_eq, b_eq, objective):
    """The package's former exact LP: the same two-phase simplex under
    Bland's rule, on a tableau of Fractions, each pivot dividing the pivot
    row through."""
    rows = len(a_eq)
    cols = len(objective)
    a = [list(map(Fraction, row)) for row in a_eq]
    b = list(map(Fraction, b_eq))
    for i in range(rows):
        if b[i] < 0:
            a[i] = [-v for v in a[i]]
            b[i] = -b[i]
    tableau = [a[i] + [Fraction(1) if j == i else Fraction(0) for j in range(rows)] + [b[i]] for i in range(rows)]
    basis = [cols + i for i in range(rows)]
    cost = [Fraction(0)] * cols + [Fraction(1)] * rows
    value = _fraction_simplex_min(tableau, basis, cost, cols + rows)
    if value != 0:
        return None
    for i in range(rows):  # drive the artificials out of the basis
        if basis[i] >= cols:
            col = next((j for j in range(cols) if tableau[i][j] != 0), None)
            if col is not None:
                _fraction_pivot(tableau, i, col)
                basis[i] = col
    keep = [i for i in range(rows) if basis[i] < cols]
    tableau = [tableau[i][:cols] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    cost = [-Fraction(c) for c in objective]
    return -_fraction_simplex_min(tableau, basis, cost, cols)


def _fraction_simplex_min(tableau, basis, cost, width):
    rows = len(tableau)
    while True:
        y = [cost[basis[i]] for i in range(rows)]
        entering = None
        for j in range(width):
            if j in basis:
                continue
            reduced = cost[j] - sum(y[i] * tableau[i][j] for i in range(rows))
            if reduced < 0:
                entering = j
                break
        if entering is None:
            return sum(cost[basis[i]] * tableau[i][-1] for i in range(rows))
        leaving = None
        best = None
        for i in range(rows):
            if tableau[i][entering] > 0:
                ratio = tableau[i][-1] / tableau[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            raise ArithmeticError("LP unexpectedly unbounded")
        _fraction_pivot(tableau, leaving, entering)
        basis[leaving] = entering


def _fraction_pivot(tableau, row, col) -> None:
    inv = tableau[row][col]
    tableau[row] = [v / inv for v in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            factor = tableau[i][col]
            tableau[i] = [v - factor * w for v, w in zip(tableau[i], tableau[row])]


def naive_evaluate(phi, env, algebra) -> int:
    """The package's former evaluator: one recursive walk of the formula per
    valuation, with U -> V computed pointwise as {x | up(x) ∩ U ⊆ V}."""
    if isinstance(phi, Var):
        return env[phi.name]
    if isinstance(phi, Const):
        return algebra.top if phi.value else algebra.bottom
    left = naive_evaluate(phi.left, env, algebra)
    right = naive_evaluate(phi.right, env, algebra)
    if isinstance(phi, And):
        return left & right
    if isinstance(phi, Or):
        return left | right
    if isinstance(phi, Imp):
        out = 0
        for i in range(algebra.poset.n):
            if algebra.poset.up_mask(i) & left & ~right == 0:
                out |= 1 << i
        return out
    raise TypeError(f"not a formula: {phi!r}")


def naive_counter_valuation(poset, phi, budget=VALUATION_BUDGET):
    """The package's former search for a refuting valuation: every upset
    valuation in itertools.product order, each evaluated from scratch, after
    the whole upset list is built and the valuation count checked."""
    algebra = UpsetAlgebra(poset)
    variables = phi.variables()
    count = len(algebra.elements) ** len(variables)
    if count > budget:
        raise SizeBudgetExceeded("valuations", count, budget)
    for choice in product(algebra.elements, repeat=len(variables)):
        env = dict(zip(variables, choice))
        if naive_evaluate(phi, env, algebra) != algebra.top:
            return {name: algebra.members(mask) for name, mask in env.items()}
    return None


def interval_counter_valuation(poset, phi, budget=VALUATION_BUDGET):
    """The package's former interval interpreter: the staged search with
    both interval cuts, each step dispatched on its connective at run time.
    It builds its program on every call and reads an algebra of its own;
    the valuation order, the budget check and the cuts are those of
    counter_valuation."""
    variables = phi.variables()
    nodes = _flatten(phi, variables)
    k = len(variables)
    constants = []
    slots = [0] * k
    stages = [[] for _ in range(k + 1)]
    for position, (kind, level, left, right) in enumerate(nodes):
        if kind is Var:
            slots[level] = position
        elif kind is Const:
            constants.append((position, left))
        else:
            stages[level + 1].append((position, kind, left, right))
    steps = tuple(chain.from_iterable(stages))
    spans = tuple(tuple(chain.from_iterable(stages[j + 1 :])) for j in range(k - 1))
    innermost = tuple(stages[k])
    size = len(nodes)
    algebra = UpsetAlgebra(poset)  # its own listing and memo, not the poset's
    if k:
        elements = algebra.upsets(k, budget)
    elif budget < 1:
        raise SizeBudgetExceeded("valuations", 1, budget)
    top = algebra.top
    lo = [0] * size  # a bound node's value, and the lower end of an open one
    hi = [top] * size
    for position, value in constants:
        lo[position] = hi[position] = top if value else 0
    implies = algebra.implies

    def compute(stage):
        # used for the innermost stage alone; its values go to lo only, since
        # any bound() that reads these nodes recomputes them first
        for position, kind, left, right in stage:
            if kind is And:
                lo[position] = lo[left] & lo[right]
            elif kind is Or:
                lo[position] = lo[left] | lo[right]
            else:
                lo[position] = implies(lo[left], lo[right])

    def bound(span):
        for position, kind, left, right in span:
            if kind is And:
                lo[position], hi[position] = lo[left] & lo[right], hi[left] & hi[right]
            elif kind is Or:
                lo[position], hi[position] = lo[left] | lo[right], hi[left] | hi[right]
            else:
                lo[position] = implies(hi[left], lo[right])
                hi[position] = implies(lo[left], hi[right])

    def decided(j):
        if lo[-1] == top:
            return False
        if hi[-1] == top:
            return None
        for slot in slots[j:]:
            lo[slot] = elements[0]
        return True

    def refuted():
        untried = []
        last = slots[-1]
        while True:
            if len(untried) + 1 == k:
                for u in elements:
                    lo[last] = u
                    compute(innermost)
                    if lo[-1] != top:
                        return True
                lo[last], hi[last] = 0, top
            else:
                untried.append(iter(elements))
            while untried:  # the next upset of the innermost outer variable
                j = len(untried) - 1
                u = next(untried[-1], None)
                if u is None:
                    lo[slots[j]], hi[slots[j]] = 0, top
                    untried.pop()
                    continue
                lo[slots[j]] = hi[slots[j]] = u
                bound(spans[j])
                cut = decided(j + 1)
                if cut:
                    return True
                if cut is None:
                    break  # bind the next variable
            else:
                return False

    bound(steps)
    cut = decided(0)
    if not (cut or (cut is None and refuted())):
        return None
    return {name: algebra.members(lo[slot]) for name, slot in zip(variables, slots)}


def staged_counter_valuation(poset, phi, budget=VALUATION_BUDGET):
    """The package's former staged search: the same valuation order and
    budget check as counter_valuation, each subformula computed once its last
    variable is bound, but every valuation of the inner variables visited."""
    variables = phi.variables()
    nodes = _flatten(phi, variables)
    k = len(variables)
    algebra = UpsetAlgebra(poset)  # its own listing, not the poset's
    if k:
        elements = algebra.upsets(k, budget)
    elif budget < 1:
        raise SizeBudgetExceeded("valuations", 1, budget)
    top = algebra.top
    values = [0] * len(nodes)
    slots = [0] * k
    stages = [[] for _ in range(k + 1)]
    for position, (kind, level, left, right) in enumerate(nodes):
        if kind is Var:
            slots[level] = position
        elif kind is Const:
            values[position] = top if left else 0
        else:
            stages[level + 1].append((position, kind, left, right))

    def compute(stage):
        for position, kind, left, right in stage:
            if kind is And:
                values[position] = values[left] & values[right]
            elif kind is Or:
                values[position] = values[left] | values[right]
            else:
                values[position] = algebra.implies(values[left], values[right])

    def refuted(j):
        slot, stage, inner = slots[j], stages[j + 1], j + 1 < k
        for u in elements:
            values[slot] = u
            compute(stage)
            if (refuted(j + 1) if inner else values[-1] != top):
                return True
        return False

    compute(stages[0])
    if not (refuted(0) if k else values[-1] != top):
        return None
    return {name: algebra.members(values[slot]) for name, slot in zip(variables, slots)}


def sample_posets(count, max_size, seed, rooted=False):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.randint(1, max_size)
        out.append(
            random_rooted_poset(size, rng) if rooted else random_poset(size, rng)
        )
    return out


def recursive_parse_formula(text):
    """The package's former parser: recursive descent, one closure per
    grammar level, nesting counted as the operator-precedence loop counts
    it."""
    tokens = _tokenize(text)
    index = 0
    depth = 0

    def nest(levels):
        nonlocal depth
        depth += levels
        if depth > formulas.MAX_NESTING:
            fail("formula is nested too deeply")

    def peek():
        return tokens[index][0] if index < len(tokens) else None

    def take():
        nonlocal index
        index += 1

    def fail(message):
        at = tokens[index][1] if index < len(tokens) else len(text)
        raise ParseError(message, at)

    def atom():
        tok = peek()
        if tok is None:
            fail("formula ended unexpectedly")
        if tok == "(":
            take()
            nest(1)
            inner = implication()
            if peek() != ")":
                fail("expected ')'")
            take()
            nest(-1)
            return inner
        if tok in ("T", "F"):
            take()
            return TRUE if tok == "T" else FALSE
        if tok[0].isalpha():
            take()
            return Var(tok)
        fail(f"expected an atom, found {tok!r}")

    def unary():
        negations = 0
        while peek() == "~":
            take()
            nest(1)
            negations += 1
        node = atom()
        nest(-negations)
        for _ in range(negations):
            node = Neg(node)
        return node

    def conj():
        node = unary()
        while peek() == "&":
            take()
            node = And(node, unary())
        return node

    def disj():
        node = conj()
        while peek() == "|":
            take()
            node = Or(node, conj())
        return node

    def implication():
        node = disj()
        if peek() == "->":
            take()
            nest(1)
            node = Imp(node, implication())
            nest(-1)
        return node

    result = implication()
    if index != len(tokens):
        fail(f"trailing input {tokens[index][0]!r}")
    return result


def recursive_chain_masks(poset, budget=SIZE_BUDGET):
    """The package's former chain walk: one nested generator per chain
    element, each extending its chain by the higher-indexed comparable
    candidates, lowest index first."""
    produced = 0

    def extend(mask, candidates):
        nonlocal produced
        for i in _bits(candidates):
            produced += 1
            if produced > budget:
                raise SizeBudgetExceeded("chains", produced, budget)
            yield mask | 1 << i
            rest = candidates & (poset.up_mask(i) | poset.down_mask(i)) & ~((1 << (i + 1)) - 1)
            yield from extend(mask | 1 << i, rest)

    yield from extend(0, poset.full_mask)


def walked_nerve_contypes(poset, budget=SIZE_BUDGET):
    """The package's former nerve check: the connectedness type of each
    strict upset of the nerve, one per chain X of the base, as
    ConType(A(X)) for A(X) the elements outside X comparable with all of X,
    in chain-walk order."""
    for chain in poset.iter_chain_masks(budget=budget):
        addable = ~chain
        for i in _bits(chain):
            addable &= poset.up_mask(i) | poset.down_mask(i)
        yield poset.contype_of_mask(addable)


def bitwise_covers_up(poset):
    """The package's former cover relation: every element of each strict
    upset tested for elements of that upset strictly below it."""
    out = []
    for i in range(poset.n):
        strict = poset.strict_up_mask(i)
        out.append(tuple(j for j in _bits(strict) if not strict & poset.strict_down_mask(j)))
    return tuple(out)


def down_bit_chain_heights(poset, mask, dual=False):
    """The package's former longest-chain kernel: for each element of
    ``mask``, along a linear extension by downset size, the longest chain
    inside ``mask`` ending at it (starting at it, when ``dual``), minus one,
    read off every member below (above) it, so O(comparable pairs)."""
    below, order = poset._down, sorted(range(poset.n), key=lambda i: bin(poset._down[i]).count("1"))
    if dual:
        below, order = poset._up, reversed(order)
    h = {}
    for i in order:
        if mask >> i & 1:
            best = -1
            m = (below[i] & mask) ^ (1 << i)
            while m:
                b = m & -m
                m ^= b
                v = h[b.bit_length() - 1]
                if v > best:
                    best = v
            h[i] = best + 1
    return h


def searched_typed_components(poset, mask, level=None):
    """The package's former typed components: the components of ``mask`` in
    ``component_masks`` order, each with the largest ``level`` of a member,
    by default the former kernel's pass over ``mask``."""
    if level is None:
        level = down_bit_chain_heights(poset, mask)
    typed = []
    for c in poset.component_masks(mask):
        best, m = -1, c
        while m:
            b = m & -m
            m ^= b
            v = level[b.bit_length() - 1]
            if v > best:
                best = v
        typed.append((c, best))
    return typed


def searched_contype(poset, mask, level=None):
    """The package's former connectedness type of ``mask``, from a component
    search with the heights of ``searched_typed_components``."""
    if not mask & (mask - 1):  # empty or one element: no component pass
        return (1,) if mask else ()
    return tuple(sorted((h + 1 for _, h in searched_typed_components(poset, mask, level)), reverse=True))


def searched_strict_up_contypes(poset):
    """The package's former strict-upset types: one component search over
    each element's strict upset, component heights read off the depths."""
    return tuple(searched_contype(poset, poset.strict_up_mask(i), poset.depths) for i in range(poset.n))


def searched_strict_down_contypes(poset):
    """The package's former strict-downset types: one component search over
    each element's strict downset, component heights read off the heights."""
    return tuple(searched_contype(poset, poset.strict_down_mask(i), poset.heights) for i in range(poset.n))


def searched_diamond_contypes(poset):
    """The package's former strict-diamond types: per bottom x, one former
    kernel pass over the strict upset of x, then a component search over
    each strict diamond (x, y)."""
    types = set()
    for i in range(poset.n):
        up = poset.strict_up_mask(i)
        level = down_bit_chain_heights(poset, up)
        types.update(searched_contype(poset, up & poset.strict_down_mask(j), level) for j in _bits(up))
    return frozenset(types)


def scanned_strict_up_types(poset):
    """The distinct strict-upset types, each with its first element by
    decreasing height, then index, in the order of those elements, found by
    scanning every element for every type."""
    def key(i):
        return (-poset.heights[i], i)

    contypes = searched_strict_up_contypes(poset)
    first = {t: min((i for i in range(poset.n) if contypes[i] == t), key=key) for t in set(contypes)}
    return sorted(first.items(), key=lambda item: key(item[1]))


def scanned_starlike_reduction(poset, target):
    """The package's former up-reduction onto a starlike tree: the target's
    branches derived on every call, and the apex found by scanning every
    element's strict-upset type by decreasing height, then index."""
    from polynerve.starlike import alpha_blocks

    root = target.root()
    root_idx = target.index(root)
    up = target.covers_up
    branches = []
    for bottom in up[root_idx]:
        branch = [bottom]
        while up[branch[-1]]:
            branch.append(up[branch[-1]][0])
        branches.append(branch)
    branches.sort(key=lambda b: (-len(b), b[0]))
    want = Signature.from_heights(len(b) for b in branches)
    for apex in sorted(range(poset.n), key=lambda i: (-poset.heights[i], i)):
        if want.splits(searched_strict_up_contypes(poset)[apex]):
            break
    else:
        return None
    blocks = alpha_blocks(poset, poset.strict_up_mask(apex), len(branches))
    mapping = {poset.labels[apex]: root}
    for branch, block in zip(branches, blocks):
        h = len(branch)
        for y in _bits(block):
            mapping[poset.labels[y]] = target.labels[branch[h - 1 - min(poset.depths[y], h - 1)]]
    return mapping


def recursive_search_up_reduction(poset, target, budget=10**7):
    """The package's former up-reduction search: one recursive ``assign``
    per apex, checking forth and back at each element against the elements
    above it, with no cut on the values left to hit."""
    root_idx = target.index(target.root())
    value_order = sorted(
        (j for j in range(target.n) if j != root_idx), key=lambda j: (target.heights[j], j)
    )
    visited = 0
    for apex in sorted(range(poset.n), key=lambda i: (-poset.heights[i], i)):
        above_apex = poset.up_mask(apex)
        if max(poset.heights[j] for j in _bits(above_apex)) - poset.heights[apex] < max(target.heights):
            continue
        order = sorted(_bits(above_apex & ~(1 << apex)), key=lambda i: (-poset.heights[i], i))
        assignment = {apex: root_idx}

        def assign(k):
            nonlocal visited
            if k == len(order):
                return sum(1 << v for v in set(assignment.values())) == target.full_mask
            i = order[k]
            above = tuple(_bits(poset.strict_up_mask(i)))
            for v in value_order:
                visited += 1
                if visited > budget:
                    raise SearchBudgetExceeded("up-reduction search states", visited, budget)
                images = [assignment[j] for j in above]
                if any(not target.up_mask(v) >> fj & 1 for fj in images):
                    continue  # forth
                if target.strict_up_mask(v) & ~sum(1 << fj for fj in set(images)):
                    continue  # back
                assignment[i] = v
                if assign(k + 1):
                    return True
                del assignment[i]
            return False

        if assign(0):
            mapping = {poset.labels[i]: target.labels[v] for i, v in assignment.items()}
            witness = PMorphism(poset, target, poset.labels_of(above_apex), mapping)
            assert is_up_reduction(witness)
            return witness
    return None


def recursive_monotone_surjection(poset, other, budget=10**7):
    """The package's former monotone-surjection search: one recursive
    ``assign`` over the elements by height, checked against every pair
    already assigned, cut when too few elements are left to hit the rest."""
    if other.is_empty:
        return poset.is_empty
    if poset.n < other.n:
        return False
    order = sorted(range(poset.n), key=lambda i: (poset.heights[i], i))
    assignment = {}
    hit = [0] * other.n
    visited = 0

    def assign(k, missing):
        nonlocal visited
        if poset.n - k < missing:
            return False
        if k == poset.n:
            return missing == 0
        i = order[k]
        for v in range(other.n):
            visited += 1
            if visited > budget:
                raise SearchBudgetExceeded("monotone surjection search states", visited, budget)
            if any(
                (poset.up_mask(i2) >> i & 1 and not other.up_mask(v2) >> v & 1)
                or (poset.up_mask(i) >> i2 & 1 and not other.up_mask(v) >> v2 & 1)
                for i2, v2 in assignment.items()
            ):
                continue
            assignment[i] = v
            hit[v] += 1
            if assign(k + 1, missing - (hit[v] == 1)):
                return True
            hit[v] -= 1
            del assignment[i]
        return False

    return assign(0, other.n)
