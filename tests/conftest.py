"""Shared fixtures: a handful of small worked frames, plus deliberately
naive brute-force oracles that the fast implementations are tested against.
The brute-force oracles only ever use itertools-style enumeration, never the
package's own machinery beyond basic order lookups. The replaced algorithms
kept as differential oracles (backtracking_isomorphism, stellar_subdivision,
all_pairs_check_complex) reuse the package primitives they were built on:
elementary stellar moves and the exact-LP intersection test."""
from __future__ import annotations

import random
from itertools import chain, combinations, product

import pytest

from polynerve import FinitePoset, Signature, elementary_stellar, validate_poset
from polynerve.errors import BadIntersection, NotDownwardClosed
from polynerve.geometry import _intersection_is_common_face
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


def stellar_subdivision(complex_):
    """The barycentric subdivision as the package formerly built it: one
    elementary stellar move at the barycentre of every original simplex, in
    decreasing dimension (ties broken by vertex order)."""
    current = complex_
    for s in sorted(complex_.simplices, key=lambda s: (-s.dim, s.vertices)):
        if s.dim > 0:  # subdividing at a vertex is the identity
            current = elementary_stellar(current, s.barycentre())
    return current


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
            if not _intersection_is_common_face(s, t):
                raise BadIntersection(f"{s.label()} and {t.label()} do not meet in a common face")


def sample_posets(count, max_size, seed, rooted=False):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.randint(1, max_size)
        out.append(
            random_rooted_poset(size, rng) if rooted else random_poset(size, rng)
        )
    return out
