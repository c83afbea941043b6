"""p-morphisms and up-reductions: forbidden-configuration validity (a
construction onto starlike trees, a backtracking search onto other rooted
targets), poset isomorphism, monotone surjections.
"""
from __future__ import annotations

import json
from typing import Dict, FrozenSet, List, Optional

from ._support import Frozen, load_json
from .errors import (
    DomainNotUpClosed,
    MalformedInput,
    NotComparableSignatures,
    SearchBudgetExceeded,
    TargetNotRooted,
    UnknownElement,
)
from .posets import FinitePoset, _bits
from .signatures import Signature
from .starlike import alpha_blocks, starlike_tree

SEARCH_BUDGET = 10**7


class PMorphism(Frozen):
    """A declared map between posets: total on ``domain``, which is expected
    to be an up-closed subset of the source. Whether the map actually
    satisfies the forth/back conditions is checked by :func:`is_p_morphism`,
    not at construction. Immutable; equal to another p-morphism with the
    same four fields, and hashed on all but the mapping."""

    source: FinitePoset
    target: FinitePoset
    domain: FrozenSet[str]
    mapping: Dict[str, str]

    def __init__(self, source: FinitePoset, target: FinitePoset, domain: FrozenSet[str], mapping: Dict[str, str]):
        self.__dict__.update(source=source, target=target, domain=domain, mapping=mapping)
        for lab in self.domain:
            self.source.index(lab)
        if set(self.mapping) != set(self.domain):
            raise UnknownElement("mapping must be defined exactly on the domain")
        for value in self.mapping.values():
            self.target.index(value)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.target, self.domain, self.mapping) == (
            other.source, other.target, other.domain, other.mapping
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.domain))

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(source={self.source!r}, target={self.target!r}, "
            f"domain={self.domain!r}, mapping={self.mapping!r})"
        )

    def __call__(self, x: str) -> str:
        return self.mapping[x]

    @property
    def is_total(self) -> bool:
        return len(self.domain) == self.source.n

    def to_json(self) -> str:
        return json.dumps(
            {"domain": sorted(self.domain), "map": dict(sorted(self.mapping.items()))},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str, source: FinitePoset, target: FinitePoset) -> "PMorphism":
        payload = load_json(text, "p-morphism")
        if not isinstance(payload, dict) or not {"domain", "map"} <= payload.keys():
            raise MalformedInput("p-morphism JSON must be an object with 'domain' and 'map'")
        domain, mapping = payload["domain"], payload["map"]
        if not isinstance(domain, list) or not all(isinstance(x, str) for x in domain):
            raise MalformedInput("p-morphism JSON 'domain' must be a list of strings")
        if not isinstance(mapping, dict) or not all(isinstance(v, str) for v in mapping.values()):
            raise MalformedInput("p-morphism JSON 'map' must be an object from strings to strings")
        return cls(source, target, frozenset(domain), mapping)


def _domain_mask(f: PMorphism) -> int:
    return f.source.mask_of(f.domain)


def _check_domain_up_closed(f: PMorphism) -> int:
    mask = _domain_mask(f)
    src = f.source
    for i in _bits(mask):
        if src.up_mask(i) & ~mask:
            raise DomainNotUpClosed("the declared domain is not upward-closed")
    return mask


def is_p_morphism(f: PMorphism) -> bool:
    """Forth and back conditions on the declared (up-closed) domain."""
    mask = _check_domain_up_closed(f)
    src, tgt = f.source, f.target
    idx = [None] * src.n
    for i in _bits(mask):
        idx[i] = tgt.index(f.mapping[src.labels[i]])
    for i in _bits(mask):
        fi = idx[i]
        # forth: everything above i maps above f(i)
        image_above = 0
        # the strict upset lies in the mask, since the domain is up-closed
        for j in _bits(src.strict_up_mask(i)):
            if not (tgt.up_mask(fi) >> idx[j]) & 1:
                return False
            image_above |= 1 << idx[j]
        # back: everything above f(i) is hit by something above i
        if tgt.strict_up_mask(fi) & ~image_above:
            return False
    return True


def is_up_reduction(f: PMorphism) -> bool:
    """A surjective p-morphism from an up-closed subset onto the target."""
    if not is_p_morphism(f):
        return False
    return set(f.mapping.values()) == set(f.target.labels)


def compose(first: PMorphism, then: PMorphism) -> PMorphism:
    """then o first, with the domain pulled back so the composite is total on
    it. Sources/targets must line up."""
    if first.target is not then.source and first.target != then.source:
        raise UnknownElement("composition needs first.target == then.source")
    domain = frozenset(
        x for x in first.domain if first.mapping[x] in then.domain
    )
    mapping = {x: then.mapping[first.mapping[x]] for x in domain}
    return PMorphism(first.source, then.target, domain, mapping)


def find_up_reduction(
    poset: FinitePoset,
    target: FinitePoset,
    budget: int = SEARCH_BUDGET,
) -> Optional[PMorphism]:
    """Some up-reduction of ``poset`` onto the rooted ``target``, or None.

    Only pointed up-reductions are considered (domain the upset of a single
    apex, apex the unique preimage of the root), which is no loss of
    generality. Apexes are tried by decreasing height, then index, and the
    first that admits a witness is used, so reruns are reproducible.

    Onto a starlike tree (every non-root element has one lower and at most
    one upper cover) the witness is constructed, and ``budget`` is unused.
    The apex is the first whose strict upset has an alpha-partition, alpha
    the branch heights, found by asking alpha of each distinct strict-upset
    type once; the branches and alpha are derived once per target. The apex
    goes to the root, and an element of depth d in the
    block of a branch of height h goes to the branch element h - min(d, h - 1)
    from the root. Forth holds because depth is antitone; back because a
    longest chain above an element meets every smaller depth. Conversely the
    branches of any pointed reduction pull back to an alpha-partition of the
    apex's strict upset, so None means that no reduction exists. Onto other
    rooted targets a backtracking search visits at most ``budget`` states,
    raising SearchBudgetExceeded beyond.
    """
    root = target.root()
    if root is None:
        raise TargetNotRooted("up-reduction targets must be rooted")
    if target.n > poset.n:
        return None  # an up-reduction is onto
    starlike = target._branches
    if starlike is None:
        return _search_up_reduction(poset, target, budget)
    branches, want = starlike
    # the first element by decreasing height, then index, whose type splits
    apex = next((i for contype, i in poset._strict_up_types.items() if want.splits(contype)), None)
    if apex is None:
        return None
    blocks = alpha_blocks(poset, poset.strict_up_mask(apex), len(branches))
    mapping = {poset.labels[apex]: root}
    for branch, block in zip(branches, blocks):
        h = len(branch)
        for y in _bits(block):
            mapping[poset.labels[y]] = target.labels[branch[h - 1 - min(poset.depths[y], h - 1)]]
    witness = PMorphism(poset, target, frozenset(mapping), mapping)
    if not is_up_reduction(witness):
        raise RuntimeError("internal error: constructed a bad up-reduction")
    return witness


def _search_up_reduction(
    poset: FinitePoset, target: FinitePoset, budget: int = SEARCH_BUDGET
) -> Optional[PMorphism]:
    """Backtracking search for a pointed up-reduction onto the rooted
    ``target``, trying at most ``budget`` values in all. Apexes are tried by
    decreasing height, then index; non-apex elements by decreasing height,
    each taking values by target height from the root (root excluded)."""
    root_idx = target.index(target.root())
    values = sorted(
        (j for j in range(target.n) if j != root_idx), key=lambda j: (target.heights[j], j)
    )
    refusal = f"up-reduction search exceeded {budget} states"

    def fits(i, v, assignment):
        # forth and back at i: the elements above i, assigned first, map into
        # up(v) and onto all of it but perhaps v
        image_above = 0
        for j in _bits(poset.strict_up_mask(i)):
            image_above |= 1 << assignment[j]
        return image_above | 1 << v == target.up_mask(v)

    for apex in poset._by_height:
        domain = poset.up_mask(apex)
        if max(poset.heights[j] for j in _bits(domain)) - poset.heights[apex] < max(target.heights):
            continue  # not enough height above the apex
        order = [i for i in poset._by_height if domain >> i & 1 and i != apex]
        assignment, tries = _onto_assignment(order, values, fits, budget, refusal)
        budget -= tries
        if assignment is not None:
            mapping = {poset.labels[apex]: target.labels[root_idx]}
            mapping.update((poset.labels[i], target.labels[v]) for i, v in assignment.items())
            witness = PMorphism(poset, target, poset.labels_of(domain), mapping)
            if not is_up_reduction(witness):
                raise RuntimeError("internal error: search returned a bad witness")
            return witness
    return None


def validates_jankov(poset: FinitePoset, target: FinitePoset, budget: int = SEARCH_BUDGET) -> bool:
    """Validity of the forbidden-configuration formula of ``target``: true iff
    there is no up-reduction onto it."""
    return find_up_reduction(poset, target, budget=budget) is None


def signature_reduction(beta: Signature, alpha: Signature) -> PMorphism:
    """The canonical p-morphism from the starlike tree of ``beta`` onto the
    starlike tree of ``alpha``, defined when alpha <= beta: branch j maps onto
    branch j (excess collapsing to the branch top), leftover branches map to
    the top of the first branch."""
    if not alpha.leq(beta):
        raise NotComparableSignatures(f"{alpha} is not below {beta}")
    source = starlike_tree(beta)
    target = starlike_tree(alpha)
    if alpha.is_empty:
        mapping = {lab: target.labels[0] for lab in source.labels}
        witness = PMorphism(source, target, frozenset(source.labels), mapping)
    else:
        a_heights = alpha.heights
        b_heights = beta.heights
        mapping = {"r": "r"}
        for j in range(1, beta.size + 1):
            for h in range(1, b_heights[j - 1] + 1):
                src_lab = f"b{j}.{h}"
                if j <= alpha.size:
                    tgt_h = min(h, a_heights[j - 1])
                    mapping[src_lab] = f"b{j}.{tgt_h}"
                else:
                    mapping[src_lab] = f"b1.{a_heights[0]}"
        witness = PMorphism(source, target, frozenset(source.labels), mapping)
    if not is_p_morphism(witness):
        raise RuntimeError("internal error: signature reduction is not a p-morphism")
    return witness


def are_isomorphic(
    poset: FinitePoset, other: FinitePoset, budget: int = SEARCH_BUDGET
) -> Optional[Dict[str, str]]:
    """An order-isomorphism as a label bijection, or None.

    Individualization-refinement, as in nauty/Traces (McKay and Piperno,
    arXiv:1301.1493). Refinement (_Partition) splits the cells of one
    ordered partition of both posets by counts of upper and lower covers in
    the cells that split last, until no cell splits; a cell with more
    elements on one side than the other prunes the branch. Individualization
    takes the smallest non-singleton cell (the first in order among equals),
    makes its first left element a singleton paired in turn with each right
    element of that cell, and searches depth first, undoing each choice's
    splits before the next. A discrete partition induces a bijection f,
    accepted only if f maps ``up_mask(i)`` onto ``up_mask(f(i))`` for every
    element. The budget counts search nodes (one per refined partition) and
    is enforced with SearchBudgetExceeded."""
    if poset.n != other.n:
        return None
    refusal = f"isomorphism search exceeded {budget} nodes"
    if budget < 1:
        raise SearchBudgetExceeded(refusal)
    nodes = 1
    cells = _Partition(poset, other)
    if not cells.refine(cells.split(0, _by_degree(poset, other))):
        return None
    left, right = cells.members
    stack = []  # [cell, its first left element, its right elements, next choice, trail mark]
    while True:
        if cells.big:
            cell = min(cells.big, key=lambda c: (len(left[c]), cells.start[c]))
            stack.append([cell, min(left[cell]), sorted(right[cell]), 0, len(cells.trail)])
        else:
            f = [next(iter(right[c])) for c in cells.cell[0]]
            if all(
                sum(1 << f[k] for k in _bits(poset.up_mask(i))) == other.up_mask(f[i])
                for i in range(poset.n)
            ):
                return {poset.labels[i]: other.labels[j] for i, j in enumerate(f)}
        while stack:
            frame = stack[-1]
            cell, v, choices, k, mark = frame
            cells.undo(mark)
            if k == len(choices):
                stack.pop()
                continue
            frame[3] += 1
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(refusal)
            if cells.refine(cells.split(cell, [([v], [choices[k]]), None])):
                break
        else:
            return None


def _by_degree(poset: FinitePoset, other: FinitePoset) -> List[tuple]:
    """Both posets' elements as (left, right) lists, grouped by their numbers
    of upper and lower covers, in the order of those numbers."""
    groups: Dict[tuple, tuple] = {}
    for side, p in enumerate((poset, other)):
        for i in range(p.n):
            groups.setdefault((len(p.covers_up[i]), len(p.covers_down[i])), ([], []))[side].append(i)
    return [groups[key] for key in sorted(groups)]


_ZERO = (0, 0)  # closes every refinement key: the zero vector from there on


class _Partition:
    """One ordered partition of the elements of two posets of equal size
    into cells, each a set of left and a set of right elements. A cell is an
    id; ``start`` orders the cells, a cell's start being the number of left
    elements in the cells before it. Splits are recorded on ``trail`` and
    undone in reverse.

    ``refine`` reaches the colouring that recolouring every element by its
    colour and the sorted colours of its upper and of its lower covers
    would reach, round by round, in the same cell order (the former search,
    kept in the tests as its oracle), but it counts only covers into the
    cells that split in the previous round, all but the largest of each
    split (Hopcroft's rule; Paige and Tarjan, SIAM J. Comput. 1987). Within
    a cell the counts into each parent cell agree, so the count into its
    largest piece follows from the others, and comparing sorted colour
    tuples reduces to comparing the counts piece by piece, in order, the
    larger count first. Each touched element's counts make a sparse key
    that sorts as that comparison does; untouched elements keep their cell
    and sort as the zero vector."""

    def __init__(self, poset: FinitePoset, other: FinitePoset):
        self.posets = (poset, other)
        self.cell = ([0] * poset.n, [0] * other.n)
        self.members: tuple = ([set(range(poset.n))], [set(range(other.n))])
        self.start = [0]
        self.big = {0} if poset.n > 1 else set()
        self.trail: List[tuple] = []

    def split(self, c: int, parts: list) -> Optional[List[int]]:
        """Replace cell ``c`` by ``parts`` in order, each a pair of lists of
        left and right elements of ``c``, except at most one None that
        stands for the rest of ``c`` and keeps its id (without one, the
        first part does). The cells' ids in order, or None if a listed part
        has more elements on one side than the other."""
        if any(part is not None and len(part[0]) != len(part[1]) for part in parts):
            return None
        if None not in parts:
            parts = [None, *parts[1:]]
        members, cell = self.members, self.cell
        for part in parts:
            if part is not None:
                for side, elems in enumerate(part):
                    members[side][c].difference_update(elems)
        pos = self.start[c]
        self.trail.append((c, pos, len(self.start)))
        ids = []
        for part in parts:
            if part is None:
                new, size = c, len(members[0][c])
            else:
                new, size = len(self.start), len(part[0])
                self.start.append(pos)
                for side, elems in enumerate(part):
                    members[side].append(set(elems))
                    for x in elems:
                        cell[side][x] = new
                if size > 1:
                    self.big.add(new)
            self.start[new] = pos
            pos += size
            ids.append(new)
        if len(members[0][c]) < 2:
            self.big.discard(c)
        return ids

    def refine(self, ids: Optional[List[int]]) -> bool:
        """Refine from the cells ``ids`` that one cell was just split into,
        round by round, until no cell splits; False if ``ids`` is None or a
        split is unbalanced."""
        if ids is None:
            return False
        members, n = self.members, len(self.cell[0])
        far = 2 * n + 1  # past every position: upper covers at start, lower at n + start
        groups = [ids]
        while groups:
            counts: tuple = ({}, {})  # element -> {position: entry of its sparse key}
            for pieces in groups:
                sizes = [len(members[0][c]) for c in pieces]
                top = self.start[pieces[sizes.index(max(sizes))]]
                for c in pieces:
                    pos = self.start[c]
                    if pos == top:
                        continue
                    for side, p in enumerate(self.posets):
                        tally = counts[side]
                        for u in members[side][c]:
                            for shift, covered in ((0, p.covers_down[u]), (n, p.covers_up[u])):
                                for w in covered:
                                    entries = tally.setdefault(w, {})
                                    entries[shift + pos] = entries.get(shift + pos, 0) - 1
                                    entries[shift + top] = entries.get(shift + top, 0) + 1
            touched: Dict[int, dict] = {}  # cell -> {key: (left elements, right elements)}
            for side, tally in enumerate(counts):
                for w, entries in tally.items():
                    # lexicographic on the dense vector: a negative entry sorts
                    # below a zero there, a positive one above it
                    key = tuple(
                        (q - far, v) if v < 0 else (far - q, v) for q, v in sorted(entries.items())
                    ) + (_ZERO,)
                    touched.setdefault(self.cell[side][w], {}).setdefault(key, ([], []))[side].append(w)
            groups = []
            for c, by_key in touched.items():
                rest = [len(members[side][c]) - sum(len(part[side]) for part in by_key.values()) for side in (0, 1)]
                if rest[0] != rest[1]:
                    return False
                order = sorted([*by_key, (_ZERO,)] if rest[0] else by_key)
                if len(order) > 1:
                    pieces = self.split(c, [by_key.get(key) for key in order])
                    if pieces is None:
                        return False
                    groups.append(pieces)
        return True

    def undo(self, mark: int) -> None:
        """Merge back every split recorded after the first ``mark``."""
        members, cell = self.members, self.cell
        while len(self.trail) > mark:
            c, pos, first = self.trail.pop()
            while len(self.start) > first:
                self.big.discard(len(self.start) - 1)
                self.start.pop()
                for side in (0, 1):
                    elems = members[side].pop()
                    members[side][c] |= elems
                    for x in elems:
                        cell[side][x] = c
            self.start[c] = pos
            if len(members[0][c]) > 1:
                self.big.add(c)


def exists_monotone_surjection(
    poset: FinitePoset, other: FinitePoset, budget: int = SEARCH_BUDGET
) -> bool:
    """Whether some order-preserving onto map poset -> other exists."""
    if other.is_empty:
        return poset.is_empty

    def fits(i, v, assignment):
        # the elements below i come first, by height, and must map below v
        return all(other.up_mask(assignment[j]) >> v & 1 for j in _bits(poset.strict_down_mask(i)))

    order = sorted(range(poset.n), key=lambda i: (poset.heights[i], i))
    refusal = f"monotone surjection search exceeded {budget} states"
    return _onto_assignment(order, range(other.n), fits, budget, refusal)[0] is not None


def _onto_assignment(elements, values, fits, budget, refusal):
    """The first assignment, depth first, of one of ``values`` to each of
    ``elements`` in turn that hits every value, where element i may take v
    only if ``fits(i, v, assignment)`` given the elements before it; None if
    there is none. Values are tried in the given order and every try counts
    against ``budget``, beyond which SearchBudgetExceeded(refusal) is raised.
    A branch is cut once the elements left are too few to hit the values not
    yet hit. Returns the assignment (or None) and the number of tries."""
    assignment: Dict[int, int] = {}
    hits = dict.fromkeys(values, 0)
    missing = len(hits)
    if not elements or len(elements) < missing:
        return (None if missing else assignment), 0
    untried = [iter(values)]  # the values left for each element opened so far
    tries = 0
    while untried:
        i = elements[len(untried) - 1]
        if i in assignment:  # every branch below its value failed
            v = assignment.pop(i)
            hits[v] -= 1
            missing += not hits[v]
        for v in untried[-1]:
            tries += 1
            if tries > budget:
                raise SearchBudgetExceeded(refusal)
            if fits(i, v, assignment):
                break
        else:
            untried.pop()
            continue
        assignment[i] = v
        hits[v] += 1
        missing -= hits[v] == 1
        if len(elements) - len(untried) >= missing:
            if len(untried) == len(elements):
                return assignment, tries
            untried.append(iter(values))
    return None, tries
