"""Finite posets with the order-theoretic primitives everything else builds on:
upsets and their Heyting algebra, heights, chains, connectivity,
connectedness types, gradedness, diamonds, completions, and tree unravellings.

Elements are indexed internally; labels are strings for I/O.  The order is
held as per-element bitmasks so that component and chain analysis stays fast
even on the larger posets the constructions produce.  All values are
immutable after construction and safe to share between concurrent tasks.
"""
from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ._support import cached_property, load_json
from .errors import (
    CycleDetected,
    DuplicateLabel,
    EmptyPoset,
    IndexOutOfRange,
    LabelCollision,
    MalformedInput,
    NotATree,
    NotComparable,
    NotRooted,
    SizeBudgetExceeded,
    UnknownElement,
)
from .signatures import Signature

COMPLETION_LABEL = "inf"
SIZE_BUDGET = 10**6  # chains walked, simplices and elements built: nerves, trees, subdivisions


class FinitePoset:
    """A finite poset over distinct string labels.

    ``up_masks[i]`` has bit ``j`` set iff element ``i <= j`` (reflexive).
    The constructor checks reflexivity, antisymmetry and transitivity; use
    :func:`validate_poset` to build a poset from a raw generator relation.
    """

    def __init__(self, labels: Sequence[str], up_masks: Sequence[int], _trusted: bool = False):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise DuplicateLabel("element labels must be pairwise distinct")
        up_masks = tuple(up_masks)
        if len(up_masks) != len(labels):
            raise MalformedInput("one relation row per element required")
        if not _trusted:
            _check_partial_order(up_masks)
        self.labels = labels
        self._up = up_masks
        self._index = {lab: i for i, lab in enumerate(labels)}

    # -- indexing ------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def is_empty(self) -> bool:
        return not self.labels

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElement(f"no element labelled {label!r}") from None

    def leq(self, a: str, b: str) -> bool:
        return bool(self._up[self.index(a)] >> self.index(b) & 1)

    def lt(self, a: str, b: str) -> bool:
        return a != b and self.leq(a, b)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinitePoset)
            and self.labels == other.labels
            and self._up == other._up
        )

    def __hash__(self):
        return hash((self.labels, self._up))

    def __repr__(self) -> str:
        return f"FinitePoset({len(self.labels)} elements, height {-1 if self.is_empty else max(self.heights, default=0)})"

    # -- masks -----------------------------------------------------------------

    @cached_property
    def _down(self) -> Tuple[int, ...]:
        down = [0] * self.n
        for i, mask in enumerate(self._up):
            for j in _bits(mask):
                down[j] |= 1 << i
        return tuple(down)

    @cached_property
    def _comparable(self) -> Tuple[int, ...]:
        return tuple(u | d for u, d in zip(self._up, self._down))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(lab)
        return mask

    def labels_of(self, mask: int) -> frozenset:
        return frozenset(self.labels[i] for i in _bits(mask))

    def up_mask(self, i: int) -> int:
        return self._up[i]

    def down_mask(self, i: int) -> int:
        return self._down[i]

    def strict_up_mask(self, i: int) -> int:
        return self._up[i] & ~(1 << i)

    def strict_down_mask(self, i: int) -> int:
        return self._down[i] & ~(1 << i)

    # -- covers and heights ------------------------------------------------------

    @cached_property
    def covers_up(self) -> Tuple[Tuple[int, ...], ...]:
        """covers_up[i] lists j such that j covers i, by index: a walk through
        the strict upset by index drops the upset of each element it meets."""
        out = []
        for i in range(self.n):
            rest = strict = self.strict_up_mask(i)
            covers = []
            while rest:
                j = (rest & -rest).bit_length() - 1
                if strict & self._down[j] == 1 << j:  # nothing of the upset below j
                    covers.append(j)
                rest &= ~self._up[j]
            out.append(tuple(covers))
        return tuple(out)

    @cached_property
    def covers_down(self) -> Tuple[Tuple[int, ...], ...]:
        out: List[List[int]] = [[] for _ in range(self.n)]
        for i, ups in enumerate(self.covers_up):
            for j in ups:
                out[j].append(i)
        return tuple(map(tuple, out))

    @cached_property
    def _extension(self) -> Tuple[int, ...]:
        """A linear extension: elements by the size of their downsets."""
        return tuple(sorted(range(self.n), key=lambda i: bin(self._down[i]).count("1")))

    def _chain_heights(self, mask: int, dual: bool = False) -> List[int]:
        """For each element, the most members of ``mask`` on a chain ending at
        it (starting at it, when ``dual``), minus one, from one pass over the
        lower (upper) covers: a chain of members saturates through covers
        without losing a member, so this is exact for any mask, convex or not."""
        covers, order = self.covers_down, self._extension
        if dual:
            covers, order = self.covers_up, reversed(order)
        h = [-1] * len(covers)
        get = h.__getitem__
        for i in order:  # max(map(...), default=-1) alone took about four times as long on a chain
            c = covers[i]
            h[i] = (max(map(get, c)) if len(c) > 1 else h[c[0]] if c else -1) + (mask >> i & 1)
        return h

    @cached_property
    def heights(self) -> Tuple[int, ...]:
        """Height of each element: longest chain in its downset, minus one."""
        return tuple(self._chain_heights(self.full_mask))

    @cached_property
    def depths(self) -> Tuple[int, ...]:
        return tuple(self._chain_heights(self.full_mask, dual=True))

    @cached_property
    def _by_height(self) -> Tuple[int, ...]:
        """The elements by decreasing height, then index."""
        return tuple(sorted(range(self.n), key=lambda i: (-self.heights[i], i)))

    def maximal_elements(self) -> frozenset:
        return frozenset(self.labels[i] for i in range(self.n) if self.depths[i] == 0)

    def root(self) -> Optional[str]:
        """The minimum element, if there is one."""
        for i in range(self.n):
            if self._up[i] == self.full_mask:
                return self.labels[i]
        return None

    # -- component / chain analysis on arbitrary sub-masks -------------------------

    def component_masks(self, mask: int) -> List[int]:
        """Connected components of the subposet induced on ``mask``."""
        comps = []
        remaining = mask
        while remaining:
            seed = remaining & -remaining
            comp = seed
            frontier = seed
            while frontier:
                grown = 0
                m = frontier
                while m:  # inline: through _bits component growth took about 30% longer
                    b = m & -m
                    m ^= b
                    grown |= self._comparable[b.bit_length() - 1]
                frontier = (grown & mask) & ~comp
                comp |= frontier
            comps.append(comp)
            remaining &= ~comp
        return comps

    def _mask_levels(self, mask: int) -> List[int]:
        """``_chain_heights`` of a mask from outside, refused unless it names a
        subset of the elements."""
        if mask < 0 or mask >> self.n:
            raise IndexOutOfRange(f"mask is negative or has a bit at or above {self.n}, the number of elements")
        return self._chain_heights(mask)

    def mask_height(self, mask: int) -> int:
        """Longest chain inside ``mask``, minus one; -1 for the empty mask."""
        return max(self._mask_levels(mask), default=-1)

    def _typed_components(self, mask: int) -> List[Tuple[int, int]]:
        """The components of ``mask`` in ``component_masks`` order, each with
        its height: the largest of its members' longest chains inside
        ``mask``, from one longest-chain pass."""
        level = self._mask_levels(mask)
        typed = []
        for c in self.component_masks(mask):
            best, m = -1, c
            while m:  # inline: through _bits this step took about twice as long
                b = m & -m
                m ^= b
                v = level[b.bit_length() - 1]
                if v > best:
                    best = v
            typed.append((c, best))
        return typed

    def contype_of_mask(self, mask: int) -> Tuple[int, ...]:
        """Connectedness type of the subposet on ``mask``: the heights
        (longest chain sizes) of its components in descending order, ``()``
        for the empty mask."""
        return tuple(sorted((h + 1 for _, h in self._typed_components(mask)), reverse=True))

    def _grouped_types(self, rows, pieces, tops, within: int = -1) -> List[Tuple[int, ...]]:
        """For each row of elements j, the connectedness type of the union of
        the pieces ``pieces[j] & within``, each connected and of height
        ``tops[j] + 1``: pieces whose masks meet are joined, transitively,
        into the components, and a component's height is the largest of its
        pieces'. Pieces that miss ``within`` are left out."""
        out = []
        for row in rows:
            groups: Dict[int, int] = {}  # mask -> height of each component so far
            for j in row:
                mask, top = pieces[j] & within, tops[j] + 1
                if mask:
                    for other in [m for m in groups if m & mask]:
                        mask |= other
                        top = max(top, groups.pop(other))
                    groups[mask] = top
            out.append(tuple(sorted(groups.values(), reverse=True)))
        return out

    @cached_property
    def strict_up_contypes(self) -> Tuple[Tuple[int, ...], ...]:
        """Connectedness type of the strict upset of each element, indexed by
        element, as height tuples (see :meth:`contype_of_mask`). The strict
        upset of i is the union of up(j) over its upper covers j, each
        connected with j at its bottom and of height ``depths[j] + 1``, since
        an upset holds every chain starting in it (see ``_grouped_types``)."""
        return tuple(self._grouped_types(self.covers_up, self._up, self.depths))

    @cached_property
    def _strict_up_types(self) -> Dict[Tuple[int, ...], int]:
        """Each distinct strict-upset type with the first element of that
        type by decreasing height, then index, in the order of those
        elements; built by walking the elements in that order."""
        contypes = self.strict_up_contypes
        types: Dict[Tuple[int, ...], int] = {}
        for i in self._by_height:
            types.setdefault(contypes[i], i)
        return types

    @cached_property
    def _branches(self) -> Optional[Tuple[Tuple[Tuple[int, ...], ...], Signature]]:
        """For a rooted poset whose every other element has one lower and at
        most one upper cover (a starlike tree): its branches, each from the
        root's upper cover upwards, by decreasing length and then bottom
        index, with the signature of their lengths; None for any other."""
        root = next((i for i in range(self.n) if self._up[i] == self.full_mask), None)
        down, up = self.covers_down, self.covers_up
        if root is None or any(len(down[j]) != 1 or len(up[j]) > 1 for j in range(self.n) if j != root):
            return None
        branches = []
        for bottom in up[root]:
            branch = [bottom]
            while up[branch[-1]]:
                branch.append(up[branch[-1]][0])
            branches.append(tuple(branch))
        branches.sort(key=lambda b: (-len(b), b[0]))
        return tuple(branches), Signature.from_heights(len(b) for b in branches)

    @cached_property
    def diamond_contypes(self) -> frozenset:
        """Distinct connectedness types of the strict diamonds of all pairs
        x < y, as height tuples. The strict diamond (x, y) is the union of the
        intervals (x, z] over the lower covers z of y above x, and the height
        of (x, z] is the longest chain ending at z inside the strict upset of
        x, so one pass over that upset serves every y (see ``_grouped_types``)."""
        types = set()
        for x in range(self.n):
            above = self.strict_up_mask(x)
            rows = [self.covers_down[y] for y in _bits(above)]
            types.update(self._grouped_types(rows, self._down, self._chain_heights(above), above))
        return frozenset(types)

    @cached_property
    def _nerve_contypes(self) -> Tuple[Tuple[int, ...], ...]:
        """Distinct connectedness types of the strict upsets of the nerve,
        sorted, up to types that add no split: those of every strict upset,
        strict downset and strict diamond (see ``nerve_is_alpha_connected``).
        The strict downset of i is the union of down(j) over its lower covers
        j, each of height ``heights[j] + 1``, dual to the upsets."""
        downs = self._grouped_types(self.covers_down, self._down, self.heights)
        return tuple(sorted({*self.strict_up_contypes, *self.diamond_contypes, *downs}))

    # -- chains ---------------------------------------------------------------------

    def count_chains(self) -> int:
        """Number of nonempty chains (computed without materialising them)."""
        ending = [0] * self.n
        for i in self._extension:
            ending[i] = 1 + sum(ending[j] for j in _bits(self.strict_down_mask(i)))
        return sum(ending)

    def iter_chain_masks(self, budget: int = SIZE_BUDGET):
        """Yield every nonempty chain as a bitmask, each exactly once, depth
        first from a stack of (chain, candidates) pairs: a chain is extended
        only by higher-indexed comparable elements, lowest index first."""
        produced = 0
        comparable = self._comparable
        stack = [(0, self.full_mask)] if self.n else []
        while stack:
            mask, candidates = stack.pop()
            b = candidates & -candidates
            candidates ^= b
            if candidates:
                stack.append((mask, candidates))
            produced += 1
            if produced > budget:
                raise SizeBudgetExceeded(f"chain enumeration exceeds budget {budget}")
            yield mask | b
            # the candidates left are all above b's index
            rest = candidates & comparable[b.bit_length() - 1]
            if rest:
                stack.append((mask | b, rest))

    @cached_property
    def _upset_algebra(self) -> "UpsetAlgebra":
        """This poset's upset algebra: one listing and one down-closure memo."""
        return UpsetAlgebra(self)

    def restrict(self, labels: Iterable[str]) -> "FinitePoset":
        """Induced subposet on the given elements (original label order)."""
        keep = sorted((self.index(lab) for lab in labels))
        new_labels = [self.labels[i] for i in keep]
        pos = {old: new for new, old in enumerate(keep)}
        masks = []
        for old in keep:
            m = 0
            u = self._up[old]
            for other in keep:
                if (u >> other) & 1:
                    m |= 1 << pos[other]
            masks.append(m)
        return FinitePoset(new_labels, masks, _trusted=True)

    # -- serialisation -----------------------------------------------------------------

    def cover_edges(self) -> List[Tuple[str, str]]:
        edges = []
        for i in range(self.n):
            for j in self.covers_up[i]:
                edges.append((self.labels[i], self.labels[j]))
        edges.sort()
        return edges

    def to_json(self) -> str:
        payload = {"elements": list(self.labels), "edges": [list(e) for e in self.cover_edges()]}
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FinitePoset":
        payload = load_json(text, "poset")
        if not isinstance(payload, dict) or not {"elements", "edges"} <= payload.keys():
            raise MalformedInput("poset JSON must be an object with 'elements' and 'edges'")
        elements, edges = payload["elements"], payload["edges"]
        if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
            raise MalformedInput("poset JSON 'elements' must be a list of strings")
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)
            for e in edges
        ):
            raise MalformedInput("poset JSON 'edges' must be a list of pairs of strings")
        return validate_poset(elements, [tuple(e) for e in edges])

    def to_dot(self, name: str = "poset") -> str:
        lines = [f"digraph {name} {{"]
        for lab in self.labels:
            lines.append(f'  "{lab}";')
        for a, b in self.cover_edges():
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


class UpsetAlgebra:
    """The finite Heyting algebra of up-closed subsets of a poset, with
    elements represented as bitmasks over the carrier."""

    bottom = 0

    def __init__(self, poset: FinitePoset):
        self.poset = poset
        self.top = poset.full_mask
        self._down: Dict[int, int] = {0: 0}  # down-closures met so far
        self._table: Optional[Tuple[int, ...]] = None  # the finished listing

    @property
    def elements(self) -> Tuple[int, ...]:
        """Every up-closed subset, by size and then by bitmask."""
        return self.upsets()

    def upsets(self, k: int = 0, budget: Optional[int] = None) -> Tuple[int, ...]:
        """Every up-closed subset as a bitmask, by size, then by mask; more
        than `budget` valuations of `k` variables raise SizeBudgetExceeded.
        The first listing decides elements in decreasing-height order, one
        joining a set only if its upper covers did, so the sets found so far
        are upsets and their count never shrinks: it stops as soon as they
        are too many. Only a listing that a call returns is kept."""
        masks, poset = self._table, self.poset
        if masks is None:
            masks = [0]
            for i in poset._by_height:
                if budget is not None and len(masks) ** k > budget:
                    raise SizeBudgetExceeded(
                        f"at least {len(masks) ** k} valuations exceed the budget of {budget}"
                    )
                covers = sum(1 << j for j in poset.covers_up[i])
                masks += [m | 1 << i for m in masks if covers & ~m == 0]
            masks = tuple(sorted(masks, key=lambda m: (bin(m).count("1"), m)))
        if budget is not None and len(masks) ** k > budget:
            raise SizeBudgetExceeded(f"{len(masks) ** k} valuations exceed the budget of {budget}")
        self._table = masks
        return masks

    def implies(self, u: int, v: int) -> int:
        """U -> V holds at the points x with no y >= x in U but not in V:
        the complement of the down-closure of U minus V."""
        gap = u & ~v
        down = self._down.get(gap)
        if down is None:
            down = 0
            for i in _bits(gap):
                down |= self.poset.down_mask(i)
            self._down[gap] = down
        return self.top & ~down

    def members(self, mask: int) -> frozenset:
        return self.poset.labels_of(mask)


def _check_partial_order(up_masks: Sequence[int]) -> None:
    n = len(up_masks)
    for i, mask in enumerate(up_masks):
        if not (mask >> i) & 1:
            raise MalformedInput(f"relation not reflexive at element {i}")
        for j in _bits(mask & ~(1 << i)):
            if (up_masks[j] >> i) & 1:
                raise CycleDetected(f"elements {i} and {j} are mutually related")
            if up_masks[j] & ~mask:
                raise MalformedInput(f"relation not transitive at {i} <= {j}")


# -- construction ----------------------------------------------------------------------


def validate_poset(elements: Sequence[str], edges: Iterable[Tuple[str, str]]) -> FinitePoset:
    """Build a poset from generators ``a < b``, applying reflexive-transitive
    closure. Rejects duplicate labels and cycles."""
    labels = tuple(elements)
    if len(set(labels)) != len(labels):
        raise DuplicateLabel("element labels must be pairwise distinct")
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    adj: List[int] = [0] * n
    for a, b in edges:
        if a not in index:
            raise UnknownElement(f"edge endpoint {a!r} not among elements")
        if b not in index:
            raise UnknownElement(f"edge endpoint {b!r} not among elements")
        if a == b:
            raise CycleDetected(f"self-loop at {a!r}")
        adj[index[a]] |= 1 << index[b]

    up = [0] * n
    state = [0] * n  # 0 unvisited, 1 on stack, 2 done
    for start in range(n):
        if state[start]:
            continue
        stack = [(start, list(_bits(adj[start])))]
        state[start] = 1
        up[start] = 1 << start
        while stack:
            i, todo = stack[-1]
            if todo:
                j = todo.pop()
                if state[j] == 1:
                    raise CycleDetected(f"cycle through {labels[i]!r} and {labels[j]!r}")
                if state[j] == 0:
                    state[j] = 1
                    up[j] = 1 << j
                    stack.append((j, list(_bits(adj[j]))))
                else:
                    up[i] |= up[j]
            else:
                stack.pop()
                state[i] = 2
                if stack:
                    up[stack[-1][0]] |= up[i]
    return FinitePoset(labels, up, _trusted=True)


def _bits(mask: int):
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def poset_from_cover_dag(labels: Sequence[str], covers_up: Sequence[Sequence[int]]) -> FinitePoset:
    """Fast trusted construction from an acyclic cover relation given in a
    topological order (every cover target has a larger index).
    ``covers_up[i]`` must list exactly the elements that cover i, in
    ascending order: the poset keeps those lists as its ``covers_up`` and
    the index order as its linear extension, unchecked."""
    n = len(labels)
    up = [0] * n
    for i in range(n - 1, -1, -1):
        mask = 1 << i
        for j in covers_up[i]:
            mask |= up[j]
        up[i] = mask
    poset = FinitePoset(labels, up, _trusted=True)
    poset.covers_up = tuple(map(tuple, covers_up))
    poset._extension = tuple(range(n))
    return poset


# -- the basic operations ------------------------------------------------------------------


def up_set(poset: FinitePoset, x: str) -> frozenset:
    return poset.labels_of(poset.up_mask(poset.index(x)))


def down_set(poset: FinitePoset, x: str) -> frozenset:
    return poset.labels_of(poset.down_mask(poset.index(x)))


def strict_up(poset: FinitePoset, x: str) -> frozenset:
    return poset.labels_of(poset.strict_up_mask(poset.index(x)))


def strict_down(poset: FinitePoset, x: str) -> frozenset:
    return poset.labels_of(poset.strict_down_mask(poset.index(x)))


def height(poset: FinitePoset) -> int:
    if poset.is_empty:
        raise EmptyPoset("height of the empty poset is undefined")
    return max(poset.heights)


def height_of(poset: FinitePoset, x: str) -> int:
    return poset.heights[poset.index(x)]


def depth_of(poset: FinitePoset, x: str) -> int:
    return poset.depths[poset.index(x)]


def width(poset: FinitePoset) -> int:
    """Size of the largest antichain: n minus a maximum matching between
    the lower and upper copies of the strict order, whose matched pairs
    join up into a minimum chain cover (Dilworth 1950; Fulkerson 1956).
    Each augmenting path is found by an iterative depth-first search."""
    if poset.is_empty:
        raise EmptyPoset("width of the empty poset is undefined")
    mate = [-1] * poset.n  # mate[j]: the element matched below j, or -1
    matched = 0
    for start in range(poset.n):
        seen = 0  # upper copies already tried from this start
        stack = [(start, _bits(poset.strict_up_mask(start)))]
        path: List[int] = []  # path[k]: the upper copy taken from stack[k]
        while stack:
            j = next((j for j in stack[-1][1] if not seen >> j & 1), None)
            if j is None:
                stack.pop()
                if path:
                    path.pop()
                continue
            seen |= 1 << j
            path.append(j)
            if mate[j] < 0:  # augment: rematch along the path
                for (i, _), k in zip(stack, path):
                    mate[k] = i
                matched += 1
                break
            stack.append((mate[j], _bits(poset.strict_up_mask(mate[j]))))
    return poset.n - matched


def connected_components(poset: FinitePoset) -> List[frozenset]:
    """Partition of the carrier into path components; each is up- and
    down-closed. Empty poset gives []. Deterministic order."""
    comps = poset.component_masks(poset.full_mask)
    return [poset.labels_of(c) for c in comps]


def con_type(poset: FinitePoset) -> Signature:
    return Signature.from_heights(poset.contype_of_mask(poset.full_mask))


def is_graded(poset: FinitePoset) -> Optional[Dict[str, int]]:
    """The unique rank function (ranks = heights) if the poset is graded,
    else None."""
    if poset.is_empty:
        raise EmptyPoset("gradedness of the empty poset is undefined")
    h = poset.heights
    for i in range(poset.n):
        for j in poset.covers_up[i]:
            if h[j] != h[i] + 1:
                return None
    return {poset.labels[i]: h[i] for i in range(poset.n)}


def diamond(poset: FinitePoset, x: str, y: str) -> frozenset:
    i, j = poset.index(x), poset.index(y)
    if i == j or not (poset._up[i] >> j & 1):
        raise NotComparable(f"{x!r} < {y!r} does not hold")
    return poset.labels_of(poset.up_mask(i) & poset.down_mask(j))


def strict_diamond(poset: FinitePoset, x: str, y: str) -> frozenset:
    i, j = poset.index(x), poset.index(y)
    if i == j or not (poset._up[i] >> j & 1):
        raise NotComparable(f"{x!r} < {y!r} does not hold")
    return poset.labels_of(poset.strict_up_mask(i) & poset.strict_down_mask(j))


def check_completion(poset: FinitePoset) -> FinitePoset:
    """The poset plus a fresh top above everything, labelled "inf"."""
    if COMPLETION_LABEL in poset:
        raise LabelCollision(f"label {COMPLETION_LABEL!r} already in use")
    n = poset.n
    top_bit = 1 << n
    masks = [m | top_bit for m in poset._up]
    masks.append(top_bit)
    return FinitePoset(poset.labels + (COMPLETION_LABEL,), masks, _trusted=True)


def is_tree(poset: FinitePoset) -> bool:
    """Rooted, and every non-root element has exactly one immediate
    predecessor."""
    if poset.is_empty or poset.root() is None:
        return False
    root_idx = poset.index(poset.root())
    return all(
        len(poset.covers_down[i]) == 1
        for i in range(poset.n)
        if i != root_idx
    )


def tree_unravelling(poset: FinitePoset):
    """Tree(F): chains maximal in the downset of their own maximum, ordered by
    inclusion, together with the p-morphism sending a chain to its maximum.

    Returns ``(tree, last)``. Chains are labelled by their members in
    ascending order, joined with "/".
    """
    from .morphisms import PMorphism  # deferred: morphisms depends on posets

    if poset.root() is None:
        raise NotRooted("tree unravelling needs a rooted poset")
    # cover-paths from the root to each element, grown bottom-up
    paths_to: List[List[Tuple[int, ...]]] = [[] for _ in range(poset.n)]
    root_idx = poset.index(poset.root())
    order = sorted(range(poset.n), key=lambda i: (poset.heights[i], i))
    for i in order:
        if i == root_idx:
            paths_to[i] = [(i,)]
            continue
        acc = []
        for below in poset.covers_down[i]:
            acc.extend(path + (i,) for path in paths_to[below])
        paths_to[i] = acc

    all_paths = [p for plist in paths_to for p in plist]
    all_paths.sort(key=lambda p: (len(p), p))
    labels = ["/".join(poset.labels[i] for i in p) for p in all_paths]
    position = {p: k for k, p in enumerate(all_paths)}
    covers: List[List[int]] = [[] for p in all_paths]
    for p in all_paths:
        if len(p) > 1:
            covers[position[p[:-1]]].append(position[p])
    tree = poset_from_cover_dag(labels, covers)
    mapping = {labels[k]: poset.labels[p[-1]] for k, p in enumerate(all_paths)}
    last = PMorphism(tree, poset, frozenset(labels), mapping)
    return tree, last


def chain_element_at(tree: FinitePoset, x: str, k: int) -> str:
    """The element of the (unique) chain below ``x`` at height ``k``;
    negative ``k`` counts down from ``x`` (so -1 is the immediate
    predecessor)."""
    if not is_tree(tree):
        raise NotATree("chain positions only make sense in a tree")
    i = tree.index(x)
    target = tree.heights[i] + k if k < 0 else k
    if not 0 <= target <= tree.heights[i]:
        raise IndexOutOfRange(
            f"no element of height {target} below {x!r} (height {tree.heights[i]})"
        )
    # the downset of a tree element is a chain with one element per height
    return next(tree.labels[j] for j in _bits(tree.down_mask(i)) if tree.heights[j] == target)
