"""Exact-rational simplicial complexes: validation, face posets, carriers,
stellar / barycentric / mediant subdivisions, lattice unimodularity, and the
standard-basis realization of finite posets.

All coordinates are Fractions over arbitrary-precision integers; membership
and interiority are decided exactly, so there is no tolerance parameter
anywhere.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from math import lcm, prod
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ._support import Frozen, cached_property, load_json
from .errors import (
    AffineDependence,
    BadIntersection,
    DimensionMismatch,
    MalformedInput,
    NotDownwardClosed,
    NotUpwardClosed,
    PointOutsideSupport,
    PreconditionViolated,
    SizeBudgetExceeded,
    UnknownElement,
)
from .exactla import (
    _eliminate,
    _integer_determinant,
    _integer_row,
    _normal,
    _solve_integer,
    lp_maximize,
    rank_exact,
    smith_divisors,
)
from .nerves import nerve
from .posets import SIZE_BUDGET, FinitePoset, _bits, poset_from_cover_dag

RationalPoint = Tuple[Fraction, ...]


class _Point(tuple):
    """A rational point as a tuple of Fractions, made once where it enters the
    package: it equals, orders and hashes like the plain tuple, but its hash
    and its integer homogeneous vector are computed once, two points compare
    through their vectors rather than their Fractions, and every simplex on
    it shares the object, so set and dict lookups stop early on identity."""

    def __new__(cls, coords: Iterable[Fraction]) -> "_Point":
        point = tuple.__new__(cls, coords)
        point._hash = tuple.__hash__(point)
        return point

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return _Point, (tuple(self),)

    def __eq__(self, other) -> bool:
        if type(other) is _Point:  # primitive homogeneous vectors are unique
            return self is other or self._homogeneous == other._homogeneous
        return tuple.__eq__(self, other)

    def __lt__(self, other) -> bool:
        """The order of the Fraction tuples: the first coordinates that
        differ decide, and x/p < y/q iff x q < y p for positive p and q."""
        if type(other) is not _Point or len(other) != len(self):
            return tuple.__lt__(self, other)
        *mine, p = self._homogeneous
        *theirs, q = other._homogeneous
        if p == q:
            return mine < theirs
        return [x * q for x in mine] < [y * p for y in theirs]

    @cached_property
    def _text(self) -> str:
        return _format_point(self)

    @cached_property
    def _homogeneous(self) -> Tuple[int, ...]:
        """The primitive integer vector (q x, q), q the lcm of the denominators."""
        return tuple(_integer_row((*self, 1))[0])


def rational_point(coords: Iterable) -> RationalPoint:
    """The point of the given coordinates, each anything Fraction reads;
    MalformedInput for anything else, or for a point that is no sequence."""
    if type(coords) is _Point:
        return coords
    try:
        return _Point(Fraction(c) for c in coords)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise MalformedInput(f"not a rational point: {exc}") from exc


def _format_coord(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _format_point(point: RationalPoint) -> str:
    return ",".join(_format_coord(c) for c in point)


class Simplex(Frozen):
    """The convex hull of affinely independent rational vertices, identified
    with its (canonically sorted) vertex tuple."""

    vertices: Tuple[RationalPoint, ...]

    def __init__(self, vertices: Iterable[Sequence]):
        raw = tuple(rational_point(v) for v in vertices)
        verts = tuple(sorted(set(raw)))
        if not verts:
            raise MalformedInput("a simplex needs at least one vertex")
        if len(verts) != len(raw):
            raise AffineDependence("repeated vertex")
        if len({len(v) for v in verts}) != 1:
            raise DimensionMismatch("vertices must share an ambient dimension")
        object.__setattr__(self, "vertices", verts)
        if rank_exact(self._integer_matrix) != len(verts):
            raise AffineDependence(f"vertices are affinely dependent: {self.label()}")

    @classmethod
    def _sorted(cls, vertices: Tuple[RationalPoint, ...]) -> "Simplex":
        """A simplex on points of this module already known to be distinct,
        affinely independent and in sorted order: neither normalised nor
        rank-checked. For internal constructions only, never for outside
        input."""
        simplex = object.__new__(cls)
        object.__setattr__(simplex, "vertices", vertices)
        return simplex

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @cached_property
    def vertex_set(self) -> FrozenSet[RationalPoint]:
        return frozenset(self.vertices)

    @cached_property
    def _integer_matrix(self) -> Tuple[Tuple[int, ...], ...]:
        """The rows of the matrix whose columns are the vertices' homogeneous
        vectors: the vertices with a 1 appended, each column scaled to
        integers. Its rank is the number of vertices exactly when they are
        affinely independent."""
        return tuple(zip(*(v._homogeneous for v in self.vertices)))

    @cached_property
    def _facet_normals(self) -> Tuple[Tuple[int, ...], ...]:
        """For a full-dimensional simplex, per vertex, an integer normal of
        the hyperplane through the other vertices' homogeneous vectors,
        signed so that the vertex's own vector lies on its positive side."""
        rows = [v._homogeneous for v in self.vertices]
        normals = []
        for i, apex in enumerate(rows):
            normal = _normal(rows[:i] + rows[i + 1 :])
            if sum(a * b for a, b in zip(normal, apex)) < 0:
                normal = [-a for a in normal]
            normals.append(tuple(normal))
        return tuple(normals)

    @cached_property
    def _hash(self) -> int:
        return hash((self.vertices,))  # the former dataclass value: set orders stay as they were

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertices == other.vertices

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(vertices={self.vertices!r})"

    def label(self) -> str:
        return "<" + ";".join(v._text for v in self.vertices) + ">"

    def faces(self) -> List["Simplex"]:
        """Every nonempty sub-simplex, self included."""
        verts = self.vertices
        return [Simplex._sorted(tuple(verts[i] for i in _bits(mask))) for mask in range(1, 1 << len(verts))]

    def is_face_of(self, other: "Simplex") -> bool:
        return self.vertex_set <= other.vertex_set

    def barycentre(self) -> RationalPoint:
        return _barycentre(self.vertices)

    def barycentric_coords(self, point: Sequence) -> Optional[Tuple[Fraction, ...]]:
        """Coefficients of the point over the vertices (summing to one), or
        None when the point is outside the affine span."""
        coords = self._integer_coords(rational_point(point))
        if coords is None:
            return None
        numerators, denom = coords
        return tuple(Fraction(m, denom) for m in numerators)

    def _integer_coords(self, point: RationalPoint) -> Optional[Tuple[List[int], int]]:
        """barycentric_coords as integer numerators over one positive
        denominator, or None."""
        if len(point) != self.ambient_dim:
            raise DimensionMismatch(
                f"a point of Q^{len(point)} tested against a simplex in Q^{self.ambient_dim}"
            )
        # the solution of sum_v m_v (q_v v, q_v) = (q p, q) is m_v = c_v q / q_v
        tableau = [(*row, b) for row, b in zip(self._integer_matrix, point._homogeneous)]
        solution = _solve_integer(tableau, len(self.vertices))
        if solution is None:
            return None
        numerators, denom = solution
        scaled = [m * v._homogeneous[-1] for m, v in zip(numerators, self.vertices)]
        return scaled, denom * point._homogeneous[-1]

    def contains(self, point: Sequence) -> bool:
        coords = self.barycentric_coords(point)
        return coords is not None and all(c >= 0 for c in coords)

    def relint_contains(self, point: Sequence) -> bool:
        coords = self.barycentric_coords(point)
        return coords is not None and all(c > 0 for c in coords)


def _barycentre(vertices: Sequence[RationalPoint]) -> RationalPoint:
    *rows, qs = zip(*(v._homogeneous for v in vertices))
    common = lcm(*qs)
    weights = [common // q for q in qs]
    return _Point(Fraction(sum(c * w for c, w in zip(row, weights)), common * len(qs)) for row in rows)


def barycentre(simplex: Simplex) -> RationalPoint:
    return simplex.barycentre()


def relint_contains(simplex: Simplex, point: Sequence) -> bool:
    return simplex.relint_contains(point)


def _in_order(masks: Iterable[int]) -> Tuple[int, ...]:
    """Simplex masks by size, then by their ranks in ascending order, as in
    sorted_simplices: of two masks of one size, the one holding their lowest
    differing bit comes first, so bit strings read from bit 0 go downwards."""
    return tuple(sorted(masks, key=lambda m: (-m.bit_count(), bin(m)[:1:-1]), reverse=True))


class RationalComplex:
    """A finite simplicial complex: downward-closed, with pairwise
    intersections that are common faces. Use validate_complex for foreign
    data; internal constructions are complexes by design and skip both
    checks. It is held as its sorted vertex tuple and a frozenset of int
    masks over their ranks, one per simplex; Simplex objects are made only
    where the API hands simplices out."""

    def __init__(self, simplices: Iterable[Simplex], _trusted: bool = False):
        simplices = frozenset(simplices)
        if len({s.ambient_dim for s in simplices}) > 1:
            raise DimensionMismatch("simplices must share an ambient space")
        self.vertices = tuple(sorted({v for s in simplices for v in s.vertices}))
        rank = self._rank
        self._masks = frozenset(sum(1 << rank[v] for v in s.vertices) for s in simplices)
        self.simplices = simplices
        if not _trusted:
            _check_complex(self)

    @classmethod
    def _built(cls, vertices: Tuple[RationalPoint, ...], masks: FrozenSet[int]) -> "RationalComplex":
        """Unchecked, for internal constructions: masks over sorted vertices, each used."""
        complex_ = object.__new__(cls)
        complex_.vertices, complex_._masks = vertices, masks
        return complex_

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0]) if self.vertices else 0

    @cached_property
    def _rank(self) -> Dict[RationalPoint, int]:
        return {v: r for r, v in enumerate(self.vertices)}

    def _simplex(self, mask: int) -> Simplex:
        return Simplex._sorted(tuple(self.vertices[r] for r in _bits(mask)))

    def _mask_of(self, simplex: Simplex) -> Optional[int]:
        """The mask of a member simplex; None for anything else."""
        if not isinstance(simplex, Simplex):
            return None
        mask = 0
        for v in simplex.vertices:
            r = self._rank.get(v)
            if r is None:
                return None
            mask |= 1 << r
        return mask if mask in self._masks else None

    @cached_property
    def simplices(self) -> FrozenSet[Simplex]:
        return frozenset(map(self._simplex, self._masks))

    @cached_property
    def _sorted_masks(self) -> Tuple[int, ...]:
        return _in_order(self._masks)

    @cached_property
    def sorted_simplices(self) -> Tuple[Simplex, ...]:
        return tuple(map(self._simplex, self._sorted_masks))

    @cached_property
    def _tops(self) -> Tuple[int, ...]:
        """Masks of the maximal simplices in sorted order: no facet m ^ bit of another."""
        covered = {m ^ (1 << r) for m in self._masks for r in _bits(m)}
        return _in_order(self._masks - covered)

    @cached_property
    def _maximal(self) -> Tuple[Simplex, ...]:
        return tuple(map(self._simplex, self._tops))

    def maximal_simplices(self) -> List[Simplex]:
        return list(self._maximal)

    @cached_property
    def _index(self) -> Dict[int, int]:
        """Mask -> position in sorted_simplices, i.e. in the face poset."""
        return {m: i for i, m in enumerate(self._sorted_masks)}

    @cached_property
    def _face_poset(self) -> FinitePoset:
        """The lower covers of a simplex are its facets m ^ bit; dropping a
        higher rank leaves an earlier face, so covers_down lists them reversed."""
        index = self._index
        ups: List[List[int]] = [[] for _ in index]
        downs = []
        for j, m in enumerate(self._sorted_masks):
            below = [index[m ^ (1 << r)] for r in _bits(m)] if m & (m - 1) else []
            below.reverse()
            for i in below:
                ups[i].append(j)
            downs.append(tuple(below))
        texts = [v._text for v in self.vertices]
        labels = ["<" + ";".join([texts[r] for r in _bits(m)]) + ">" for m in self._sorted_masks]
        faces = poset_from_cover_dag(labels, ups)
        faces.covers_down = tuple(downs)
        return faces

    def __len__(self) -> int:
        return len(self._masks)

    def __contains__(self, simplex: Simplex) -> bool:
        return self._mask_of(simplex) is not None

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalComplex) and (self.vertices, self._masks) == (other.vertices, other._masks)

    def __hash__(self):
        return hash((self.vertices, self._masks))

    def __repr__(self) -> str:
        return f"RationalComplex({len(self._masks)} simplices in Q^{self.ambient_dim})"

    # -- serialisation: maximal simplices only, exact integer pairs -------------

    def to_json(self) -> str:
        payload = {
            "dim": self.ambient_dim,
            "vertices": [[[c.numerator, c.denominator] for c in v] for v in self.vertices],
            "simplices": [list(_bits(m)) for m in self._tops],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RationalComplex":
        payload = load_json(text, "complex")
        try:
            if type(payload["dim"]) is not int:
                raise MalformedInput("dim must be an integer")
            if payload["dim"] < 0:
                raise MalformedInput("dim must be nonnegative")
            if payload["dim"] and not payload["vertices"]:
                raise MalformedInput("a complex with no vertices must have dim 0")
            if not all(_is_coordinate(c) for v in payload["vertices"] for c in v):
                raise MalformedInput("a coordinate must be a pair of integers [numerator, denominator]")
            verts = [_Point(Fraction(num, den) for num, den in v) for v in payload["vertices"]]
            for v in verts:
                if len(v) != payload["dim"]:
                    raise MalformedInput("vertex dimension disagrees with the declared dim")
            if not all(ix and all(type(i) is int for i in ix) for ix in payload["simplices"]):
                raise MalformedInput("a simplex must be a nonempty list of vertex indices")
            if not all(0 <= i < len(verts) for ix in payload["simplices"] for i in ix):
                raise MalformedInput("a simplex names a vertex index out of range")
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise MalformedInput(f"malformed complex JSON: {exc!r}") from exc
        return _complex_from_table(verts, payload["simplices"])


def _complex_from_table(verts: List[RationalPoint], listed: List[List[int]]) -> RationalComplex:
    """The complex of the listed simplices, given as indices into the vertex
    table, and of all their faces, validated as validate_complex would.

    The distinct points the simplices use are sorted once, and each listed
    simplex becomes a mask over their ranks; the faces are the submasks, so
    the family is downward closed by construction. If a listed simplex
    repeats a point or is affinely dependent, the Simplex constructor reruns
    on each listed simplex in turn, to raise the first error in list order."""
    order = sorted({verts[i] for ix in listed for i in ix})
    rank = {v: r for r, v in enumerate(order)}
    masks = []
    for ix in listed:
        mask = 0
        for i in ix:
            mask |= 1 << rank[verts[i]]
        masks.append(mask)
    repeats = any(mask.bit_count() != len(ix) for mask, ix in zip(masks, listed))
    closure = None if repeats else _independent_closure(masks, order)
    if closure is None:
        for ix in listed:
            Simplex(tuple(verts[i] for i in ix))
        raise RuntimeError("internal error: no listed simplex failed its own check")
    faces, tops = closure
    complex_ = RationalComplex._built(tuple(order), frozenset(faces))
    complex_._rank, complex_._tops = rank, _in_order(tops)
    _check_pairs(complex_._maximal)
    return complex_


def _independent_closure(masks: List[int], order: Sequence[RationalPoint]) -> Optional[Tuple[Set[int], List[int]]]:
    """Every nonempty submask of the masks over the sorted points, and the
    masks no other one contains, or None when some point set is affinely
    dependent. Only those maximal masks are checked, largest first and before
    their submasks are listed: a face of an independent set is independent."""
    faces: Set[int] = set()
    tops = []
    for mask in sorted(set(masks), key=int.bit_count, reverse=True):
        if mask in faces:
            continue
        if rank_exact([order[r]._homogeneous for r in _bits(mask)]) != mask.bit_count():
            return None
        tops.append(mask)
        face = mask
        while face:
            faces.add(face)
            face = (face - 1) & mask
    return faces, tops


def _is_coordinate(pair) -> bool:
    return type(pair) is list and len(pair) == 2 and all(type(x) is int for x in pair)


def _intersection_is_common_face(s: Simplex, t: Simplex) -> bool:
    """Exact check that s ∩ t equals the face spanned by the shared vertices.

    Two integer certificates on the homogeneous vertex vectors settle most
    pairs. If the union of the vertices is affinely independent, s and t are
    faces of the simplex it spans. If the facet hyperplanes of one through
    every shared vertex put the other's unshared vertices beyond them
    (_facet_separates), the two meet in the shared face.

    The other pairs are decided by LP: a common point is a pair of convex
    combinations agreeing coordinatewise; the intersection sticks out of the
    shared face iff some such pair puts positive weight on a non-shared
    vertex. The LP runs on the integer matrices, in the weights divided by
    each vertex's q: a positive rescaling of the variables, which keeps the
    answer."""
    shared = s.vertex_set & t.vertex_set
    if len(shared) in (len(s.vertices), len(t.vertices)):
        return True  # one is a face of the other
    union = [v._homogeneous for v in s.vertices] + [v._homogeneous for v in t.vertices if v not in shared]
    if len(union) <= len(union[0]) and len(_eliminate(union, len(union[0]))[0]) == len(union):
        return True
    if _facet_separates(s, t, shared) or _facet_separates(t, s, shared):
        return True
    *s_rows, s_q = s._integer_matrix
    *t_rows, t_q = t._integer_matrix
    rows = [[*a, *(-c for c in b)] for a, b in zip(s_rows, t_rows)]
    rows += [[*s_q] + [0] * len(t_q), [0] * len(s_q) + [*t_q]]
    rhs = [0] * s.ambient_dim + [1, 1]
    objective = [q * (v not in shared) for v, q in zip(s.vertices + t.vertices, s_q + t_q)]
    best = lp_maximize(rows, rhs, objective)
    if best is None:
        return True  # disjoint
    if not shared:
        return False  # they meet but share no vertex
    return best == 0


def _facet_separates(s: Simplex, t: Simplex, shared: FrozenSet[RationalPoint]) -> bool:
    """Whether s is full-dimensional and its facet hyperplanes through every
    shared vertex, taken in turn, put each unshared vertex of t strictly
    beyond one of them: at each step no vertex left lies on the side of s,
    some lie beyond, and those drop out. A common point has weight 0 on the
    vertices dropped at each step, in turn, so it lies in the shared face.
    Sides are signs of a facet's oriented integer normal against the
    homogeneous vectors, whose last entries are positive."""
    if len(s.vertices) != s.ambient_dim + 1:
        return False
    others = [v._homogeneous for v in t.vertices if v not in shared]
    sides = [  # per facet through the shared vertices: < 0 beyond it, 0 on it
        [sum(a * b for a, b in zip(normal, x)) for x in others]
        for apex, normal in zip(s.vertices, s._facet_normals)
        if apex not in shared
    ]
    left = range(len(others))
    while left:
        for side in sides:
            if all(side[i] <= 0 for i in left) and any(side[i] for i in left):
                left = [i for i in left if not side[i]]
                break
        else:
            return False
    return True


def _check_complex(complex_: RationalComplex) -> None:
    rank, masks = complex_._rank, complex_._masks
    for s in complex_.simplices:
        mask = sum(1 << rank[v] for v in s.vertices)
        for r in _bits(mask):
            facet = mask ^ (1 << r)
            if facet and facet not in masks:
                raise NotDownwardClosed(f"face {complex_._simplex(facet).label()} of {s.label()} is missing")
    # Every facet present means downward closed, by induction on dimension.
    _check_pairs(complex_._maximal)


def _check_pairs(tops: Sequence[Simplex]) -> None:
    """In a downward-closed family, pairs of maximal simplices suffice:
    faces S' of S and T' of T meet inside S ∩ T, which is the common face on
    the shared vertices, and inside that face S' and T' meet in the face on
    their own shared vertices."""
    for i, s in enumerate(tops):
        for t in tops[i + 1 :]:
            if not _intersection_is_common_face(s, t):
                raise BadIntersection(f"{s.label()} and {t.label()} do not meet in a common face")


def validate_complex(simplices: Iterable[Simplex]) -> RationalComplex:
    """Check both complex axioms exactly and wrap the simplices up."""
    return RationalComplex(simplices, _trusted=False)


# -- face poset and carriers ----------------------------------------------------


def face_poset(complex_: RationalComplex) -> FinitePoset:
    """The simplices under the face relation, labelled canonically: element i
    is the i-th of sorted_simplices. Built once per complex."""
    return complex_._face_poset


def _locate(point: RationalPoint, complex_: RationalComplex) -> Tuple[int, Dict[int, int], int]:
    """The point's carrier as a mask, {vertex rank: positive numerator} and
    the positive denominator of its barycentric coordinates there, read off
    the first maximal simplex whose coordinates for it are all >= 0.
    Carriers are unique, so any maximal simplex holding it gives the same."""
    for mask, top in zip(complex_._tops, complex_._maximal):
        coords = top._integer_coords(point)
        if coords is not None and min(coords[0]) >= 0:
            numerators, denom = coords
            row = {r: m for r, m in zip(_bits(mask), numerators) if m > 0}
            return sum(1 << r for r in row), row, denom
    raise PointOutsideSupport(f"{_format_point(point)} lies outside the support")


def carrier(complex_: RationalComplex, point: Sequence) -> Simplex:
    """The unique simplex whose relative interior holds the point."""
    return complex_._simplex(_locate(rational_point(point), complex_)[0])


def _member_mask(complex_: RationalComplex, simplex: Simplex, refusal: str) -> int:
    mask = complex_._mask_of(simplex)
    if mask is None:
        raise UnknownElement(refusal)
    return mask


def open_star(complex_: RationalComplex, simplex: Simplex) -> FrozenSet[Simplex]:
    """The simplices whose relative interiors make up the open star."""
    mask = _member_mask(complex_, simplex, "open star is only defined for members of the complex")
    up = face_poset(complex_).up_mask(complex_._index[mask])
    return frozenset(complex_.sorted_simplices[j] for j in _bits(up))


# -- subdivisions ------------------------------------------------------------------


def elementary_stellar(complex_: RationalComplex, point: Sequence) -> RationalComplex:
    """Replace the open star of the point's carrier C: each simplex holding C
    (exactly the simplices holding the point) gives way to the cones to the
    point over its faces that miss C; every other simplex stays. Identity
    exactly when the point is a vertex. A face missing the point misses its
    affine span too, as aff(face) ∩ s = face, so each cone is a simplex."""
    point = rational_point(point)
    return _stellar(complex_, point, _locate(point, complex_)[0])


def _stellar(complex_: RationalComplex, point: RationalPoint, centre: int) -> RationalComplex:
    """elementary_stellar at a point whose carrier's mask is known: the point
    takes its rank among the sorted vertices, the ranks above move up one,
    and each mask holding the centre gives way to cones over its submasks."""
    verts = complex_.vertices
    k = bisect_left(verts, point)
    if k < len(verts) and verts[k] == point:
        return complex_  # a vertex is its own carrier: nothing moves
    low, apex = (1 << k) - 1, 1 << k
    centre = (centre & low) | (centre & ~low) << 1
    new = {apex}
    for m in complex_._masks:
        m = (m & low) | (m & ~low) << 1
        if m & centre != centre:
            new.add(m)
            continue
        face = m
        while face:
            if face & centre != centre:
                new.add(face | apex)
            face = (face - 1) & m
    return RationalComplex._built(verts[:k] + (point,) + verts[k:], frozenset(new))


def elementary_barycentric(complex_: RationalComplex, simplex: Simplex) -> RationalComplex:
    mask = _member_mask(complex_, simplex, "can only subdivide at a barycentre of a member simplex")
    return _stellar(complex_, simplex.barycentre(), mask)  # interior to the simplex


def barycentric_subdivision(complex_: RationalComplex, budget: int = SIZE_BUDGET) -> RationalComplex:
    """The order complex of the face poset, placed at the barycentres: one
    simplex conv(b(σ₀), …, b(σₖ)) per flag σ₀ < … < σₖ of the complex (Wachs,
    "Poset topology", arXiv:math/0602226). Its size, the number of flags, is
    checked against the budget before anything is built."""
    faces = face_poset(complex_)
    if (count := faces.count_chains()) > budget:
        raise SizeBudgetExceeded("subdivision simplices", count, budget)
    verts = complex_.vertices
    centres = [_barycentre([verts[r] for r in _bits(m)]) for m in complex_._sorted_masks]
    return _order_complex(centres, faces.iter_chain_masks(budget=budget))[0]


def _order_complex(points: Sequence[RationalPoint], chains: Iterable[int]) -> Tuple[RationalComplex, List[int]]:
    """The order complex of a poset placed at distinct points, one per
    element: one simplex per chain, spanned by its elements' points, and
    each chain's simplex mask, in the order of the chains. The points are
    sorted once, and a chain's bits map to their points' ranks. Unchecked:
    the callers place posets whose chains span a complex this way."""
    order = sorted(range(len(points)), key=points.__getitem__)
    bit = [0] * len(points)
    for r, i in enumerate(order):
        bit[i] = 1 << r
    masks = [sum(bit[i] for i in _bits(chain)) for chain in chains]
    return RationalComplex._built(tuple(points[i] for i in order), frozenset(masks)), masks


def derived(complex_: RationalComplex, k: int, budget: int = SIZE_BUDGET) -> RationalComplex:
    if k < 0:
        raise MalformedInput("the subdivision depth must be nonnegative")
    current = complex_
    for _ in range(k):
        current = barycentric_subdivision(current, budget=budget)
    return current


# -- rational lattice data ---------------------------------------------------------


def denominator(point: Sequence) -> int:
    point = rational_point(point)
    return lcm(*(c.denominator for c in point)) if point else 1


def homogeneous(point: Sequence) -> Tuple[int, ...]:
    """The integer vector (q x, q) for q the denominator of x."""
    return rational_point(point)._homogeneous


def is_unimodular(simplex: Simplex) -> bool:
    """Whether the homogeneous vertex vectors extend to a basis of the
    integer lattice: all elementary divisors must be 1."""
    divisors = smith_divisors(simplex._integer_matrix)
    return len(divisors) == len(simplex.vertices) and all(d == 1 for d in divisors)


def is_unimodular_complex(complex_: RationalComplex) -> bool:
    """Whether every simplex is unimodular. The maximal ones decide it: a
    face of a unimodular simplex is unimodular, as part of a lattice basis
    extends to one."""
    return all(is_unimodular(s) for s in complex_._maximal)


def farey_mediant(simplex: Simplex) -> RationalPoint:
    """The rational point whose homogeneous correspondent is the sum of the
    vertices'; always interior to the simplex."""
    total = [sum(row) for row in simplex._integer_matrix]
    q = total[-1]
    point = _Point(Fraction(c, q) for c in total[:-1])
    if not simplex.relint_contains(point):
        raise RuntimeError("internal error: mediant left the relative interior")
    return point


def elementary_farey(complex_: RationalComplex, simplex: Simplex) -> RationalComplex:
    mask = _member_mask(complex_, simplex, "can only take the mediant of a member simplex")
    return _stellar(complex_, farey_mediant(simplex), mask)


# -- refinement --------------------------------------------------------------------


def is_refinement(finer: RationalComplex, coarser: RationalComplex) -> bool:
    """Whether ``finer`` subdivides ``coarser``: same support, every fine
    simplex inside some coarse one. The support equality is checked per
    maximal coarse simplex by exact volume bookkeeping of the pieces it
    contains: their relative interiors are disjoint, so the k-dimensional
    pieces in a k-simplex cover it exactly when their chart volumes sum to
    1, and then the faces of those pieces cover its faces.

    Each fine vertex is located once, for its carrier and its coordinates
    there. Carriers are unique and the coarse side is downward closed, so a
    piece lies in a coarse simplex exactly when the union of its vertices'
    carriers is one, and its chart volume there is the determinant of the
    tabulated coordinates, zero off each carrier: an integer determinant
    over the product of the rows' denominators. An empty side needs no case
    of its own: an empty coarse side locates no fine vertex, and an empty
    fine side leaves every coarse volume at 0."""
    if finer.ambient_dim != coarser.ambient_dim:
        return False
    try:  # fine vertex rank -> (carrier mask, {coarse rank: numerator}, denominator)
        chart = [_locate(v, coarser) for v in finer.vertices]
    except PointOutsideSupport:
        return False
    hosts = coarser._masks
    volume = dict.fromkeys(coarser._tops, Fraction(0))
    for piece in finer._masks:
        ranks = list(_bits(piece))
        union = 0
        for r in ranks:
            union |= chart[r][0]
        if union not in hosts:
            return False
        if union.bit_count() == len(ranks) and union in volume:
            columns = list(_bits(union))
            rows = [[chart[r][1].get(w, 0) for w in columns] for r in ranks]
            scale = prod(chart[r][2] for r in ranks)
            volume[union] += Fraction(abs(_integer_determinant(rows)), scale)
    return all(total == 1 for total in volume.values())


# -- realizations -------------------------------------------------------------------


def geometric_realization(poset: FinitePoset, budget: int = SIZE_BUDGET) -> RationalComplex:
    """The standard-basis complex whose simplices are spanned by the chains
    of the poset. Chain k spans simplex k; that map is certified to be an
    isomorphism from the nerve onto the face poset before returning."""
    n = poset.n
    nrv = nerve(poset, budget=budget)
    basis = [_Point(Fraction(1 if k == i else 0) for k in range(n)) for i in range(n)]
    complex_, masks = _order_complex(basis, nrv.chain_masks)
    faces = face_poset(complex_)
    image = [complex_._index[m] for m in masks]
    if faces.n != nrv.n or any(
        sum(1 << image[j] for j in _bits(nrv.up_mask(k))) != faces.up_mask(image[k])
        for k in range(nrv.n)
    ):
        raise RuntimeError("internal error: realization disagrees with the nerve")
    return complex_


# -- upsets as open sets ---------------------------------------------------------------


class OpenPolyhedralSet(Frozen):
    """An open set of the support presented symbolically: the union of the
    relative interiors of an up-closed family of simplices, held as a mask
    over the face poset. The Heyting operations are those of its upset
    algebra; combining open sets of different complexes is refused.
    Immutable; equal to an open set of an equal complex with the same mask."""

    complex: RationalComplex
    _mask: int

    def __init__(self, complex: RationalComplex, members: Iterable[Simplex]):
        mask = 0
        for s in frozenset(members):
            member = complex._mask_of(s)
            if member is None:
                raise UnknownElement(f"{s.label()} is not in the complex")
            mask |= 1 << complex._index[member]
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "_mask", mask)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.complex, self._mask) == (other.complex, other._mask)

    def __hash__(self) -> int:
        return hash((self.complex, self._mask))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(complex={self.complex!r}, _mask={self._mask!r})"

    @property
    def members(self) -> FrozenSet[Simplex]:
        return frozenset(self.complex.sorted_simplices[i] for i in _bits(self._mask))

    def contains(self, point: Sequence) -> bool:
        return bool(self._mask >> self.complex._index[_locate(rational_point(point), self.complex)[0]] & 1)

    def _with(self, other: "OpenPolyhedralSet", mask: int) -> "OpenPolyhedralSet":
        """The open set of the shared complex with the given mask."""
        if self.complex is not other.complex and self.complex != other.complex:
            raise PreconditionViolated("open sets of different complexes do not combine")
        opened = OpenPolyhedralSet(self.complex, ())
        object.__setattr__(opened, "_mask", mask)
        return opened

    def __and__(self, other: "OpenPolyhedralSet") -> "OpenPolyhedralSet":
        return self._with(other, self._mask & other._mask)

    def __or__(self, other: "OpenPolyhedralSet") -> "OpenPolyhedralSet":
        return self._with(other, self._mask | other._mask)

    def implies(self, other: "OpenPolyhedralSet") -> "OpenPolyhedralSet":
        return self._with(other, face_poset(self.complex)._upset_algebra.implies(self._mask, other._mask))


def upset_to_open(complex_: RationalComplex, upset: Iterable[Simplex]) -> OpenPolyhedralSet:
    """Read an up-closed family of simplices as the open set made of their
    relative interiors. A failure names the first member, in sorted order,
    that misses a coface, and the first coface it misses."""
    opened = OpenPolyhedralSet(complex_, upset)
    faces = face_poset(complex_)
    for i in _bits(opened._mask):
        missing = faces.up_mask(i) & ~opened._mask
        if missing:
            coface = faces.labels[next(_bits(missing))]
            raise NotUpwardClosed(f"{faces.labels[i]} is included but its coface {coface} is not")
    return opened
