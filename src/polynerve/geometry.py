"""Exact-rational simplicial complexes: validation, face posets, carriers,
stellar / barycentric / mediant subdivisions, lattice unimodularity, and the
standard-basis realization of finite posets.

All coordinates are Fractions over arbitrary-precision integers; membership
and interiority are decided exactly, so there is no tolerance parameter
anywhere.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import (
    AffineDependence,
    BadIntersection,
    NotDownwardClosed,
    NotUpwardClosed,
    PointOutsideSupport,
    SizeBudgetExceeded,
    UnknownElement,
)
from .exactla import determinant, lp_maximize, rank_exact, smith_divisors, solve_exact
from .nerves import nerve
from .posets import FinitePoset, _bits, poset_from_cover_dag

RationalPoint = Tuple[Fraction, ...]

SIMPLEX_BUDGET = 10**6


def rational_point(coords: Iterable) -> RationalPoint:
    return tuple(Fraction(c) for c in coords)


def _format_coord(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _format_point(point: RationalPoint) -> str:
    return ",".join(_format_coord(c) for c in point)


@dataclass(frozen=True)
class Simplex:
    """The convex hull of affinely independent rational vertices, identified
    with its (canonically sorted) vertex tuple."""

    vertices: Tuple[RationalPoint, ...]

    def __post_init__(self):
        raw = tuple(tuple(Fraction(c) for c in v) for v in self.vertices)
        verts = tuple(sorted(set(raw)))
        if not verts:
            raise ValueError("a simplex needs at least one vertex")
        if len(verts) != len(raw):
            raise AffineDependence("repeated vertex")
        if len({len(v) for v in verts}) != 1:
            raise ValueError("vertices must share an ambient dimension")
        object.__setattr__(self, "vertices", verts)
        # affine independence: the homogenised vertex matrix has full rank
        mat = [list(v) + [Fraction(1)] for v in verts]
        if rank_exact(mat) != len(verts):
            raise AffineDependence(f"vertices are affinely dependent: {verts}")

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @property
    def vertex_set(self) -> FrozenSet[RationalPoint]:
        return frozenset(self.vertices)

    def label(self) -> str:
        return "<" + ";".join(_format_point(v) for v in self.vertices) + ">"

    def faces(self) -> List["Simplex"]:
        """Every nonempty sub-simplex, self included."""
        out = []
        k = len(self.vertices)
        for mask in range(1, 1 << k):
            out.append(Simplex(tuple(self.vertices[i] for i in range(k) if mask >> i & 1)))
        return out

    def is_face_of(self, other: "Simplex") -> bool:
        return self.vertex_set <= other.vertex_set

    def barycentre(self) -> RationalPoint:
        k = len(self.vertices)
        return tuple(sum(col, Fraction(0)) / k for col in zip(*self.vertices))

    def barycentric_coords(self, point: Sequence) -> Optional[Tuple[Fraction, ...]]:
        """Coefficients of the point over the vertices (summing to one), or
        None when the point is outside the affine span."""
        point = rational_point(point)
        matrix = [[v[r] for v in self.vertices] for r in range(self.ambient_dim)]
        matrix.append([Fraction(1)] * len(self.vertices))
        rhs = list(point) + [Fraction(1)]
        solution = solve_exact(matrix, rhs)
        return tuple(solution) if solution is not None else None

    def contains(self, point: Sequence) -> bool:
        coords = self.barycentric_coords(point)
        return coords is not None and all(c >= 0 for c in coords)

    def relint_contains(self, point: Sequence) -> bool:
        coords = self.barycentric_coords(point)
        return coords is not None and all(c > 0 for c in coords)


def barycentre(simplex: Simplex) -> RationalPoint:
    return simplex.barycentre()


def relint_contains(simplex: Simplex, point: Sequence) -> bool:
    return simplex.relint_contains(point)


def _facets(simplex: Simplex) -> List[FrozenSet[RationalPoint]]:
    """The vertex sets of the facets: drop one vertex. In a downward-closed
    family a proper face of a member is a facet of some member, so this one
    relation gives covers, closure and maximality."""
    whole = simplex.vertex_set
    return [whole - {v} for v in simplex.vertices] if simplex.dim > 0 else []


class RationalComplex:
    """A finite simplicial complex: downward-closed, with pairwise
    intersections that are common faces. Use validate_complex for foreign
    data; internal constructions are complexes by design and skip both
    checks."""

    def __init__(self, simplices: Iterable[Simplex], _trusted: bool = False):
        simplices = frozenset(simplices)
        if simplices:
            dims = {s.ambient_dim for s in simplices}
            if len(dims) != 1:
                raise ValueError("simplices must share an ambient space")
        self.simplices = simplices
        if not _trusted:
            _check_complex(self)

    @property
    def ambient_dim(self) -> int:
        return next(iter(self.simplices)).ambient_dim if self.simplices else 0

    @cached_property
    def sorted_simplices(self) -> Tuple[Simplex, ...]:
        return tuple(sorted(self.simplices, key=lambda s: (s.dim, s.vertices)))

    @cached_property
    def vertices(self) -> Tuple[RationalPoint, ...]:
        return tuple(sorted({v for s in self.simplices for v in s.vertices}))

    def maximal_simplices(self) -> List[Simplex]:
        covered = {facet for t in self.simplices for facet in _facets(t)}
        return [s for s in self.sorted_simplices if s.vertex_set not in covered]

    def __len__(self) -> int:
        return len(self.simplices)

    def __contains__(self, simplex: Simplex) -> bool:
        return simplex in self.simplices

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalComplex) and self.simplices == other.simplices

    def __hash__(self):
        return hash(self.simplices)

    def __repr__(self) -> str:
        return f"RationalComplex({len(self.simplices)} simplices in Q^{self.ambient_dim})"

    # -- serialisation: maximal simplices only, exact integer pairs -------------

    def to_json(self) -> str:
        verts = list(self.vertices)
        index = {v: i for i, v in enumerate(verts)}
        payload = {
            "dim": self.ambient_dim,
            "vertices": [[[c.numerator, c.denominator] for c in v] for v in verts],
            "simplices": [
                sorted(index[v] for v in s.vertices) for s in self.maximal_simplices()
            ],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RationalComplex":
        payload = json.loads(text)
        try:
            verts = [tuple(Fraction(num, den) for num, den in v) for v in payload["vertices"]]
            for v in verts:
                if len(v) != payload["dim"]:
                    raise ValueError("vertex dimension disagrees with the declared dim")
            if not all(0 <= i < len(verts) for ix in payload["simplices"] for i in ix):
                raise ValueError("a simplex names a vertex index out of range")
            tops = [Simplex(tuple(verts[i] for i in ix)) for ix in payload["simplices"]]
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed complex JSON: {exc!r}") from exc
        closed: Set[Simplex] = set()
        for s in tops:
            closed.update(s.faces())
        return validate_complex(closed)


def _bounding_boxes_apart(s: Simplex, t: Simplex) -> bool:
    for axis in range(s.ambient_dim):
        s_vals = [v[axis] for v in s.vertices]
        t_vals = [v[axis] for v in t.vertices]
        if max(s_vals) < min(t_vals) or max(t_vals) < min(s_vals):
            return True
    return False


def _intersection_is_common_face(s: Simplex, t: Simplex) -> bool:
    """Exact check that s ∩ t equals the face spanned by the shared vertices.

    Decided by LP: a common point is a pair of convex combinations agreeing
    coordinatewise; the intersection sticks out of the shared face iff some
    such pair puts positive weight on a non-shared vertex."""
    shared = s.vertex_set & t.vertex_set
    if _bounding_boxes_apart(s, t):
        return True
    if s.vertex_set <= t.vertex_set or t.vertex_set <= s.vertex_set:
        return True
    ns, nt = len(s.vertices), len(t.vertices)
    ambient = s.ambient_dim
    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []
    for axis in range(ambient):
        rows.append(
            [v[axis] for v in s.vertices] + [-w[axis] for w in t.vertices]
        )
        rhs.append(Fraction(0))
    rows.append([Fraction(1)] * ns + [Fraction(0)] * nt)
    rhs.append(Fraction(1))
    rows.append([Fraction(0)] * ns + [Fraction(1)] * nt)
    rhs.append(Fraction(1))
    objective = [Fraction(0) if v in shared else Fraction(1) for v in s.vertices] + [
        Fraction(0) if w in shared else Fraction(1) for w in t.vertices
    ]
    best = lp_maximize(rows, rhs, objective)
    if best is None:
        return True  # disjoint
    if not shared:
        return False  # they meet but share no vertex
    return best == 0


def _check_complex(complex_: RationalComplex) -> None:
    present = {s.vertex_set for s in complex_.simplices}
    for s in complex_.simplices:
        for facet in _facets(s):
            if facet not in present:
                raise NotDownwardClosed(
                    f"face {Simplex(tuple(facet)).label()} of {s.label()} is missing"
                )
    # Every facet present means downward closed, by induction on dimension.
    # Then maximal pairs suffice: faces S' of S and T' of T meet inside S ∩ T,
    # which is the common face on the shared vertices, and inside that face
    # S' and T' meet in the face on their own shared vertices.
    tops = complex_.maximal_simplices()
    for i, s in enumerate(tops):
        for t in tops[i + 1 :]:
            if not _intersection_is_common_face(s, t):
                raise BadIntersection(
                    f"{s.label()} and {t.label()} do not meet in a common face"
                )


def validate_complex(simplices: Iterable[Simplex]) -> RationalComplex:
    """Check both complex axioms exactly and wrap the simplices up."""
    return RationalComplex(simplices, _trusted=False)


# -- face poset and carriers ----------------------------------------------------


def face_poset(complex_: RationalComplex) -> FinitePoset:
    """The simplices under the face relation, labelled canonically."""
    sims = complex_.sorted_simplices
    position = {s.vertex_set: i for i, s in enumerate(sims)}
    covers: List[List[int]] = [[] for _ in sims]
    for j, t in enumerate(sims):
        for facet in _facets(t):
            covers[position[facet]].append(j)
    return poset_from_cover_dag([s.label() for s in sims], covers)


def carrier(complex_: RationalComplex, point: Sequence) -> Simplex:
    """The unique simplex whose relative interior holds the point."""
    point = rational_point(point)
    for s in complex_.sorted_simplices:
        if s.relint_contains(point):
            return s
    raise PointOutsideSupport(f"{point} lies outside the support")


def open_star(complex_: RationalComplex, simplex: Simplex) -> FrozenSet[Simplex]:
    """The simplices whose relative interiors make up the open star."""
    if simplex not in complex_.simplices:
        raise UnknownElement("open star is only defined for members of the complex")
    return frozenset(t for t in complex_.simplices if simplex.is_face_of(t))


# -- subdivisions ------------------------------------------------------------------


def elementary_stellar(complex_: RationalComplex, point: Sequence) -> RationalComplex:
    """Split every simplex containing the point by coning its unaffected
    faces to the point. Identity exactly when the point is a vertex."""
    point = rational_point(point)
    carrier(complex_, point)  # raises PointOutsideSupport when outside
    new_simplices: Set[Simplex] = set()
    for s in complex_.simplices:
        if not s.contains(point):
            new_simplices.add(s)
            continue
        for face in s.faces():
            if not face.contains(point):
                new_simplices.add(Simplex(face.vertices + (point,)))
    new_simplices.add(Simplex((point,)))
    return RationalComplex(new_simplices, _trusted=True)


def elementary_barycentric(complex_: RationalComplex, simplex: Simplex) -> RationalComplex:
    if simplex not in complex_.simplices:
        raise UnknownElement("can only subdivide at a barycentre of a member simplex")
    return elementary_stellar(complex_, simplex.barycentre())


def barycentric_subdivision(
    complex_: RationalComplex, budget: int = SIMPLEX_BUDGET
) -> RationalComplex:
    """The order complex of the face poset, placed at the barycentres: one
    simplex conv(b(σ₀), …, b(σₖ)) per flag σ₀ < … < σₖ of the complex (Wachs,
    "Poset topology", arXiv:math/0602226). Its size, the number of flags, is
    checked against the budget before anything is built."""
    faces = face_poset(complex_)
    if faces.count_chains() > budget:
        raise SizeBudgetExceeded(f"subdivision exceeded the budget of {budget} simplices")
    centres = [s.barycentre() for s in complex_.sorted_simplices]
    flags = faces.iter_chain_masks(budget=budget)
    return RationalComplex(
        (Simplex(tuple(centres[i] for i in _bits(mask))) for mask in flags), _trusted=True
    )


def derived(complex_: RationalComplex, k: int, budget: int = SIMPLEX_BUDGET) -> RationalComplex:
    if k < 0:
        raise ValueError("the subdivision depth must be nonnegative")
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
    point = rational_point(point)
    q = denominator(point)
    return tuple(int(c * q) for c in point) + (q,)


def is_unimodular(simplex: Simplex) -> bool:
    """Whether the homogeneous vertex vectors extend to a basis of the
    integer lattice: all elementary divisors must be 1."""
    columns = [homogeneous(v) for v in simplex.vertices]
    matrix = [[col[r] for col in columns] for r in range(len(columns[0]))]
    divisors = smith_divisors(matrix)
    return len(divisors) == len(columns) and all(d == 1 for d in divisors)


def is_unimodular_complex(complex_: RationalComplex) -> bool:
    return all(is_unimodular(s) for s in complex_.simplices)


def farey_mediant(simplex: Simplex) -> RationalPoint:
    """The rational point whose homogeneous correspondent is the sum of the
    vertices'; always interior to the simplex."""
    columns = [homogeneous(v) for v in simplex.vertices]
    total = [sum(col) for col in zip(*columns)]
    q = total[-1]
    point = tuple(Fraction(c, q) for c in total[:-1])
    if not simplex.relint_contains(point):
        raise RuntimeError("internal error: mediant left the relative interior")
    return point


def elementary_farey(complex_: RationalComplex, simplex: Simplex) -> RationalComplex:
    if simplex not in complex_.simplices:
        raise UnknownElement("can only take the mediant of a member simplex")
    return elementary_stellar(complex_, farey_mediant(simplex))


# -- refinement --------------------------------------------------------------------


def _chart_volume(simplex: Simplex, piece: Simplex) -> Fraction:
    """Volume of a full-dimensional sub-simplex in the barycentric chart of
    its host, normalised so the host has volume 1."""
    coords = [simplex.barycentric_coords(v) for v in piece.vertices]
    base = coords[0]
    mat = [
        [coords[i + 1][r] - base[r] for i in range(len(coords) - 1)]
        for r in range(1, len(base))
    ]
    return abs(determinant(mat))


def is_refinement(finer: RationalComplex, coarser: RationalComplex) -> bool:
    """Whether ``finer`` subdivides ``coarser``: same support, every fine
    simplex inside some coarse one. The support equality is checked per
    coarse simplex by exact volume bookkeeping of the pieces it contains
    (their interiors are disjoint, so covering is a volume identity)."""
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
        # the barycentre must have a carrier on the fine side
        try:
            carrier(finer, host.barycentre())
        except PointOutsideSupport:
            return False
    return True


# -- realizations -------------------------------------------------------------------


def geometric_realization(poset: FinitePoset, budget: int = SIMPLEX_BUDGET) -> RationalComplex:
    """The standard-basis complex whose simplices are spanned by the chains
    of the poset. Chain k spans simplex k; that map is certified to be an
    isomorphism from the nerve onto the face poset before returning."""
    n = poset.n
    nrv = nerve(poset, budget=budget)
    basis = [
        tuple(Fraction(1) if k == i else Fraction(0) for k in range(n)) for i in range(n)
    ]
    simplices = [Simplex(tuple(basis[i] for i in _bits(mask))) for mask in nrv.chain_masks]
    complex_ = RationalComplex(simplices, _trusted=True)
    faces = face_poset(complex_)
    position = {s: i for i, s in enumerate(complex_.sorted_simplices)}
    image = [position[s] for s in simplices]
    if faces.n != nrv.n or any(
        sum(1 << image[j] for j in _bits(nrv.up_mask(k))) != faces.up_mask(image[k])
        for k in range(nrv.n)
    ):
        raise RuntimeError("internal error: realization disagrees with the nerve")
    return complex_


# -- upsets as open sets ---------------------------------------------------------------


@dataclass(frozen=True)
class OpenPolyhedralSet:
    """An open set of the support presented symbolically: the union of the
    relative interiors of an up-closed family of simplices. The Heyting
    operations are those of the upset algebra of the face poset."""

    complex: RationalComplex
    members: FrozenSet[Simplex]

    def contains(self, point: Sequence) -> bool:
        return carrier(self.complex, point) in self.members

    def __and__(self, other: "OpenPolyhedralSet") -> "OpenPolyhedralSet":
        return OpenPolyhedralSet(self.complex, self.members & other.members)

    def __or__(self, other: "OpenPolyhedralSet") -> "OpenPolyhedralSet":
        return OpenPolyhedralSet(self.complex, self.members | other.members)

    def implies(self, other: "OpenPolyhedralSet") -> "OpenPolyhedralSet":
        inside = {
            s
            for s in self.complex.simplices
            if all(
                t in other.members
                for t in self.complex.simplices
                if s.is_face_of(t) and t in self.members
            )
        }
        return OpenPolyhedralSet(self.complex, frozenset(inside))


def upset_to_open(complex_: RationalComplex, upset: Iterable[Simplex]) -> OpenPolyhedralSet:
    """Read an up-closed family of simplices as the open set made of their
    relative interiors."""
    members = frozenset(upset)
    for s in members:
        if s not in complex_.simplices:
            raise UnknownElement(f"{s.label()} is not in the complex")
        for t in complex_.simplices:
            if s.is_face_of(t) and t not in members:
                raise NotUpwardClosed(
                    f"{s.label()} is included but its coface {t.label()} is not"
                )
    return OpenPolyhedralSet(complex_, members)
