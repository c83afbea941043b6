import hashlib
import json
import operator
import pickle
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction as Fr

import pytest

import polynerve as pn
from polynerve import RationalComplex, Simplex, validate_poset
from polynerve.errors import (
    AffineDependence,
    BadIntersection,
    DimensionMismatch,
    MalformedInput,
    NotDownwardClosed,
    NotUpwardClosed,
    PointOutsideSupport,
    PolynerveError,
    SizeBudgetExceeded,
)
from polynerve import exactla, geometry
from polynerve.exactla import lp_maximize, smith_divisors
from polynerve.formulas import And, Const, Imp, Or, Var
from polynerve.semantics import UpsetAlgebra

import conftest
from conftest import (
    all_pairs_check_complex,
    brute_chains,
    former_face_poset,
    former_from_json,
    former_homogeneous,
    former_is_refinement,
    former_maximal,
    former_sorted_simplices,
    former_to_json,
    fraction_lp_maximize,
    lp_intersection_is_common_face,
    naive_evaluate,
    pairwise_open_implies,
    per_face_stellar,
    sample_posets,
    scan_carrier,
    scan_open_star,
    stellar_subdivision,
    volume_refinement_oracle,
)


def pt(*coords):
    return tuple(Fr(c) for c in coords)


def full_complex(*vertices):
    return pn.validate_complex(Simplex(tuple(vertices)).faces())


@pytest.fixture
def triangle():
    return full_complex(pt(0, 0), pt(1, 0), pt(0, 1))


@pytest.fixture
def segment():
    return full_complex(pt(0), pt(1))


@pytest.fixture
def tetrahedron():
    return full_complex(pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1))


def two_triangles():
    t1 = Simplex((pt(0, 0), pt(1, 0), pt(0, 1)))
    t2 = Simplex((pt(1, 0), pt(0, 1), pt(1, 1)))
    return set(t1.faces()) | set(t2.faces())


# -- validation ---------------------------------------------------------------------


def test_triangle_has_seven_faces(triangle):
    assert len(triangle) == 7


def test_affine_dependence_rejected():
    with pytest.raises(AffineDependence):
        Simplex((pt(0, 0), pt(1, 1), pt(2, 2)))
    with pytest.raises(AffineDependence):
        Simplex((pt(0), pt(0)))
    with pytest.raises(AffineDependence, match=r"dependent: <0,0;1/2,1/2;2,2>$"):
        Simplex((pt(2, 2), pt(0, 0), pt(Fr(1, 2), Fr(1, 2))))


def test_constructor_errors_are_polynerve_value_errors():
    # the library's own error types, still ValueErrors for older callers
    with pytest.raises(MalformedInput) as empty:
        Simplex(())
    with pytest.raises(DimensionMismatch) as mixed:
        Simplex(((0,), (0, 1)))
    with pytest.raises(DimensionMismatch) as spaces:
        RationalComplex([Simplex((pt(0),)), Simplex((pt(0, 0),))])
    for caught in (empty, mixed, spaces):
        assert isinstance(caught.value, PolynerveError) and isinstance(caught.value, ValueError)


# coordinates Fraction refuses, each with the error it raises there, and a
# point that is no sequence
NOT_COORDINATES = ["a", None, float("nan"), float("inf"), "1/0", [1], 1j]
NOT_POINTS = [(c, Fr(0)) for c in NOT_COORDINATES] + [5]
POINT_ENTRY_POINTS = {
    "Simplex": lambda p: Simplex((p, pt(1, 0), pt(0, 1))),
    "carrier": lambda p: pn.carrier(full_complex(pt(0, 0), pt(1, 0), pt(0, 1)), p),
    "elementary_stellar": lambda p: pn.elementary_stellar(full_complex(pt(0, 0), pt(1, 0), pt(0, 1)), p),
    "contains": lambda p: Simplex((pt(0, 0), pt(1, 0), pt(0, 1))).contains(p),
    "relint_contains": lambda p: pn.relint_contains(Simplex((pt(0, 0), pt(1, 0), pt(0, 1))), p),
    "barycentric_coords": lambda p: Simplex((pt(0, 0), pt(1, 0), pt(0, 1))).barycentric_coords(p),
    "denominator": pn.denominator,
    "homogeneous": pn.homogeneous,
}


@pytest.mark.parametrize("entry", sorted(POINT_ENTRY_POINTS))
def test_points_that_are_not_rational_are_refused(entry):
    # MalformedInput, still a ValueError, where Fraction's own ValueError,
    # TypeError, OverflowError or ZeroDivisionError escaped; what Fraction
    # reads is still read
    call = POINT_ENTRY_POINTS[entry]
    for point in NOT_POINTS:
        with pytest.raises(MalformedInput) as caught:
            call(point)
        assert isinstance(caught.value, ValueError)
    call(("1/4", Decimal("0.25")))
    call((0.25, Fr(1, 4)))


def test_missing_face_rejected():
    tri = Simplex((pt(0, 0), pt(1, 0), pt(0, 1)))
    broken = [s for s in tri.faces() if s.dim != 1]
    with pytest.raises(NotDownwardClosed):
        pn.validate_complex(broken)


def test_bad_intersection_rejected():
    triangle = Simplex((pt(0, 0), pt(3, 0), pt(0, 3)))
    pairs = [
        # two segments crossing in their interiors
        (Simplex((pt(0, 0), pt(2, 2))), Simplex((pt(0, 2), pt(2, 0)))),
        # two triangles overlapping along half an edge
        (Simplex((pt(0, 0), pt(2, 0), pt(0, 2))), Simplex((pt(1, 0), pt(3, 0), pt(2, -2)))),
        # a lone vertex inside a triangle
        (triangle, Simplex((pt(1, 1),))),
        # an edge entering a triangle without sharing a vertex with it
        (triangle, Simplex((pt(1, 1), pt(5, 5)))),
    ]
    for a, b in pairs:
        sims = set(a.faces()) | set(b.faces())
        with pytest.raises(BadIntersection):
            pn.validate_complex(sims)
        with pytest.raises(BadIntersection):
            all_pairs_check_complex(frozenset(sims))


def test_shared_edge_is_fine():
    complex_ = pn.validate_complex(two_triangles())
    assert len(complex_) == 11  # 4 vertices + 5 edges + 2 triangles


def _check_outcome(check, simplices):
    try:
        check(simplices)
    except (NotDownwardClosed, BadIntersection) as exc:
        return type(exc)
    return None


def test_validation_matches_all_pairs_oracle():
    # random families of up to three simplices of dims 0-2 on a 4x4 grid,
    # with their faces, and one member dropped from every fifth or so
    rng = random.Random(131)
    seen = Counter()
    for _ in range(200):
        family = set()
        for _ in range(rng.randint(1, 3)):
            dim = rng.randint(0, 2)
            try:
                simplex = Simplex(
                    tuple(pt(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(dim + 1))
                )
            except AffineDependence:
                continue
            family.update(simplex.faces())
        if not family:
            continue
        if rng.random() < 0.2:
            family.discard(rng.choice(sorted(family, key=lambda s: (s.dim, s.vertices))))
        outcome = _check_outcome(pn.validate_complex, family)
        assert outcome == _check_outcome(all_pairs_check_complex, frozenset(family))
        seen[outcome] += 1
    assert seen[None] and seen[BadIntersection] and seen[NotDownwardClosed]


def _table_payload(rng):
    """(kind, complex JSON): a seeded vertex table in Q^1-Q^3, coordinates in
    {-3, ..., 3} / {1, 2, 3}, and 1-4 listed simplices on it, of which most
    pairs overlap. The kind says what was done to it: nothing; every face
    listed too, shuffled; an index repeated within a simplex; a table row
    repeated, scaled, and used next to or in place of the original; a
    dependent set listed first and again with one more point, last; or one
    vertex given a coordinate too many."""
    ambient = rng.randint(1, 3)
    table = [
        [[rng.randint(-3, 3), rng.randint(1, 3)] for _ in range(ambient)] for _ in range(rng.randint(ambient + 2, ambient + 4))
    ]
    listed = [rng.sample(range(len(table)), rng.randint(1, ambient + 1)) for _ in range(rng.randint(1, 4))]
    kind = rng.choice(("drawn", "faces", "repeat", "duplicate", "dependent", "dims"))
    if kind == "faces":
        listed = [[i for k, i in enumerate(ix) if mask >> k & 1] for ix in listed for mask in range(1, 1 << len(ix))]
        rng.shuffle(listed)
    elif kind == "repeat":
        ix = rng.choice(listed)
        ix.insert(rng.randrange(len(ix) + 1), rng.choice(ix))
    elif kind == "duplicate":
        ix = rng.choice(listed)
        k = rng.randrange(len(ix))
        table.append([[2 * num, 2 * den] for num, den in table[ix[k]]])
        if rng.random() < 0.5:
            ix[k] = len(table) - 1
        else:
            ix.append(len(table) - 1)
    elif kind == "dependent":
        a, b, c = rng.sample(range(len(table)), 3)
        middle = [Fr(x, p) + Fr(y, q) for (x, p), (y, q) in zip(table[a], table[b])]
        table.append([[m.numerator, 2 * m.denominator] for m in middle])
        listed = [[a, len(table) - 1, b]] + listed + [[c, a, b, len(table) - 1]]
    elif kind == "dims":
        table[rng.randrange(len(table))].append([1, 1])
    return kind, json.dumps({"dim": ambient, "vertices": table, "simplices": listed})


def _read_outcome(read, text):
    try:
        return read(text)
    except PolynerveError as exc:
        return type(exc), str(exc)


def test_from_json_matches_the_former_path():
    # the vertex table read once against a Simplex per listed simplex and
    # validate_complex: the same complex, or the same first error, class and
    # message, with the same bytes back out
    rng = random.Random(181)
    seen = Counter()
    for _ in range(600):
        kind, text = _table_payload(rng)
        outcome = _read_outcome(RationalComplex.from_json, text)
        assert outcome == _read_outcome(former_from_json, text), text
        if isinstance(outcome, RationalComplex):
            assert outcome.to_json() == former_from_json(text).to_json()
            assert outcome.sorted_simplices == former_from_json(text).sorted_simplices
        seen[kind, outcome[0] if isinstance(outcome, tuple) else None] += 1
    assert all(seen[kind, AffineDependence] > 5 for kind in ("repeat", "dependent"))
    assert seen["dims", MalformedInput] > 50
    assert all(seen[kind, None] > 5 and seen[kind, BadIntersection] > 5 for kind in ("drawn", "faces", "duplicate"))


def test_face_poset_and_maximal_simplices_follow_the_face_relation(triangle, tetrahedron):
    for complex_ in (pn.barycentric_subdivision(triangle), tetrahedron):
        fp = pn.face_poset(complex_)
        for a in complex_.simplices:
            for b in complex_.simplices:
                assert fp.leq(a.label(), b.label()) == a.is_face_of(b)
        assert complex_.maximal_simplices() == [
            s
            for s in complex_.sorted_simplices
            if not any(s != t and s.is_face_of(t) for t in complex_.simplices)
        ]


def test_simplex_caches_keep_value_semantics(triangle):
    vertices = (pt(1, 0), pt(0, 0), pt(0, 1))
    checked, trusted = Simplex(vertices), Simplex._sorted(tuple(sorted(vertices)))
    assert checked == trusted and hash(checked) == hash(trusted)
    assert checked.vertex_set == trusted.vertex_set == frozenset(vertices)
    assert trusted in {checked} and checked in {trusted}
    assert {checked: "found"}[trusted] == "found" == {trusted: "found"}[checked]
    assert len({checked, trusted, Simplex(vertices[::-1])}) == 1
    tops = triangle.maximal_simplices()
    expected = list(tops)
    tops.append(Simplex((pt(7, 7),)))
    tops.pop(0)
    assert triangle.maximal_simplices() == expected


# -- carriers and stars ------------------------------------------------------------------


def test_carrier_examples(segment, triangle):
    edge = pn.carrier(segment, (Fr(1, 2),))
    assert edge.dim == 1
    vertex = pn.carrier(segment, (Fr(0),))
    assert vertex.dim == 0
    face = pn.carrier(triangle, (Fr(1, 3), Fr(1, 3)))
    assert face.dim == 2
    assert face.barycentric_coords((Fr(1, 3), Fr(1, 3))) == (
        Fr(1, 3),
        Fr(1, 3),
        Fr(1, 3),
    )
    with pytest.raises(PointOutsideSupport):
        pn.carrier(triangle, (Fr(2), Fr(2)))


def test_points_of_another_dimension_are_refused(triangle):
    tri = next(s for s in triangle.simplices if s.dim == 2)
    with pytest.raises(DimensionMismatch):
        tri.contains(pt(0, 0, 5))
    with pytest.raises(DimensionMismatch):
        pn.carrier(triangle, pt(0, 0, 5))
    with pytest.raises(DimensionMismatch):
        pn.upset_to_open(triangle, [tri]).contains((Fr(1, 4), Fr(1, 4), Fr(7)))
    with pytest.raises(DimensionMismatch):
        pn.carrier(triangle, pt(2))
    with pytest.raises(DimensionMismatch):
        pn.elementary_stellar(triangle, pt(2))


def test_relint_and_open_star(triangle):
    tri = next(s for s in triangle.simplices if s.dim == 2)
    assert pn.relint_contains(tri, (Fr(1, 3), Fr(1, 3)))
    assert not pn.relint_contains(tri, (Fr(0), Fr(0)))
    vertex = Simplex((pt(0, 0),))
    star = pn.open_star(triangle, vertex)
    assert len(star) == 4  # the vertex, two edges, the face


def _moved_complex(rng, moves):
    """A random simplex of dimension 0-3 in Q^1-Q^3, with its faces, through
    up to the given number of barycentric, Farey or stellar moves."""
    ambient = rng.randint(1, 3)
    complex_ = pn.validate_complex(_random_simplex(rng, rng.randint(0, ambient), ambient).faces())
    for _ in range(rng.randint(0, moves)):
        move = rng.choice(("barycentric", "farey", "stellar"))
        complex_ = pn.elementary_stellar(
            complex_, _point_of(rng, rng.choice(complex_.sorted_simplices), move)
        )
    return complex_


def test_carrier_and_open_star_match_scan_oracles():
    # inside: every vertex and edge midpoint, and the barycentre, Farey
    # mediant and a random convex combination of sampled simplices; outside:
    # random points, and a vertex of a maximal simplex pushed away from its
    # barycentre, which stays in the affine hull
    rng = random.Random(151)
    seen = Counter()
    for _ in range(40):
        complex_ = _moved_complex(rng, 2)
        ambient = complex_.ambient_dim
        points = [s.barycentre() for s in complex_.sorted_simplices if s.dim <= 1]
        for s in rng.sample(complex_.sorted_simplices, min(10, len(complex_))):
            points += [s.barycentre(), pn.farey_mediant(s), _point_of(rng, s, "stellar")]
        for point in points:
            found = pn.carrier(complex_, point)
            assert found == scan_carrier(complex_, point)
            assert pn.open_star(complex_, found) == scan_open_star(complex_, found)
            seen["inside"] += 1
        outside = [
            tuple(Fr(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(ambient))
            for _ in range(6)
        ]
        outside += [
            tuple(2 * a - b for a, b in zip(top.vertices[0], top.barycentre()))
            for top in complex_.maximal_simplices()[:3]
        ]
        for point in outside:
            try:
                expected = scan_carrier(complex_, point)
            except PointOutsideSupport as old:
                with pytest.raises(PointOutsideSupport) as new:
                    pn.carrier(complex_, point)
                assert str(new.value) == str(old)
                seen["outside"] += 1
            else:
                assert pn.carrier(complex_, point) == expected
        for wrong in (ambient - 1, ambient + 1):
            point = pt(*[Fr(1, 3)] * wrong)
            with pytest.raises(DimensionMismatch):
                pn.carrier(complex_, point)
            with pytest.raises(DimensionMismatch):
                scan_carrier(complex_, point)
    assert seen["outside"] > 200 and seen["inside"] > 600


# -- subdivisions -----------------------------------------------------------------------------


def test_stellar_at_edge_midpoint(triangle):
    divided = pn.elementary_stellar(triangle, (Fr(1, 2), Fr(0)))
    # split edge, apex joined: 4 vertices, 5 edges, 2 faces
    assert len([s for s in divided.simplices if s.dim == 0]) == 4
    assert len([s for s in divided.simplices if s.dim == 1]) == 5
    assert len([s for s in divided.simplices if s.dim == 2]) == 2
    pn.validate_complex(divided.simplices)


def test_stellar_at_vertex_is_identity(triangle):
    assert pn.elementary_stellar(triangle, (Fr(0), Fr(0))) == triangle


def test_stellar_outside_support(triangle, tetrahedron):
    cases = (
        (triangle, pt(5, 5), "5,5"),
        (tetrahedron, pt(1, 1, -1), "1,1,-1"),
        (tetrahedron, pt(1, Fr(1, 2), -1), "1,1/2,-1"),
    )
    for complex_, point, shown in cases:
        with pytest.raises(PointOutsideSupport) as new:
            pn.elementary_stellar(complex_, point)
        assert str(new.value) == f"{shown} lies outside the support"
        # the message is the one the former per-face algorithm gave
        with pytest.raises(PointOutsideSupport) as old:
            per_face_stellar(complex_, point)
        assert str(new.value) == str(old.value)


def test_segment_subdivision(segment):
    divided = pn.barycentric_subdivision(segment)
    assert len([s for s in divided.simplices if s.dim == 0]) == 3
    assert len([s for s in divided.simplices if s.dim == 1]) == 2
    pn.validate_complex(divided.simplices)


def test_triangle_subdivision_counts(triangle):
    sd = pn.barycentric_subdivision(triangle)
    by_dim = {d: len([s for s in sd.simplices if s.dim == d]) for d in range(3)}
    assert by_dim == {0: 7, 1: 12, 2: 6}
    assert len(sd) == 25
    pn.validate_complex(sd.simplices)


def test_derived_zero_is_identity(triangle):
    assert pn.derived(triangle, 0) == triangle


def test_tetrahedron_subdivision_count_matches_chain_oracle(tetrahedron):
    face_count = len(pn.barycentric_subdivision(tetrahedron))
    fp = pn.face_poset(tetrahedron)
    assert face_count == len(brute_chains(fp)) == fp.count_chains()


def test_subdivision_matches_stellar_oracle(segment, triangle, tetrahedron):
    shapes = [
        segment,
        triangle,
        tetrahedron,
        pn.validate_complex(two_triangles()),
        pn.derived(triangle, 2),
    ]
    for complex_ in shapes:
        flags = pn.barycentric_subdivision(complex_)
        assert flags.simplices == stellar_subdivision(complex_).simplices


def test_subdivision_budget(tetrahedron):
    # sd of the tetrahedron has one simplex per flag of its 15 faces: 149
    with pytest.raises(SizeBudgetExceeded):
        pn.barycentric_subdivision(tetrahedron, budget=148)
    assert len(pn.barycentric_subdivision(tetrahedron, budget=149)) == 149


def test_sd_face_poset_is_nerve_of_face_poset():
    shapes = [
        full_complex(pt(0), pt(1)),
        full_complex(pt(0, 0), pt(1, 0), pt(0, 1)),
        full_complex(pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)),
    ]
    for complex_ in shapes:
        sd = pn.barycentric_subdivision(complex_)
        fp = pn.face_poset(complex_)
        assert pn.are_isomorphic(pn.face_poset(sd), pn.nerve(fp)) is not None


# -- denominators, mediants, unimodularity -----------------------------------------------------


def test_denominator_and_homogeneous():
    assert pn.denominator((Fr(2, 3), Fr(1, 2))) == 6
    assert pn.homogeneous((Fr(2, 3), Fr(1, 2))) == (4, 3, 6)
    assert pn.denominator((Fr(3), Fr(7))) == 1
    assert pn.homogeneous((Fr(0),)) == (0, 1)


def test_farey_mediant_examples(triangle):
    seg = Simplex((pt(0), pt(1)))
    assert pn.farey_mediant(seg) == (Fr(1, 2),)
    vertex = Simplex((pt(3, 4),))
    assert pn.farey_mediant(vertex) == (Fr(3), Fr(4))
    tri = next(s for s in triangle.simplices if s.dim == 2)
    assert pn.farey_mediant(tri) == (Fr(1, 3), Fr(1, 3))
    assert pn.denominator(pn.farey_mediant(tri)) == 3


def test_unimodularity():
    assert pn.is_unimodular(Simplex((pt(0), pt(1))))
    assert not pn.is_unimodular(Simplex((pt(0), pt(2))))
    # standard-basis simplices are unimodular by definition
    e = [pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)]
    assert pn.is_unimodular(Simplex(tuple(e)))
    assert pn.is_unimodular(Simplex((e[0], e[1])))


def test_unimodularity_is_read_off_maximal_simplices(triangle, tetrahedron):
    # random rational simplices with their faces (mostly not unimodular),
    # Farey complexes (unimodular by construction), their barycentric
    # subdivisions and their unions with a far simplex, against the
    # all-simplices reading
    rng = random.Random(157)
    complexes = []
    for _ in range(40):
        ambient = rng.randint(1, 3)
        complexes.append(pn.validate_complex(_random_simplex(rng, ambient, ambient).faces()))
    complexes += [_moved_complex(rng, 3) for _ in range(20)]
    for base in (triangle, tetrahedron):
        for _ in range(6):
            complex_ = base
            for _ in range(rng.randint(1, 4)):
                complex_ = pn.elementary_farey(complex_, rng.choice(complex_.sorted_simplices))
            complexes += [complex_, pn.barycentric_subdivision(complex_)]
            # a far simplex, placed first or last in sorted order, mixes in
            # one top that may not be unimodular
            far = _random_simplex(rng, base.ambient_dim, base.ambient_dim)
            for shift in (-10, 10):
                moved = Simplex(tuple(tuple(c + shift for c in v) for v in far.vertices))
                complexes.append(pn.validate_complex(complex_.simplices | set(moved.faces())))
    seen = Counter()
    for complex_ in complexes:
        answer = pn.is_unimodular_complex(complex_)
        assert answer == all(pn.is_unimodular(s) for s in complex_.simplices)
        seen[answer] += 1
    assert seen[True] > 15 and seen[False] > 40


def test_smith_divisors_basics():
    assert smith_divisors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_divisors([[2, 0], [0, 3]]) == [1, 6]
    assert smith_divisors([[2, 4], [4, 8]]) == [2]


def _random_system(rng):
    """A seeded system of 1-6 rows and columns over ints and Fractions of
    both signs, so that pivots negate. In half of them one row is a copy or
    multiple of another (rank deficient), its right-hand side sometimes
    moved off the copy (inconsistent)."""
    def entry():
        value = rng.randint(-5, 5)
        return value if rng.random() < 0.5 else Fr(value, rng.randint(1, 4))

    cols = rng.randint(1, 6)
    rows = [[entry() for _ in range(cols)] for _ in range(rng.randint(1, 6))]
    rhs = [entry() for _ in rows]
    if rng.random() < 0.5:
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        factor = rng.choice((1, -1, 2, Fr(-2, 3)))
        rows[j] = [factor * v for v in rows[i]]
        rhs[j] = factor * rhs[i] + rng.choice((0, 0, 1))
    return rows, rhs


def test_elimination_matches_fraction_oracles(monkeypatch):
    negating = []
    pivot = exactla._pivot

    def counting(tableau, row, col, denominator):
        negating.append(tableau[row][col] < 0)
        return pivot(tableau, row, col, denominator)

    monkeypatch.setattr(exactla, "_pivot", counting)
    rng = random.Random(163)
    seen = Counter()
    for _ in range(3000):
        rows, rhs = _random_system(rng)
        solution = conftest.solve_exact(rows, rhs)
        assert solution == conftest.fraction_solve_exact(rows, rhs)
        assert exactla.rank_exact(rows) == conftest.fraction_rank_exact(rows)
        square = [(row * len(rows))[: len(rows)] for row in rows]  # columns cycled
        det = conftest.determinant(square)
        assert det == conftest.fraction_determinant(square)
        assert all(type(v) is Fr for v in [det] + (solution or []))
        seen["inconsistent" if solution is None else "solved"] += 1
        seen["negative" if det < 0 else "singular" if det == 0 else "positive"] += 1
    assert min(seen.values()) > 300 and sum(negating) > 1000
    for point in [(), (0,), (Fr(-2, 3), Fr(1, 2)), (Fr(5, 4), 3, Fr(-7, 6))]:
        q = pn.denominator(point)  # the former definition of homogeneous
        assert pn.homogeneous(point) == tuple(int(Fr(c) * q) for c in point) + (q,)


def _random_lp(rng):
    """A seeded LP over Q with fractional entries, right-hand sides of both
    signs and a fractional objective, bounded by a row of positive weights.
    Some get a rescaled copy of a row, redundant, so an artificial stays
    basic at level zero; some get that bounding row with a negative total,
    and so are infeasible."""
    def entry():
        return Fr(rng.randint(-6, 6), rng.randint(1, 4))

    cols = rng.randint(1, 5)
    a_eq = [[entry() for _ in range(cols)] for _ in range(rng.randint(0, 3))]
    b_eq = [entry() for _ in a_eq]
    a_eq.append([Fr(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(cols)])
    b_eq.append(Fr(rng.randint(0, 5), rng.randint(1, 3)))
    kind = rng.random()
    if kind < 0.3:
        i = rng.randrange(len(a_eq))
        factor = Fr(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))
        a_eq.insert(0, [factor * v for v in a_eq[i]])
        b_eq.insert(0, factor * b_eq[i])
    elif kind < 0.4:
        b_eq[-1] = -1 - b_eq[-1]
    return a_eq, b_eq, [entry() for _ in range(cols)]


def _recording(pivots, pivot):
    def wrapped(tableau, row, col, *denominator):
        pivots.append((row, col))
        return pivot(tableau, row, col, *denominator)

    return wrapped


def test_lp_matches_fraction_oracle(monkeypatch):
    # equal answers, and the integer tableau pivots where the Fraction one does
    new_pivots, old_pivots = [], []
    monkeypatch.setattr(exactla, "_pivot", _recording(new_pivots, exactla._pivot))
    monkeypatch.setattr(conftest, "_fraction_pivot", _recording(old_pivots, conftest._fraction_pivot))
    rng = random.Random(139)
    seen = Counter()
    for _ in range(1500):
        a_eq, b_eq, objective = _random_lp(rng)
        answer = lp_maximize(a_eq, b_eq, objective)
        assert answer == fraction_lp_maximize(a_eq, b_eq, objective)
        assert new_pivots == old_pivots
        new_pivots.clear()
        old_pivots.clear()
        seen["infeasible" if answer is None else "feasible"] += 1
    assert seen["feasible"] > 200 and seen["infeasible"] > 200
    # an artificial that phase 1 leaves basic at level zero, on a redundant
    # row and on one whose drive-out pivot is negative
    assert lp_maximize([[1, 1], [2, 2]], [1, 2], [1, 0]) == 1
    assert lp_maximize([[0, -2], [1, 1]], [0, 1], [1, 0]) == 1
    assert lp_maximize([[1, 1], [1, 1]], [1, 2], [1, 0]) is None


def _stellar_chain(rng, complex_, moves):
    chain = [complex_]
    for _ in range(moves):
        move = rng.choice(("farey", "stellar"))
        point = _point_of(rng, rng.choice(chain[-1].sorted_simplices), move)
        chain.append(pn.elementary_stellar(chain[-1], point))
    return chain


def test_intersection_test_matches_fraction_lp(monkeypatch, triangle, tetrahedron):
    # maximal simplices within one complex of a seeded Farey/stellar chain
    # meet properly; across two chains on the same base they often do not
    rng = random.Random(149)
    pairs = []
    for base, moves in ((triangle, 8),) * 3 + ((tetrahedron, 4),) * 2:
        first, second = _stellar_chain(rng, base, moves), _stellar_chain(rng, base, moves)
        for complex_ in first + second:
            tops = complex_.maximal_simplices()
            pairs += [(s, t) for i, s in enumerate(tops) for t in tops[i + 1 :]]
        pairs += [
            (s, t) for s in first[-1].maximal_simplices() for t in second[-1].maximal_simplices()
        ]
    answers = [geometry._intersection_is_common_face(s, t) for s, t in pairs]
    monkeypatch.setattr(geometry, "lp_maximize", fraction_lp_maximize)
    assert answers == [geometry._intersection_is_common_face(s, t) for s, t in pairs]
    assert answers.count(True) > 800 and answers.count(False) > 100


def _simplex_pair(rng):
    """(kind, s, t): two simplices in Q^1-Q^3 with coordinates in
    {-2, ..., 2} / {1, 2}, t made of vertices of s and fresh points. Both are
    full-dimensional and share a facet of s, one vertex or none; or one of
    them is of lower dimension and they share any number of vertices."""
    ambient = rng.randint(1, 3)
    kind = rng.choice(("facet", "vertex", "apart", "lower"))

    def point():
        return tuple(Fr(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(ambient))

    while True:
        dims = [ambient, ambient] if kind != "lower" else [rng.randint(0, ambient - 1), rng.randint(0, ambient)]
        rng.shuffle(dims)
        k = {"facet": ambient, "vertex": 1, "apart": 0}.get(kind, rng.randint(0, min(dims)))
        try:
            s = Simplex(tuple(point() for _ in range(dims[0] + 1)))
            t = Simplex(tuple(rng.sample(s.vertices, k)) + tuple(point() for _ in range(dims[1] + 1 - k)))
        except AffineDependence:
            continue
        return kind, s, t


def test_common_face_certificates_match_lp_oracle():
    rng = random.Random(173)
    seen = Counter()
    for _ in range(2000):
        kind, s, t = _simplex_pair(rng)
        answer = geometry._intersection_is_common_face(s, t)
        assert answer == geometry._intersection_is_common_face(t, s) == lp_intersection_is_common_face(s, t)
        seen[kind, answer] += 1
    assert min(seen[kind, answer] for kind in ("facet", "vertex", "apart", "lower") for answer in (True, False)) > 30


def test_subdivisions_and_farey_complexes_validate_without_lp(monkeypatch, triangle, tetrahedron):
    def refuse(*args):
        raise AssertionError("lp_maximize was called")

    rng = random.Random(179)
    farey = triangle
    for _ in range(5):
        farey = pn.elementary_farey(farey, rng.choice(sorted(farey.simplices, key=lambda s: s.label())))
    complexes = [pn.barycentric_subdivision(tetrahedron), farey, pn.derived(triangle, 2)]
    monkeypatch.setattr(geometry, "lp_maximize", refuse)
    for complex_ in complexes:
        assert RationalComplex.from_json(complex_.to_json()) == complex_


def test_farey_preserves_unimodularity(triangle):
    rng = random.Random(107)
    for _ in range(8):
        complex_ = triangle
        for _ in range(4):
            candidates = sorted(complex_.simplices, key=lambda s: s.label())
            simplex = rng.choice(candidates)
            complex_ = pn.elementary_farey(complex_, simplex)
        assert pn.is_unimodular_complex(complex_)
        pn.validate_complex(complex_.simplices)


def test_farey_isomorphic_to_barycentric(triangle):
    tri = next(s for s in triangle.simplices if s.dim == 2)
    farey = pn.elementary_farey(triangle, tri)
    bary = pn.elementary_barycentric(triangle, tri)
    assert (
        pn.are_isomorphic(pn.face_poset(farey), pn.face_poset(bary)) is not None
    )


# -- refinement ------------------------------------------------------------------------------------


def test_refinement(triangle, segment):
    sd = pn.barycentric_subdivision(triangle)
    assert pn.is_refinement(sd, triangle)
    assert not pn.is_refinement(triangle, sd)
    tri = next(s for s in triangle.simplices if s.dim == 2)
    assert pn.is_refinement(pn.elementary_farey(triangle, tri), triangle)
    assert pn.is_refinement(pn.derived(segment, 3), segment)
    assert pn.is_refinement(pn.derived(triangle, 3), triangle)
    # a plainly different support
    other = full_complex(pt(5, 5), pt(6, 5))
    assert not pn.is_refinement(other, triangle)


def test_refinement_with_an_empty_side(triangle):
    # the empty complex and the point of R^0 share ambient dimension 0
    empty, origin = pn.validate_complex([]), pn.validate_complex([pn.Simplex([()])])
    for finer, coarser, answer in [
        (empty, empty, True),
        (origin, origin, True),
        (empty, origin, False),
        (origin, empty, False),
        (empty, triangle, False),
        (triangle, empty, False),
    ]:
        assert pn.is_refinement(finer, coarser) is answer
        assert volume_refinement_oracle(finer, coarser) is answer


def _random_simplex(rng, dim, ambient):
    while True:
        vertices = tuple(
            tuple(Fr(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ambient))
            for _ in range(dim + 1)
        )
        try:
            return Simplex(vertices)
        except AffineDependence:
            continue


def _point_of(rng, simplex, move):
    if move == "barycentric":
        return simplex.barycentre()
    if move == "farey":
        return pn.farey_mediant(simplex)
    weights = [rng.randint(0, 3) for _ in simplex.vertices]
    weights[rng.randrange(len(weights))] += 1
    total = sum(weights)
    return tuple(
        sum(Fr(w, total) * v[axis] for w, v in zip(weights, simplex.vertices))
        for axis in range(simplex.ambient_dim)
    )


def _refinement_cases(rng, count):
    """(finer, coarser) pairs: a random simplex of dimension 0-3 in Q^1-Q^3
    through 0-3 barycentric, Farey or stellar moves, each move checked
    against the former per-face algorithm; then three near misses, the moved
    complex short of one maximal simplex or with a vertex outside the
    support added, and a foreign simplex."""
    for _ in range(count):
        ambient = rng.randint(1, 3)
        base = pn.validate_complex(_random_simplex(rng, rng.randint(0, ambient), ambient).faces())
        fine = base
        for _ in range(rng.randint(0, 3)):
            move = rng.choice(("barycentric", "farey", "stellar"))
            point = _point_of(rng, rng.choice(fine.sorted_simplices), move)
            moved = pn.elementary_stellar(fine, point)
            assert moved == per_face_stellar(fine, point)
            fine = moved
        yield fine, base
        short = fine.simplices - {rng.choice(fine.maximal_simplices())}
        yield RationalComplex(short, _trusted=True), base
        outside = Simplex((pt(*[9] * ambient),))
        yield RationalComplex(fine.simplices | {outside}, _trusted=True), base
        foreign = _random_simplex(rng, rng.randint(0, ambient), ambient)
        yield pn.validate_complex(foreign.faces()), base


def test_refinement_matches_volume_oracle(triangle):
    rng = random.Random(127)
    edge = full_complex(pt(0, 0), pt(1, 0))
    crossing = full_complex(pt(-1, -1), pt(2, 2))
    cases = [(edge, triangle), (crossing, triangle)]
    cases += _refinement_cases(rng, 200)
    seen = Counter()
    for finer, coarser in cases:
        for a, b in ((finer, coarser), (coarser, finer)):
            answer = pn.is_refinement(a, b)
            assert answer == volume_refinement_oracle(a, b)
            seen[answer] += 1
    assert seen[True] > 200 and seen[False] > 600


def _shifted(rng, complex_, keep):
    """The complex with one vertex not in ``keep`` moved a little, when that
    is still a complex; else None."""
    movable = [v for v in complex_.vertices if v not in keep]
    if not movable:
        return None
    old = rng.choice(movable)
    new = tuple(c + Fr(rng.randint(-1, 1), rng.randint(2, 4)) for c in old)
    try:
        return pn.validate_complex({Simplex(tuple(new if v == old else v for v in s.vertices)) for s in complex_.simplices})
    except (AffineDependence, BadIntersection):
        return None


def _non_pure_refinement_cases(rng, count):
    """(finer, coarser) pairs on a triangle with a dangling edge: the
    complex through 0-3 moves, then short of one maximal simplex, with a
    vertex off the coarse vertices moved, and with an edge out of the
    support added, each near miss kept when it is still a complex."""
    made = 0
    while made < count:
        tri = _random_simplex(rng, 2, 2)
        far = pt(rng.randint(-9, 9), rng.choice((-9, 9)))
        try:
            coarse = pn.validate_complex(set(tri.faces()) | set(Simplex((rng.choice(tri.vertices), far)).faces()))
        except BadIntersection:
            continue
        made += 1
        fine = coarse
        for _ in range(rng.randint(0, 3)):
            move = rng.choice(("barycentric", "farey", "stellar"))
            fine = pn.elementary_stellar(fine, _point_of(rng, rng.choice(fine.sorted_simplices), move))
        yield fine, coarse
        yield RationalComplex(fine.simplices - {rng.choice(fine.maximal_simplices())}, _trusted=True), coarse
        shifted = _shifted(rng, fine, coarse.vertices)
        if shifted is not None:
            yield shifted, coarse
        try:
            leaving = Simplex((rng.choice(fine.vertices), pt(rng.randint(-9, 9), rng.choice((-12, 12)))))
            yield pn.validate_complex(fine.simplices | set(leaving.faces())), coarse
        except BadIntersection:
            pass


def test_refinement_matches_the_former_all_simplices_sums():
    # volume sums on maximal coarse simplices only against sums on every
    # coarse simplex, on pure and non-pure coarse sides and near misses
    rng = random.Random(197)
    cases = list(_refinement_cases(rng, 80)) + list(_non_pure_refinement_cases(rng, 120))
    seen = Counter()
    for finer, coarser in cases:
        for a, b in ((finer, coarser), (coarser, finer)):
            answer = pn.is_refinement(a, b)
            assert answer == former_is_refinement(a, b)
            seen[len(b.maximal_simplices()) > 1, answer] += 1
    assert min(seen.values()) > 40 and len(seen) == 4


# -- realization ---------------------------------------------------------------------------------------


def test_geometric_realization_fork():
    fork = pn.starlike_tree(pn.Signature.parse("1^2"))
    complex_ = pn.geometric_realization(fork)
    assert len([s for s in complex_.simplices if s.dim == 0]) == 3
    assert len([s for s in complex_.simplices if s.dim == 1]) == 2
    assert len(complex_) == 5
    assert pn.is_unimodular_complex(complex_)


def test_geometric_realization_samples():
    single = validate_poset(["s"], [])
    assert len(pn.geometric_realization(single)) == 1
    chain = validate_poset(["a", "b"], [("a", "b")])
    realized = pn.geometric_realization(chain)
    assert len(realized) == 3
    assert pn.is_unimodular_complex(realized)
    for poset in sample_posets(6, 5, seed=109):
        if poset.is_empty:
            continue
        complex_ = pn.geometric_realization(poset)
        # face poset of the realization is the nerve (checked inside), and
        # every simplex is spanned by standard basis vectors
        assert pn.is_unimodular_complex(complex_)
        assert len(complex_) == poset.count_chains()


# -- upsets as opens ------------------------------------------------------------------------------------


def test_upset_to_open(triangle):
    tri = next(s for s in triangle.simplices if s.dim == 2)
    top_only = pn.upset_to_open(triangle, {tri})
    assert top_only.contains((Fr(1, 3), Fr(1, 3)))
    assert not top_only.contains((Fr(0), Fr(0)))
    everything = pn.upset_to_open(triangle, triangle.simplices)
    nothing = pn.upset_to_open(triangle, set())
    assert (top_only | nothing).members == top_only.members
    assert (everything & top_only).members == top_only.members
    with pytest.raises(NotUpwardClosed):
        pn.upset_to_open(triangle, {Simplex((pt(0, 0),))})


def _random_upset(rng, faces):
    """The up-closure of a random set of face-poset elements."""
    mask = 0
    for i in range(faces.n):
        if rng.random() < 0.15:
            mask |= faces.up_mask(i)
    return mask


def _open_of(complex_, mask):
    faces = pn.face_poset(complex_)
    by_label = {s.label(): s for s in complex_.simplices}
    return pn.upset_to_open(complex_, {by_label[lab] for lab in faces.labels_of(mask)})


def test_open_set_heyting_ops_match_upset_algebra(triangle, theta_frame):
    # the former pairwise implication is the oracle, on the triangle, its
    # barycentric subdivision and the realization of a five-element frame
    rng = random.Random(113)
    shapes = (triangle, pn.barycentric_subdivision(triangle), pn.geometric_realization(theta_frame))
    for complex_ in shapes:
        faces = pn.face_poset(complex_)
        for _ in range(20):
            u = _open_of(complex_, _random_upset(rng, faces))
            v = _open_of(complex_, _random_upset(rng, faces))
            assert u.implies(v).members == pairwise_open_implies(u, v)
            assert (u & v).members == u.members & v.members
            assert (u | v).members == u.members | v.members


def test_open_sets_of_different_complexes_do_not_combine(triangle):
    sd = pn.barycentric_subdivision(triangle)
    u = pn.upset_to_open(triangle, triangle.simplices)
    v = pn.upset_to_open(sd, sd.simplices)
    for combine in (operator.and_, operator.or_, pn.OpenPolyhedralSet.implies):
        for a, b in ((u, v), (v, u)):
            with pytest.raises(PolynerveError):
                combine(a, b)
    # an equal complex built again is the same complex
    again = full_complex(pt(0, 0), pt(1, 0), pt(0, 1))
    w = pn.upset_to_open(again, again.simplices)
    assert (u & w).members == (u | w).members == u.implies(w).members == triangle.simplices


def _evaluate(phi, env, top, bottom, meet, join, implies):
    if isinstance(phi, Var):
        return env[phi.name]
    if isinstance(phi, Const):
        return top if phi.value else bottom
    left = _evaluate(phi.left, env, top, bottom, meet, join, implies)
    right = _evaluate(phi.right, env, top, bottom, meet, join, implies)
    if isinstance(phi, And):
        return meet(left, right)
    if isinstance(phi, Or):
        return join(left, right)
    if isinstance(phi, Imp):
        return implies(left, right)
    raise TypeError(f"not a formula: {phi!r}")


def test_formulas_read_on_the_polyhedron_match_the_face_poset():
    # the paper's polyhedral reading: a formula's open set, built from the
    # open sets of p and q, holds at the barycentre of a simplex exactly when
    # the simplex is in the formula's value in the face poset's upset algebra
    rng = random.Random(163)
    formulas = [pn.named_formula(name) for name in ("KC", "LC", "SL")]
    for _ in range(5):
        realized = pn.geometric_realization(pn.random_rooted_poset(rng.randint(3, 5), rng))
        for complex_ in (realized, pn.barycentric_subdivision(realized)):
            faces = pn.face_poset(complex_)
            algebra = UpsetAlgebra(faces)
            by_label = {s.label(): s for s in complex_.simplices}
            empty, whole = _open_of(complex_, 0), _open_of(complex_, algebra.top)
            for _ in range(2):
                masks = {name: _random_upset(rng, faces) for name in "pq"}
                opens = {name: _open_of(complex_, mask) for name, mask in masks.items()}
                for phi in formulas:
                    value = _evaluate(
                        phi, masks, algebra.top, 0, operator.and_, operator.or_, algebra.implies
                    )
                    assert value == naive_evaluate(phi, masks, algebra)
                    region = _evaluate(
                        phi, opens, whole, empty, operator.and_, operator.or_,
                        pn.OpenPolyhedralSet.implies,
                    )
                    for i, label in enumerate(faces.labels):
                        assert region.contains(by_label[label].barycentre()) == bool(value >> i & 1)


# -- one object per point -----------------------------------------------------------------------------


def _subdivision_chains(rng, count):
    """Every complex along seeded chains: a random simplex of dimension 0-3
    in Q^1-Q^3 with its faces, three stellar, Farey or barycentric moves, the
    barycentric subdivision of the result, and its JSON round trip."""
    for _ in range(count):
        ambient = rng.randint(1, 3)
        complex_ = pn.validate_complex(_random_simplex(rng, rng.randint(0, ambient), ambient).faces())
        yield complex_
        for _ in range(3):
            move = rng.choice(("barycentric", "farey", "stellar"))
            complex_ = pn.elementary_stellar(complex_, _point_of(rng, rng.choice(complex_.sorted_simplices), move))
            yield complex_
        subdivided = pn.barycentric_subdivision(complex_)
        yield subdivided
        yield RationalComplex.from_json(subdivided.to_json())


def test_points_behave_as_plain_tuples():
    # the cached hash, the rank order and the integer vectors give what the
    # plain tuples of Fractions gave, and the complexes share one object per
    # vertex
    rng = random.Random(167)
    seen = Counter()
    for complex_ in _subdivision_chains(rng, 16):
        assert complex_.sorted_simplices == former_sorted_simplices(complex_)
        shared = {v: v for v in complex_.vertices}
        for s in complex_.simplices:
            plain = tuple(tuple(v) for v in s.vertices)
            assert hash(s) == hash((plain,))
            assert all(v is shared[v] for v in s.vertices)
            assert all(v is w for v, w in zip(Simplex(s.vertices).vertices, s.vertices))
        for v in complex_.vertices:
            assert type(tuple(v)) is tuple and v == tuple(v) and hash(v) == hash(tuple(v))
            assert v._homogeneous == pn.homogeneous(tuple(v)) == former_homogeneous(v)
            again = pickle.loads(pickle.dumps(v))
            assert again == v and hash(again) == hash(v)
        seen[complex_.ambient_dim] += 1
        seen["simplices"] += len(complex_)
    assert all(seen[d] > 10 for d in (1, 2, 3)) and seen["simplices"] > 2000


def test_point_order_and_equality_follow_the_fraction_tuples():
    # order, equality and hash on the cached integer vectors against the
    # plain tuples of Fractions: coordinates of both signs and mixed
    # denominators, equal values as distinct objects, lengths 0-3 mixed
    rng = random.Random(199)
    plain = [tuple(Fr(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(rng.randint(0, 3))) for _ in range(400)]
    plain += [tuple(Fr(c.numerator * 3, c.denominator * 3) for c in p) for p in plain[:80]]
    points = [pn.rational_point(p) for p in plain]
    assert [tuple(p) for p in sorted(points)] == sorted(plain)
    seen = Counter()
    for _ in range(6000):
        i, j = rng.randrange(len(points)), rng.randrange(len(points))
        a, b, x, y = points[i], points[j], plain[i], plain[j]
        assert (a == b) == (a == y) == (x == b) == (x == y)
        assert (a != b) == (x != y)
        assert (a < b) == (a < y) == (x < b) == (x < y)
        if a == b:
            assert hash(a) == hash(b) == hash(x)
        seen[len(a) == len(b), a == b, a < b] += 1
    assert seen[True, True, False] > 30 and seen[True, False, True] > 400 and seen[False, False, True] > 1000


# complex_to_json digests recorded before points cached their hash, order and
# integer vectors: the representation moves no set order and no output byte
PINNED_OUTPUTS = {
    "derived": "ae0938c4627193151470d563c45aa9344bf151d501db6b5e0e8efb5c8b974108",
    "tetrahedron": "95ab0729d79196cbde6aa38b88b6a381f42e39aad68704837d3843e98c0d75b7",
    "realization": "6da9be994e71ed6d5c235aee3f150d9278ab56eb91d2c147cab1dffd7ea3f4ee",
    "farey": "afb5850f3f57153f6453f791430e32f97d7a1b84ae71e3e53fc74e4f6f63e516",
}


def test_output_bytes_are_pinned(triangle):
    tetrahedron = full_complex(
        pt(0, 0, 0), pt(Fr(3, 2), Fr(1, 3), 0), pt(Fr(-1, 2), 2, Fr(1, 4)), pt(Fr(1, 3), Fr(-1, 2), Fr(5, 3))
    )
    poset = validate_poset(list("abcdef"), [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("c", "e"), ("a", "f")])
    rng = random.Random(2021)
    farey = triangle
    for _ in range(5):
        farey = pn.elementary_farey(farey, farey.sorted_simplices[rng.randrange(len(farey))])
    outputs = {
        "derived": pn.derived(triangle, 3),
        "tetrahedron": pn.barycentric_subdivision(tetrahedron),
        "realization": pn.geometric_realization(poset),
        "farey": farey,
    }
    digests = {name: hashlib.sha256(c.to_json().encode()).hexdigest() for name, c in outputs.items()}
    assert digests == PINNED_OUTPUTS


def _pinned_geometry_lines():
    """One line per seeded complex: its JSON, its face poset's labels,
    covers and heights, and, for a barycentric subdivision sd K, the
    isomorphism found from F(sd K) onto N(F(K)). The complexes are
    subdivisions of random segments and triangles, Farey chains on the unit
    triangle, and realizations of random posets."""
    rng = random.Random(3131)
    cases = []
    for _ in range(8):
        ambient = rng.randint(1, 2)
        base = pn.validate_complex(_random_simplex(rng, rng.randint(0, ambient), ambient).faces())
        subdivided = pn.barycentric_subdivision(base)
        found = pn.are_isomorphic(pn.face_poset(subdivided), pn.nerve(pn.face_poset(base)))
        cases.append(("sd", subdivided, sorted(found.items())))
    for _ in range(4):
        farey = full_complex(pt(0, 0), pt(1, 0), pt(0, 1))
        for _ in range(5):
            farey = pn.elementary_farey(farey, farey.sorted_simplices[rng.randrange(len(farey))])
            cases.append(("farey", farey, None))
    for poset in sample_posets(8, 5, seed=3137):
        if not poset.is_empty:
            cases.append(("realization", pn.geometric_realization(poset), None))
    for kind, complex_, found in cases:
        faces = pn.face_poset(complex_)
        yield json.dumps(
            [kind, complex_.to_json(), faces.labels, faces.covers_up, faces.covers_down, faces.heights, found]
        )


def test_geometry_bytes_are_pinned():
    """Complexes, face posets and the maps between F(sd K) and N(F(K)) stay
    byte for byte what they were when the digest was recorded, before
    complexes were held as masks over a sorted vertex table; CI reruns this
    file under a second hash seed."""
    digest = hashlib.sha256()
    count = 0
    for line in _pinned_geometry_lines():
        digest.update(line.encode() + b"\n")
        count += 1
    assert count == 36
    assert digest.hexdigest() == "242f8c866b457d91d308b57a53833a2e38af83c263c80629c2963cd1fe8f6603"


def _mask_built_complexes(rng):
    """Complexes the package builds on masks: chains of barycentric, Farey
    and stellar moves on random simplices of dimension 0-3 in Q^1-Q^3, each
    move checked against the former per-face move, the barycentric
    subdivision of the result and its JSON round trip; realizations of
    random posets; and complexes read from tables with unused vertices,
    the dim-0 point and the empty complex."""
    for _ in range(30):
        ambient = rng.randint(1, 3)
        complex_ = pn.validate_complex(_random_simplex(rng, rng.randint(0, ambient), ambient).faces())
        yield complex_
        for _ in range(3):
            simplex = rng.choice(complex_.sorted_simplices)
            move = rng.choice(("barycentric", "farey", "stellar"))
            point = _point_of(rng, simplex, move)
            if move == "barycentric":
                moved = pn.elementary_barycentric(complex_, simplex)
            elif move == "farey":
                moved = pn.elementary_farey(complex_, simplex)
            else:
                moved = pn.elementary_stellar(complex_, point)
            assert moved == per_face_stellar(complex_, point)
            complex_ = moved
            yield complex_
        subdivided = pn.barycentric_subdivision(complex_)
        yield subdivided
        yield RationalComplex.from_json(subdivided.to_json())
    for poset in sample_posets(10, 5, seed=3167):
        yield pn.geometric_realization(poset)
    table = [[[5, 1], [5, 1]], [[0, 1], [0, 1]], [[1, 1], [0, 1]], [[9, 2], [1, 3]], [[0, 1], [1, 1]]]
    for listed in ([[1, 2, 4], [2]], [[4, 1], [1, 2]], [[3]], []):
        yield RationalComplex.from_json(json.dumps({"dim": 2, "vertices": table, "simplices": listed}))
    yield RationalComplex.from_json('{"dim": 0, "vertices": [[]], "simplices": [[0]]}')
    yield RationalComplex.from_json('{"dim": 0, "vertices": [], "simplices": []}')


def test_mask_complexes_match_the_former_design():
    # each complex built on masks, and the same complex built from its
    # Simplex objects, against the former frozenset-of-Simplex rules: the
    # simplices, their order, the maximal ones, the face poset (labels,
    # covers both ways, heights), the JSON bytes, equality and hash
    rng = random.Random(3163)
    seen = Counter()
    for complex_ in _mask_built_complexes(rng):
        rebuilt = RationalComplex(complex_.simplices, _trusted=True)
        former = former_face_poset(complex_)
        closure = {face for s in former_maximal(complex_) for face in s.faces()}
        for held in (complex_, rebuilt):
            assert held.simplices == closure and len(held) == len(closure)
            assert all(s in held for s in closure)
            assert held.sorted_simplices == former_sorted_simplices(complex_)
            assert held.maximal_simplices() == former_maximal(complex_)
            faces = pn.face_poset(held)
            assert faces.labels == former.labels
            assert faces.covers_up == former.covers_up
            assert faces.covers_down == former.covers_down
            assert faces.heights == former.heights
            assert held.to_json() == former_to_json(complex_)
        assert complex_ == rebuilt and hash(complex_) == hash(rebuilt)
        seen[complex_.ambient_dim] += 1
        seen["simplices"] += len(complex_)
    assert all(seen[d] > 30 for d in (1, 2, 3)) and seen[0] == 3 and seen["simplices"] > 1200
