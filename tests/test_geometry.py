import random
from collections import Counter
from fractions import Fraction as Fr

import pytest

import polynerve as pn
from polynerve import RationalComplex, Simplex, validate_poset
from polynerve.errors import (
    AffineDependence,
    BadIntersection,
    NotDownwardClosed,
    NotUpwardClosed,
    PointOutsideSupport,
    SizeBudgetExceeded,
)
from polynerve.exactla import smith_divisors

from conftest import all_pairs_check_complex, brute_chains, sample_posets, stellar_subdivision


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


def test_relint_and_open_star(triangle):
    tri = next(s for s in triangle.simplices if s.dim == 2)
    assert pn.relint_contains(tri, (Fr(1, 3), Fr(1, 3)))
    assert not pn.relint_contains(tri, (Fr(0), Fr(0)))
    vertex = Simplex((pt(0, 0),))
    star = pn.open_star(triangle, vertex)
    assert len(star) == 4  # the vertex, two edges, the face


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


def test_stellar_outside_support(triangle):
    with pytest.raises(PointOutsideSupport):
        pn.elementary_stellar(triangle, (Fr(5), Fr(5)))


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


def test_smith_divisors_basics():
    assert smith_divisors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_divisors([[2, 0], [0, 3]]) == [1, 6]
    assert smith_divisors([[2, 4], [4, 8]]) == [2]


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


def test_open_set_heyting_ops_match_upset_algebra(triangle):
    from polynerve.semantics import UpsetAlgebra

    fp = pn.face_poset(triangle)
    algebra = UpsetAlgebra(fp)
    label_to_simplex = {s.label(): s for s in triangle.simplices}
    rng = random.Random(113)
    for _ in range(20):
        u_mask, v_mask = rng.choice(algebra.elements), rng.choice(algebra.elements)
        as_open = lambda mask: pn.upset_to_open(
            triangle, {label_to_simplex[lab] for lab in fp.labels_of(mask)}
        )
        u, v = as_open(u_mask), as_open(v_mask)
        imp_mask = algebra.implies(u_mask, v_mask)
        assert {s.label() for s in u.implies(v).members} == set(
            fp.labels_of(imp_mask)
        )
