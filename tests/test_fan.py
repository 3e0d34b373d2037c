"""Triangulations, polytope fans, completions, and effective-class enumeration."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricres import (
    Fan,
    GeometryError,
    InvariantError,
    Triangulation,
    TriangulationError,
    build_context,
    build_fan,
    complete,
    enumerate_effective,
    find_lifting,
    validate_triangulation,
    verify_coherence,
    wall_relations,
)
from toricres.problem import parse_problem

from fm_reference import reference_enumerate_effective
from gauss_jordan_reference import reference_solve_integral
from strategies import fans, star_triangulation

SEGMENT = ((-1,), (0,), (1,))


def segment_fan():
    tri = Triangulation(SEGMENT, ((0, 1), (1, 2)), lifting=(1, 0, 1))
    return build_fan(tri, validate_triangulation(tri))


# ---------------------------------------------------------------------------
# triangulation validation and coherence
# ---------------------------------------------------------------------------

def test_validate_accepts_the_fixture_triangulations(all_fixtures):
    for pc in all_fixtures.values():
        poly = validate_triangulation(pc.triangulation)
        assert poly.dim == pc.spec.dimension


def test_validate_rejects_overlap():
    bad = Triangulation(SEGMENT, ((0, 2), (1, 2)))
    with pytest.raises(TriangulationError, match="overlap improperly"):
        validate_triangulation(bad)


def test_validate_rejects_unused_points():
    bad = Triangulation(SEGMENT, ((0, 1),))
    with pytest.raises(TriangulationError, match="appear in no simplex"):
        validate_triangulation(bad)


def test_verify_coherence_distinguishes_liftings():
    # (1,0,1) is convex across the interior wall at the origin, (0,1,0) is not
    good = Triangulation(SEGMENT, ((0, 1), (1, 2)), lifting=(1, 0, 1))
    bad = Triangulation(SEGMENT, ((0, 1), (1, 2)), lifting=(0, 1, 0))
    assert verify_coherence(good)
    assert not verify_coherence(bad)


def test_find_lifting_produces_a_coherence_certificate():
    tri = Triangulation(SEGMENT, ((0, 1), (1, 2)))
    lifting = find_lifting(tri)
    assert verify_coherence(Triangulation(SEGMENT, tri.simplices, lifting=lifting))


def test_find_lifting_certifies_every_fixture(all_fixtures):
    for pc in all_fixtures.values():
        tri = pc.triangulation
        lifting = find_lifting(Triangulation(tri.points, tri.simplices))
        assert verify_coherence(
            Triangulation(tri.points, tri.simplices, lifting=lifting)
        )


# ---------------------------------------------------------------------------
# fans over triangulations
# ---------------------------------------------------------------------------

def test_segment_fan_structure():
    fan = segment_fan()
    assert fan.generators == ((-1, 1), (0, 1), (1, 1))
    assert fan.max_cones == ((0, 1), (1, 2))
    assert fan.volumes == {(0, 1): 1, (1, 2): 1}
    assert fan.total_volume == 2
    assert not fan.is_complete
    assert fan.height_dual == (0, 1)
    assert fan.relation_basis == ((1, -2, 1),)


def test_segment_fan_walls():
    fan = segment_fan()
    # one interior wall (the origin ray) shared by both cones, two boundary walls
    assert len(fan.interior_walls) == 1
    assert len(fan.boundary_walls) == 2
    wall, left, right = fan.interior_walls[0]
    assert wall == (1,)
    assert {left, right} == {(0, 1), (1, 2)}


def test_fixture_fan_volumes(p1, p2, square, nonreflexive):
    # oracle: normalized volumes of the working polytopes, summed by hand
    assert p1.fan.total_volume == 2
    assert p2.fan.total_volume == 3
    assert square.fan.total_volume == 4
    assert nonreflexive.fan.total_volume == 2


def test_square_cayley_fan_shape(square):
    # Cayley construction: 3-dimensional polytope sitting in Z^4
    fan = square.fan
    assert fan.rank == 4
    assert len(fan.generators) == 6
    assert len(fan.max_cones) == 4
    assert all(v == 1 for v in fan.volumes.values())


def test_is_relation_and_relation_coords(square):
    fan = square.fan
    for rel in fan.relation_basis:
        assert fan.is_relation(rel)
        coords = fan.relation_coords(rel)
        rebuilt = tuple(
            sum(c * b[i] for c, b in zip(coords, fan.relation_basis))
            for i in range(len(rel))
        )
        assert rebuilt == rel
    assert not fan.is_relation((1,) + (0,) * 5)
    with pytest.raises(GeometryError, match="not a relation"):
        fan.relation_coords((1,) + (0,) * 5)


@given(fans(max_rho=3), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_relation_coords_match_a_solve(fan, bound):
    # substitution on the Hermite basis against one exact solve per class
    basis = fan.relation_basis
    assume(basis)
    mat = [[row[j] for row in basis] for j in range(len(fan.generators))]
    for beta in enumerate_effective(fan, bound) + fan.wall_relations:
        expected = reference_solve_integral(mat, list(beta))
        assert list(fan.relation_coords(beta)) == expected


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------

# The completion of the segment fan: the base cones shifted by one, plus the
# new ray 0 joined to the two boundary rays 1 and 3; four walls (the rays),
# each in two cones.
SEGMENT_COMPLETION = ((0, 1), (0, 3), (1, 2), (2, 3))


def test_complete_defaults_to_minus_height():
    comp = complete(segment_fan())
    assert isinstance(comp, Fan)
    assert comp.generators[0] == (0, -1)
    assert comp.generators[1:] == segment_fan().generators
    assert comp.max_cones == SEGMENT_COMPLETION
    assert comp.is_complete
    assert len(comp.interior_walls) == 4


def test_complete_with_explicit_v0():
    comp = complete(segment_fan(), v0=(1, -2))
    assert comp.generators == ((1, -2),) + segment_fan().generators
    assert comp.max_cones == SEGMENT_COMPLETION
    assert comp.is_complete
    assert len(comp.interior_walls) == 4


def test_complete_rejects_non_interior_v0():
    with pytest.raises(GeometryError, match="not interior"):
        complete(segment_fan(), v0=(1, 1))


def test_wall_census_rejects_a_complete_fan_with_an_open_wall():
    # the census that checks a completion: a fan without support facets
    # whose ray (1, 0) lies in one cone only is not complete
    open_fan = Fan(((1, 0), (0, 1), (-1, 0)), ((0, 1), (1, 2)))
    assert open_fan.is_complete
    with pytest.raises(InvariantError, match="has a single cone"):
        open_fan.interior_walls


def test_complete_rejects_default_when_origin_is_a_vertex(nonreflexive):
    # the height ray grazes the boundary of this support cone, so the
    # default completion must refuse and an explicit v0 is required
    with pytest.raises(GeometryError, match="pass v0 explicitly"):
        complete(nonreflexive.fan)
    comp = complete(nonreflexive.fan, v0=(-1, -1, -2))
    assert comp.generators[0] == (-1, -1, -2)
    # base cones (0, 1, 2) and (1, 2, 3) shifted, plus the ray 0 over the
    # four boundary walls
    assert comp.max_cones == ((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4),
                              (1, 2, 3), (2, 3, 4))
    assert comp.is_complete
    assert len(comp.interior_walls) == 9


# ---------------------------------------------------------------------------
# Mori data and effective classes
# ---------------------------------------------------------------------------

def test_wall_relations_of_the_segment():
    md = wall_relations(segment_fan())
    assert md.wall_relations == ((1, -2, 1),)
    assert md.ample == (1, 0, 1)


def test_enumerate_effective_segment():
    # oracle: the only wall relation is (1,-2,1) of degree 2 under (1,0,1)
    assert enumerate_effective(segment_fan(), 6) == (
        (0, 0, 0),
        (1, -2, 1),
        (2, -4, 2),
        (3, -6, 3),
    )


def test_enumerate_effective_square_cayley(square):
    fan = square.fan
    classes = enumerate_effective(fan, 4)
    g1 = (0, 1, 1, 0, 0, -2)
    g2 = (1, 0, 0, 1, -2, 0)
    expected = set()
    for m1 in range(3):
        for m2 in range(3):
            if 2 * m1 + 2 * m2 <= 4:
                expected.add(
                    tuple(m1 * a + m2 * b for a, b in zip(g1, g2))
                )
    assert set(classes) == expected


def test_enumerate_effective_respects_degree_bound(p2):
    fan = p2.fan
    ample = fan.lifting
    for beta in enumerate_effective(fan, 6):
        degree = sum(h * b for h, b in zip(ample, beta))
        assert 0 <= degree <= 6
        assert fan.is_relation(beta)


@given(fans(max_rho=3), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_facet_enumeration_matches_fourier_motzkin(fan, bound):
    assert enumerate_effective(fan, bound) == reference_enumerate_effective(fan, bound)


HEXAGON = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


def test_enumerate_effective_hexagon_star():
    # The reflexive hexagon: six walls in a Mori cone of rank four.  With a
    # Fourier-Motzkin test per box point, bound 1 alone ran past 100 s.
    points = sorted(HEXAGON + ((0, 0),))
    # x_(-1,0) x_(1,0): a valid polynomial, since assembly checks it too.
    poly = [int(p in ((-1, 0), (1, 0))) for p in points]
    pc = build_context(parse_problem({
        "name": "hexagon",
        "dimension": 2,
        "vertices": [list(v) for v in HEXAGON],
        "simplices": [list(s) for s in star_triangulation(points)],
        "nef_partition": [[k for k, p in enumerate(points) if p != (0, 0)]],
        "bound": 3,
        "polynomial": [[1, poly]],
    }))
    for fan in (pc.fan, pc.cayley.bar_fan):
        assert len(fan.relation_basis) == 4 and len(fan.wall_relations) == 6
        top = enumerate_effective(fan, 3)
        degrees = [sum(h * b for h, b in zip(fan.lifting, beta)) for beta in top]
        assert degrees == sorted(degrees)
        for bound, count in enumerate((1, 7, 25, 65)):
            classes = enumerate_effective(fan, bound)
            assert len(classes) == count
            assert classes == top[:count]
            for beta, degree in zip(classes, degrees):
                assert fan.is_relation(beta) and degree <= bound


def test_enumerate_effective_refuses_walls_that_do_not_span():
    # Generator 2 lies in no cone, so the one wall relation spans rank 1 of
    # the rank-2 relation lattice: the facet test does not apply.
    gens = [(-1, 1), (0, 1), (1, 1), (2, 1)]
    fan = Fan(gens, [(0, 1), (1, 3)], support_facets=[(1, 1), (-1, 2)],
              lifting=(1, 0, 0, 1))
    assert fan.wall_relations == ((2, -3, 0, 1),)
    with pytest.raises(InvariantError, match=r"generators \(\(-1, 1\).*span rank 1"):
        enumerate_effective(fan, 3)


def test_enumerate_effective_fails_fast_beyond_the_rank_limit():
    # The ten lattice points of the triangle with vertices (0,0), (3,0),
    # (0,3) have relation rank 7, past the brute-force facet limit; the
    # Fourier-Motzkin scan ran past 100 s at bound 1 on this fan.
    points = [(x, y) for x in range(4) for y in range(4 - x)]
    simplices = [(0, 1, 4), (1, 2, 5), (1, 4, 5), (2, 3, 6), (2, 5, 6),
                 (4, 5, 7), (5, 6, 8), (5, 7, 8), (7, 8, 9)]
    lifting = [x * x + x * y + y * y for x, y in points]
    tri = Triangulation(points, simplices, lifting=lifting)
    fan = build_fan(tri, validate_triangulation(tri))
    assert len(fan.relation_basis) == 7
    with pytest.raises(GeometryError, match="rank 7 exceeds"):
        enumerate_effective(fan, 1)
