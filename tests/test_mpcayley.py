"""Cayley data, pushout fans, and the coefficient cross-checks.

The pushout fan of the projective-plane base at class (1,1,1) is checked to be
the fan of P^5 (six rays summing to zero, every five of them a cone), where the
expected pairing is a pure hyperplane-class power computed by hand.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import toricres.jk
from toricres import (
    CayleyData,
    Fan,
    GeometryError,
    LatticePolytope,
    ResidueContext,
    Triangulation,
    build_context,
    beta_lift,
    cayley_rm_coefficient,
    ci_series,
    ci_series_coefficient,
    complete,
    crosscheck_coefficient,
    enumerate_effective,
    evaluate_top_class,
    evaluation_value_pair,
    interior_polynomial,
    load_problem,
    monomial,
    mp_class,
    mp_evaluate,
    mp_fan,
    part_degrees,
    substitution_value_pair,
)

from toricres.lattice import det_int

from brion_reference import reference_mp_class
from polys import poly_from_terms
from strategies import (
    build_cayley,
    cayley_data,
    segment_fans,
    star_fans,
    strip_fans,
)

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Cayley construction
# ---------------------------------------------------------------------------

def test_square_cayley_structure(square):
    cay = square.cayley
    assert cay.r == 2 and cay.dim_bar == 2
    assert cay.bar_points == ((-1, 0), (0, -1), (0, 1), (1, 0))
    assert cay.parts == ((0, 3), (1, 2))
    assert cay.gen_part == (0, 1, 1, 0, 0, 1)
    assert cay.apex_offset == 4
    # generators carry the part indicator in the last two coordinates
    assert cay.fan.generators[0] == (-1, 0, 1, 0)
    assert cay.fan.generators[4] == (0, 0, 1, 0)   # apex of part 0
    assert cay.fan.generators[5] == (0, 0, 0, 1)   # apex of part 1


def test_r1_cayley_degenerates_to_the_polytope_fan(p1):
    # with a single part the Cayley polytope is the original one at height 1,
    # apex ray last
    assert p1.cayley.fan.generators == ((-1, 1), (1, 1), (0, 1))
    assert p1.cayley.fan.total_volume == 2


def test_cayley_rejects_bad_partitions():
    tri = Triangulation(((-1,), (0,), (1,)), ((0, 1), (1, 2)), lifting=(1, 0, 1))
    with pytest.raises(GeometryError, match="empty part"):
        build_cayley(tri, [[0, 2], []])
    with pytest.raises(GeometryError, match="origin"):
        build_cayley(tri, [[0, 1, 2]])
    with pytest.raises(GeometryError, match="belong to no part"):
        build_cayley(tri, [[0]])
    with pytest.raises(GeometryError, match="overlaps"):
        build_cayley(tri, [[0], [0, 2]])


def test_cayley_requires_a_certified_lifting():
    # the coherence stage supplies the lifting; the constructor does not
    # search for one
    tri = Triangulation(((-1,), (0,), (1,)), ((0, 1), (1, 2)))
    with pytest.raises(GeometryError, match="lifting"):
        CayleyData(LatticePolytope(tri.points), tri, [[0, 2]])


def test_cayley_requires_reflexive():
    tri = Triangulation(
        ((0, 0), (0, 1), (1, 0), (2, 0)), ((0, 1, 2), (1, 2, 3)), lifting=(0, 0, 0, 1)
    )
    with pytest.raises(GeometryError, match="reflexive"):
        build_cayley(tri, [[1, 2, 3]])


def test_cayley_rejects_non_nef_part():
    # hexagon: the corner (1,1) satisfies e1 + e2 = (1,1), so a part holding
    # only that corner bends its support function the wrong way
    pts = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))
    simp = ((0, 1, 3), (0, 2, 3), (1, 3, 4), (2, 3, 5), (3, 4, 6), (3, 5, 6))
    tri = Triangulation(pts, simp, lifting=(1, 1, 1, 0, 1, 1, 1))
    build_cayley(tri, [[0, 1, 2, 4, 5, 6]])  # hypersurface partition is fine
    with pytest.raises(GeometryError, match="not nef"):
        build_cayley(tri, [[6], [0, 1, 2, 4, 5]])


def test_diamond_alternate_partition_is_valid():
    # the diamond also splits into opposite triangles conv{0,-e1,-e2} and
    # conv{0,e1,e2}; both pieces are nef on the product-of-lines fan
    spec = load_problem("problems/square_r2.json")
    tri = Triangulation(
        tuple(map(tuple, [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)])),
        spec.simplices,
        lifting=spec.lifting,
    )
    cay = build_cayley(tri, [[0, 1], [3, 4]])
    assert cay.parts == ((0, 1), (2, 3))


# ---------------------------------------------------------------------------
# class bookkeeping
# ---------------------------------------------------------------------------

def test_beta_lift_restrict_round_trip(square):
    cay = square.cayley
    for beta_bar in enumerate_effective(cay.bar_fan, 6):
        lifted = beta_lift(cay, beta_bar)
        assert cay.fan.is_relation(lifted)
        ks = part_degrees(cay, beta_bar)
        assert lifted[cay.apex_offset:] == tuple(-k for k in ks)


def test_part_degrees_square(square):
    cay = square.cayley
    assert part_degrees(cay, (1, 0, 0, 1)) == (2, 0)
    assert part_degrees(cay, (0, 1, 1, 0)) == (0, 2)
    assert part_degrees(cay, (1, 1, 1, 1)) == (2, 2)


def test_interior_polynomial_appends_apexes(square):
    up = interior_polynomial(square.cayley, {(1, 0, 1, 0): ONE})
    assert up == {(1, 0, 1, 0, 1, 1): ONE}


# ---------------------------------------------------------------------------
# pushout fans
# ---------------------------------------------------------------------------

def test_pushout_fan_of_projective_plane_is_p5(p2):
    bar = p2.cayley.bar_fan
    push = mp_fan(bar, (1, 1, 1))
    fan = push.fan
    assert fan.rank == 5
    assert len(fan.generators) == 6
    assert len(fan.max_cones) == 6
    assert all(v == 1 for v in fan.volumes.values())
    # all six rays sum to zero: the single relation of P^5
    assert tuple(map(sum, zip(*fan.generators))) == (0, 0, 0, 0, 0)


def test_pushout_cone_count_formula(square):
    bar = square.cayley.bar_fan
    for beta in ((0, 0, 0, 0), (1, 0, 0, 1), (1, 1, 1, 1), (2, 1, 1, 2)):
        push = mp_fan(bar, beta)
        expected = 0
        for cone in bar.max_cones:
            prod = 1
            for i in range(len(bar.generators)):
                if i not in cone:
                    prod *= 1 + max(beta[i], 0)
            expected += prod
        assert len(push.fan.max_cones) == expected


def test_pushout_embeds_base_exponents(p2):
    push = mp_fan(p2.cayley.bar_fan, (1, 1, 1))
    embedded = push.embed((1, 2, 3))
    assert len(embedded) == 6
    for (i, j), slot in push.slot_index.items():
        assert embedded[slot] == ((1, 2, 3)[i] if j == 0 else 0)


def test_p5_pushout_value_by_hand(p2):
    # every ray of P^5 is the hyperplane class H, so x1 x2 (-x1-x2-x3)^3
    # evaluates to -27 <H^5> = -27
    cay = p2.cayley
    push = mp_fan(cay.bar_fan, (1, 1, 1))
    cls = mp_class(push, monomial((1, 1, 0)), parts=cay.parts)
    assert mp_evaluate(push, cls) == -27


def test_mp_class_rejects_negative_part_degree(square):
    cay = square.cayley
    push = mp_fan(cay.bar_fan, (-1, 0, 0, -1))
    with pytest.raises(GeometryError, match="negative class total"):
        mp_class(push, monomial((1, 0, 1, 0)), parts=cay.parts)


def degree_polynomials(cay):
    """Random polynomials of degree dim_bar over the base variables."""
    monomials = [e for e in itertools.product(range(cay.dim_bar + 1),
                                              repeat=cay.apex_offset)
                 if sum(e) == cay.dim_bar]
    terms = st.tuples(st.integers(-3, 3), st.sampled_from(monomials))
    return st.lists(terms, min_size=1, max_size=3).map(poly_from_terms)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_factored_class_matches_its_expansion(data):
    # the structured sum of mp_evaluate on the factors, the solve-per-cone
    # sum of evaluate_top_class on the factors and on their expansion
    cay = data.draw(cayley_data())
    P = data.draw(degree_polynomials(cay))
    bound = data.draw(st.integers(0, 3))
    for beta in enumerate_effective(cay.bar_fan, bound):
        push = mp_fan(cay.bar_fan, beta)
        expanded = reference_mp_class(push, P, parts=cay.parts)
        factors = mp_class(push, P, parts=cay.parts)
        structured = mp_evaluate(push, factors)
        assert structured == evaluate_top_class(push.fan, factors)
        assert structured == evaluate_top_class(push.fan, [(expanded, 1)])


# ---------------------------------------------------------------------------
# the structured Brion sum against evaluate_top_class
# ---------------------------------------------------------------------------

def interior_polynomials(ctx):
    """Random polynomials in the interior monomials of degree rank."""
    monomials = [e for e in itertools.product(range(ctx.rank + 1), repeat=ctx.n)
                 if sum(e) == ctx.rank and ctx.is_interior_point(ctx.push(e))]
    assume(monomials)
    terms = st.tuples(st.integers(-3, 3).filter(bool), st.sampled_from(monomials))
    return st.lists(terms, min_size=1, max_size=3).map(poly_from_terms)


def reference_pushout_value(ctx, P, beta):
    """The crosscheck's pushout value, by evaluate_top_class."""
    push = mp_fan(ctx.completed, (0,) + tuple(beta))
    shifted = {(0,) + exps: coeff for exps, coeff in P.items()}
    return evaluate_top_class(push.fan, mp_class(push, shifted))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_structured_sum_matches_reference_on_completed_plain_fans(data):
    # classes of plain fans have negative entries, which put a monomial into
    # Phi; the sum of the generators is interior to the support cone, so
    # its negative completes every drawn fan
    fan = data.draw(st.one_of(segment_fans(), strip_fans(), star_fans()))
    v0 = tuple(-sum(column) for column in zip(*fan.generators))
    ctx = ResidueContext(fan, v0)
    P = data.draw(interior_polynomials(ctx))
    bound = data.draw(st.integers(0, 3))
    for beta in enumerate_effective(fan, bound):
        result = crosscheck_coefficient(ctx, P, beta)
        assert result.pushout_value == reference_pushout_value(ctx, P, beta)
        assert result.ok


def test_structured_sum_retries_after_a_pole(p2, monkeypatch):
    # the first point is zero on the fresh ray (2, 1), so the pushout cones
    # over base cones without generator 2 that drop its copy 0 have a zero
    # coordinate there; the sum must move on and find the same value
    cay = p2.cayley
    push = mp_fan(cay.bar_fan, (1, 1, 1))
    factors = mp_class(push, monomial((1, 1, 0)), parts=cay.parts)
    expected = mp_evaluate(push, factors)
    original = toricres.jk.generic_point
    attempts = []

    def first_point_on_a_pole(attempt, rank):
        attempts.append(attempt)
        point = original(attempt, rank)
        if attempt == 0:
            point[-1] = 0
        return point

    monkeypatch.setattr(toricres.jk, "generic_point", first_point_on_a_pole)
    assert mp_evaluate(push, factors) == expected == -27
    assert attempts == [0, 1, 2]


# ---------------------------------------------------------------------------
# pushout cone volumes from the base cone
# ---------------------------------------------------------------------------

def assert_volumes_from_base(push):
    """Every pushout cone's det_int has the absolute value of the base
    cone's D below it, and the pushout fan's own volumes agree."""
    gens = push.fan.generators
    for (det, _, _), above in zip(push.base.cone_adjugates, push.cones_over):
        for _, cone in above:
            mat = [[gens[i][k] for i in cone] for k in range(push.fan.rank)]
            assert abs(det_int(mat)) == abs(det) == push.fan.volumes[cone]


def test_pushout_of_a_degenerate_base_cone_is_refused():
    # the cone (0, 1) spans a line, so every pushout cone above it is flat
    base = Fan(((1, 0), (-1, 0), (0, 1), (0, -1)),
               ((0, 1), (0, 2), (1, 2), (1, 3), (0, 3)))
    with pytest.raises(GeometryError, match=r"cone \(0, 1\) is degenerate"):
        mp_fan(base, (1, 1, 0, 0))


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_pushout_volumes_come_from_the_base_cone_on_cayley_data(data):
    cay = data.draw(cayley_data())
    for beta in enumerate_effective(cay.bar_fan, data.draw(st.integers(0, 3))):
        assert_volumes_from_base(mp_fan(cay.bar_fan, beta))


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_pushout_volumes_come_from_the_base_cone_on_completed_plain_fans(data):
    fan = data.draw(st.one_of(segment_fans(), strip_fans(), star_fans()))
    v0 = tuple(-sum(column) for column in zip(*fan.generators))
    completed = complete(fan, v0)
    for beta in enumerate_effective(fan, data.draw(st.integers(0, 3))):
        assert_volumes_from_base(mp_fan(completed, (0,) + tuple(beta)))


# ---------------------------------------------------------------------------
# coefficient cross-checks
# ---------------------------------------------------------------------------

def test_crosscheck_agrees_on_segment(p1):
    P = {(1, 0, 1): ONE}
    for beta in ((0, 0, 0), (1, 1, -2), (2, 2, -4)):
        res = crosscheck_coefficient(p1.residue, P, beta)
        assert res.ok, (res.series_value, res.pushout_value)
        # a negative entry puts a monomial into Phi, and over the base cones
        # without generator 1 or 2 some pushout cones drop copy 0
        assert res.pushout_value == reference_pushout_value(p1.residue, P, beta)
    assert crosscheck_coefficient(p1.residue, P, (1, 1, -2)).series_value == 4


def test_ci_series_square_values(square):
    # oracle: the hypersurface series of the product of lines factors into
    # two geometric series, 4^{m1+m2}
    cay = square.cayley
    P = square.polynomial
    table = ci_series(cay, P, 6)
    for beta_bar, coeff in table.entries:
        m1 = part_degrees(cay, beta_bar)[0] // 2
        m2 = part_degrees(cay, beta_bar)[1] // 2
        assert coeff == Fraction(4) ** (m1 + m2)


def test_ci_series_coefficient_single_factor_classes(square):
    cay = square.cayley
    P = square.polynomial
    assert ci_series_coefficient(cay, P, (0, 0, 0, 0)) == 1
    assert ci_series_coefficient(cay, P, (1, 0, 0, 1)) == 4
    assert ci_series_coefficient(cay, P, (1, 1, 1, 1)) == 16
    # a polynomial with both factors in one part pairs to zero
    assert ci_series_coefficient(cay, {(1, 0, 0, 1): ONE}, (0, 0, 0, 0)) == 0


def test_cayley_rm_matches_ci_series(square):
    cay, ctx = square.cayley, square.residue
    P = square.polynomial
    for beta_bar in enumerate_effective(cay.bar_fan, 4):
        jk_route = cayley_rm_coefficient(ctx, cay, P, beta_bar)
        mp_route = ci_series_coefficient(cay, P, beta_bar)
        assert jk_route == mp_route


def test_substitution_pairs_on_square(square):
    cay, ctx = square.cayley, square.residue
    ones = (1,) * cay.apex_offset
    mu = (1, 0, 1, 0)
    for beta_bar in enumerate_effective(cay.bar_fan, 4):
        m_bar = tuple(e - b - o for e, b, o in zip(mu, beta_bar, ones))
        ks = part_degrees(cay, beta_bar)
        lhs, rhs = substitution_value_pair(cay, ctx, m_bar, ks)
        assert lhs == rhs


def test_evaluation_pairs_on_fixtures(p1, p2, square):
    for pc in (p1, p2, square):
        base, upstairs = evaluation_value_pair(pc.cayley, pc.polynomial)
        assert base == upstairs
