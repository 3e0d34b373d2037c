"""Residue contexts, Hessians, series coefficients, and the Artinian oracle.

The closed forms used as oracles here come from eliminating the one-dimensional
dual kernel of the derivative matrix by hand on the three-point segment fan:
for generators v1=(-1,1), v2=(1,1), v3=(0,1) the annihilator is
phi = (a2 a3, -2 a1 a2, a1 a3) on the top monomials ((-1,2),(0,2),(1,2)), so
the total residue of a1 a3 t^{v1+v3} is a3^2/(a3^2 - 4 a1 a2).
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricres import (
    Fan,
    GeometryError,
    ResidueContext,
    artinian_residue,
    complete,
    gamma_weight_vector,
    hessian,
    ideal_element,
    interior_points_at_height,
    rm_coefficient,
    rm_series,
    series_value,
    validate_polynomial,
    verify_hessian_identity,
    verify_ideal_vanishing,
)

rationals = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=6)


# ---------------------------------------------------------------------------
# context construction
# ---------------------------------------------------------------------------

def test_context_carries_completion_and_degree(p1):
    ctx = p1.residue
    assert ctx.v0 == (0, -1)
    assert ctx.n == 3 and ctx.rank == 2
    assert ctx.ample == p1.fan.lifting
    assert ctx.degree((1, 1, -2)) == 2
    assert ctx.is_interior_point((0, 2))
    assert not ctx.is_interior_point((2, 2))


def test_context_requires_a_degree_functional(p1):
    fan = p1.fan
    bare = Fan(
        fan.generators,
        fan.max_cones,
        support_facets=fan.support_facets,
        height_dual=fan.height_dual,
    )
    with pytest.raises(GeometryError, match="pass ample="):
        ResidueContext(bare)
    ctx = ResidueContext(bare, ample=(1, 1, 0))
    assert ctx.effective_classes(4) == ((0, 0, 0), (1, 1, -2), (2, 2, -4))


# ---------------------------------------------------------------------------
# Hessian
# ---------------------------------------------------------------------------

def test_segment_hessian_by_hand(p1):
    # oracle: squared 2x2 determinants of the generator pairs: 4, 1, 1
    h = hessian(p1.fan)
    assert h.polynomial() == {
        (1, 1, 0): Fraction(4),
        (1, 0, 1): Fraction(1),
        (0, 1, 1): Fraction(1),
    }
    assert h.n == 3


def test_hessian_rejects_complete_fans(p1):
    with pytest.raises(GeometryError):
        hessian(complete(p1.fan))


def test_gamma_weight_vector_realizability(p1):
    # delta = (1,2) pairs to (1,3,2), so gamma = (1, 1/3, 1/2) is realizable
    gamma = (Fraction(1), Fraction(1, 3), Fraction(1, 2))
    assert gamma_weight_vector(p1.fan, gamma) == (Fraction(1), Fraction(2))
    with pytest.raises(GeometryError, match="no dual vector"):
        gamma_weight_vector(p1.fan, (Fraction(1), Fraction(2), Fraction(1)))


def test_weighted_hessian_identity(p1):
    gamma = (Fraction(1), Fraction(1, 3), Fraction(1, 2))
    report = verify_hessian_identity(p1.residue, gamma=gamma, bound=6)
    assert report.ok
    # sum over cones of vol * gamma^cone = 1*(1*1/2) + 1*(1/3*1/2)
    assert report.expected == Fraction(2, 3)
    assert report.constant_term == Fraction(2, 3)
    assert report.violations == ()


def test_hessian_identity_on_every_fixture(all_fixtures):
    for pc in all_fixtures.values():
        report = verify_hessian_identity(pc.residue, bound=4)
        assert report.ok
        assert report.expected == pc.fan.total_volume


# ---------------------------------------------------------------------------
# series coefficients
# ---------------------------------------------------------------------------

def test_rm_coefficient_segment_values(p1):
    ctx = p1.residue
    assert rm_coefficient(ctx, (1, 0, 1), (0, 0, 0)) == 1
    assert rm_coefficient(ctx, (1, 0, 1), (1, 1, -2)) == 4
    assert rm_coefficient(ctx, (1, 0, 1), (2, 2, -4)) == 16


def test_rm_coefficient_input_checks(p1):
    ctx = p1.residue
    with pytest.raises(GeometryError, match="not a relation"):
        rm_coefficient(ctx, (1, 0, 1), (1, 0, 0))
    with pytest.raises(GeometryError, match="negative entry"):
        rm_coefficient(ctx, (-1, 0, 2), (0, 0, 0))
    with pytest.raises(GeometryError, match="not interior"):
        rm_coefficient(ctx, (2, 0, 0), (0, 0, 0))
    with pytest.raises(GeometryError, match="length"):
        rm_coefficient(ctx, (1, 0), (0, 0, 0))


def test_validate_polynomial(p1):
    ctx = p1.residue
    validate_polynomial(ctx, {(1, 0, 1): Fraction(1)})
    with pytest.raises(GeometryError):
        validate_polynomial(ctx, {(2, 0, 0): Fraction(1)})  # boundary image (-2,2)


def test_rm_series_table_layout(p1):
    table = rm_series(p1.residue, {(1, 0, 1): Fraction(1)}, 6)
    assert table.bound == 6
    assert table.classes() == ((0, 0, 0), (1, 1, -2), (2, 2, -4), (3, 3, -6))
    assert [c for _, c in table.entries] == [1, 4, 16, 64]
    assert table.coefficient((2, 2, -4)) == 16
    with pytest.raises(KeyError):
        table.coefficient((9, 9, -18))


def test_series_value_truncation(p1):
    table = rm_series(p1.residue, {(1, 0, 1): Fraction(1)}, 6)
    a = (Fraction(1, 10), Fraction(1, 10), Fraction(1))
    assert series_value(table, a, bound=0) == 1
    assert series_value(table, a, bound=2) == Fraction(26, 25)
    assert series_value(table, a) == Fraction(16276, 15625)


# ---------------------------------------------------------------------------
# ideal elements and the Artinian oracle
# ---------------------------------------------------------------------------

def test_interior_points_at_height_segment(p1):
    assert interior_points_at_height(p1.fan, 1) == [(0, 1)]
    assert interior_points_at_height(p1.fan, 2) == [(-1, 2), (0, 2), (1, 2)]


def test_ideal_element_specializes_coefficients(p1):
    a = (Fraction(2), Fraction(3), Fraction(5))
    g = ideal_element({(1, 0, 1): Fraction(1)}, a, p1.fan)
    assert g == ((Fraction(10), (-1, 2)),)


def test_artinian_residue_closed_form_at_a_point(p1):
    a = (Fraction(1, 10), Fraction(1, 10), Fraction(1))
    g = ((Fraction(1, 10), (-1, 2)),)
    assert artinian_residue(p1.fan, a, g) == Fraction(25, 24)


@given(rationals, rationals, rationals)
@settings(max_examples=40)
def test_artinian_residue_matches_closed_form(p1, a1, a2, a3):
    assume(a3 * a3 != 4 * a1 * a2)
    g = ideal_element({(1, 0, 1): Fraction(1)}, (a1, a2, a3), p1.fan)
    expected = a3 * a3 / (a3 * a3 - 4 * a1 * a2)
    assert artinian_residue(p1.fan, (a1, a2, a3), g) == expected


def test_ideal_vanishing_on_segment(p1):
    ctx = p1.residue
    for w in ((1, 0), (0, 1)):
        assert verify_ideal_vanishing(ctx, w, (0, 0, 1), 6)
