"""Jeffrey-Kirwan residues of simplicial fans.

The fixed expected values are classical intersection numbers computed by hand
from divisor relations (linear equivalences read off the rays), which is an
independent route from the chamber/tie-break algorithm under test.
"""

import random
from fractions import Fraction

import pytest

from toricres import (
    Fan,
    GeometryError,
    JKEngine,
    LexTieBreak,
    SeededTieBreak,
    Triangulation,
    build_fan,
    complete,
    evaluate_top_class,
    jk_basic,
    jk_residue,
    monomial,
    restricted_forms,
    validate_triangulation,
)

from polys import poly_add


def hirzebruch_engine():
    """Completed fan over the segment [-1,1]: a smooth surface with two
    sections of self-intersection +2 / -2 and two fibers."""
    tri = Triangulation(((-1,), (0,), (1,)), ((0, 1), (1, 2)), lifting=(1, 0, 1))
    return JKEngine(complete(build_fan(tri, validate_triangulation(tri))))


def weighted_plane_engine():
    # P(1,1,2): D0 ~ D2 =: G, D1 ~ 2G, <G^2> = 1/2
    return JKEngine(Fan(((1, 0), (0, 1), (-1, -2)), ((0, 1), (0, 2), (1, 2))))


# ---------------------------------------------------------------------------
# fixed intersection numbers
# ---------------------------------------------------------------------------

HIRZEBRUCH_CASES = [
    # exponents are (monomial - all-ones); oracle: D0^2=2, D2^2=-2,
    # fibers D1, D3 square to zero, adjacent pairs meet once,
    # non-adjacent pairs (no common cone) meet not at all
    ((0, 0, -1, -1), 1),   # D0.D1
    ((0, -1, -1, 0), 1),   # D0.D3
    ((0, -1, 0, -1), 0),   # D0.D2
    ((-1, 0, 0, -1), 1),   # D1.D2
    ((-1, 1, -1, -1), 0),  # D1^2
    ((-1, -1, -1, 1), 0),  # D3^2
    ((1, -1, -1, -1), 2),  # D0^2
    ((-1, -1, 1, -1), -2),  # D2^2
]

WEIGHTED_CASES = [
    # oracle: rewrite everything in terms of the generator G = D2
    ((0, 0, -1), Fraction(1)),       # D0.D1 = 2 G^2
    ((0, -1, 0), Fraction(1, 2)),    # D0.D2 = G^2
    ((-1, 0, 0), Fraction(1)),       # D1.D2 = 2 G^2
    ((1, -1, -1), Fraction(1, 2)),   # D0^2
    ((-1, 1, -1), Fraction(2)),      # D1^2 = 4 G^2
    ((-1, -1, 1), Fraction(1, 2)),   # D2^2
]


@pytest.mark.parametrize("exps,expected", HIRZEBRUCH_CASES)
def test_hirzebruch_intersection_numbers(exps, expected):
    assert hirzebruch_engine().residue(exps) == expected


@pytest.mark.parametrize("exps,expected", WEIGHTED_CASES)
def test_weighted_plane_intersection_numbers(exps, expected):
    assert weighted_plane_engine().residue(exps) == expected


def test_pairing_sum_is_consistent():
    # (D0+D1+D2)^2 = (4G)^2 = 16/2 = 8 on P(1,1,2)
    eng = weighted_plane_engine()
    total = Fraction(0)
    for i in range(3):
        for j in range(3):
            exps = tuple(
                (1 if k == i else 0) + (1 if k == j else 0) - 1 for k in range(3)
            )
            total += eng.residue(exps)
    assert total == 8


# ---------------------------------------------------------------------------
# engine mechanics
# ---------------------------------------------------------------------------

def test_residue_requires_total_degree_minus_dim():
    eng = hirzebruch_engine()
    with pytest.raises(GeometryError, match="total degree"):
        eng.residue((0, 0, 0, 0))


def test_engine_needs_a_complete_fan(p1):
    # the fan over a polytope has support facets: residues on it would
    # miss the cones of the completion
    with pytest.raises(GeometryError, match="needs a complete fan"):
        JKEngine(p1.fan)
    assert JKEngine(p1.residue.completed).generators[0] == p1.residue.v0


def test_jk_basic_is_inverse_complement_volume():
    # a basic fraction 1/x_i pairs with the cone on the remaining rays
    eng = weighted_plane_engine()
    assert jk_basic(eng, (2,)) == 1              # complement cone {0,1}, volume 1
    assert jk_basic(eng, (1,)) == Fraction(1, 2)  # complement cone {0,2}, volume 2
    assert jk_basic(eng, (0,)) == 1              # complement cone {1,2}, volume 1


def test_restricted_forms_reconstruct_relations():
    kernel, forms = restricted_forms(((0, -1), (-1, 1), (0, 1), (1, 1)))
    assert len(kernel) == 2
    assert len(forms) == 4
    # each generator's form is its coordinate vector in the relation lattice
    for krow in kernel:
        for j, form in enumerate(forms):
            assert len(form) == len(kernel)


def test_residue_of_terms_is_linear():
    eng = hirzebruch_engine()
    a = (0, 0, -1, -1)
    b = (0, -1, 0, -1)
    combo = eng.residue_of_terms([(Fraction(2), a), (Fraction(3), b)])
    assert combo == 2 * eng.residue(a) + 3 * eng.residue(b)


def test_jk_residue_function_matches_method():
    eng = hirzebruch_engine()
    for exps, expected in HIRZEBRUCH_CASES:
        assert jk_residue(eng, exps) == expected


def test_tie_breaks_do_not_change_the_answer():
    eng = hirzebruch_engine()
    rng = random.Random(20240901)
    for _ in range(40):
        exps = [rng.randint(-3, 3) for _ in range(4)]
        exps[-1] -= sum(exps) + eng.dim
        exps = tuple(exps)
        base = eng.residue(exps, tie_break=LexTieBreak())
        for seed in (0, 1, 2):
            assert eng.residue(exps, tie_break=SeededTieBreak(seed)) == base
        assert eng.residue(exps) == base


def test_zero_when_positive_support_spans_no_cone():
    # positive support {D1, D3} = the two opposite fibers: not a cone,
    # so the residue vanishes identically
    eng = hirzebruch_engine()
    assert eng.residue((-1, 0, -1, 0)) == 0
    assert eng.residue((-2, 1, -2, 1)) == 0


# ---------------------------------------------------------------------------
# top-class evaluation on complete fans
# ---------------------------------------------------------------------------

def test_projective_plane_top_class(p2):
    # all three rays of the base fan are the same hyperplane class H,
    # and <H^2> = 1
    bar = p2.cayley.bar_fan
    for exps in ((1, 1, 0), (1, 0, 1), (2, 0, 0)):
        assert evaluate_top_class(bar, [(monomial(exps), 1)]) == 1


def test_product_of_lines_top_classes(square):
    # base fan of the diamond is P1 x P1: <H1 H2> = 1 while <H1^2> = 0
    bar = square.cayley.bar_fan
    assert evaluate_top_class(bar, [(monomial((1, 1, 0, 0)), 1)]) == 1
    assert evaluate_top_class(bar, [(monomial((1, 0, 0, 1)), 1)]) == 0
    assert evaluate_top_class(bar, [(monomial((0, 1, 1, 0)), 1)]) == 0
    mixed = poly_add(monomial((1, 1, 0, 0), 5), monomial((1, 0, 0, 1), 7))
    assert evaluate_top_class(bar, [(mixed, 1)]) == 5


def test_evaluate_top_class_rejects_incomplete_fans(p1):
    pushforward_fan = p1.fan  # fan over a polytope: not complete
    with pytest.raises(GeometryError):
        evaluate_top_class(pushforward_fan, [(monomial((1, 1, 0)), 1)])
    # the boundary-missing evaluation is available on request; a monomial
    # carrying the apex variable agrees with <x1> = 1 on the P1 base fan
    for exps in ((1, 0, 1), (0, 1, 1)):
        assert evaluate_top_class(pushforward_fan, [(monomial(exps), 1)],
                                  allow_incomplete=True) == 1


def test_evaluate_top_class_multiplies_factors(square):
    # on P1 x P1, x1 and x4 are the class H1 and x2 is H2: <H1 H2> = 1,
    # <(2 H1)^2> = 0 and <(H1 + H2)^2> = 2
    bar = square.cayley.bar_fan
    x1, x2, x4 = (monomial(e) for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)))
    assert evaluate_top_class(bar, [(x1, 1), (x2, 1)]) == 1
    assert evaluate_top_class(bar, [(poly_add(x1, x4), 2)]) == 0
    assert evaluate_top_class(bar, [(poly_add(x1, x2), 2)]) == 2


def test_evaluate_top_class_rejects_bad_degrees(square):
    bar = square.cayley.bar_fan
    x1, x2 = monomial((1, 0, 0, 0)), monomial((0, 1, 0, 0))
    with pytest.raises(GeometryError, match="not homogeneous"):
        evaluate_top_class(bar, [(poly_add(x1, monomial((1, 1, 0, 0))), 1)])
    with pytest.raises(GeometryError, match="degree 3, expected 2"):
        evaluate_top_class(bar, [(x1, 1), (x2, 2)])
