"""Sparse Laurent-polynomial arithmetic over exact rationals."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricres import monomial, poly_eval, poly_mul, poly_pow

from polys import poly_add, poly_from_terms, poly_scale

coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
).filter(lambda c: c != 0)
exps = st.tuples(
    st.integers(min_value=-2, max_value=3), st.integers(min_value=-2, max_value=3)
)
polys = st.dictionaries(exps, coeffs, min_size=0, max_size=4).map(
    lambda d: poly_from_terms((c, e) for e, c in d.items())
)
points = st.tuples(
    st.fractions(min_value=1, max_value=3, max_denominator=3),
    st.fractions(min_value=1, max_value=3, max_denominator=3),
)


def test_monomial_and_from_terms_normalize():
    assert monomial((1, 0), 2) == {(1, 0): Fraction(2)}
    # exactly cancelling terms disappear instead of lingering as zeros
    assert poly_from_terms([(2, (1, 0)), (-2, (1, 0)), (1, (0, 0))]) == {
        (0, 0): Fraction(1)
    }
    assert poly_add(monomial((1, 0)), poly_scale(-1, monomial((1, 0)))) == {}


def test_poly_pow_zero_keeps_arity():
    p = monomial((3, -1), Fraction(7, 2))
    assert poly_pow(p, 0) == {(0, 0): Fraction(1)}
    assert poly_pow(p, 3) == {(9, -3): Fraction(343, 8)}


def test_binomial_square_by_hand():
    p = poly_add(monomial((1, 0), 2), monomial((0, 1), Fraction(1, 2)))
    assert poly_mul(p, p) == {
        (2, 0): Fraction(4),
        (1, 1): Fraction(2),
        (0, 2): Fraction(1, 4),
    }


@given(polys, polys, points)
@settings(max_examples=60)
def test_evaluation_is_a_ring_homomorphism(p, q, x):
    assert poly_eval(poly_add(p, q), x) == poly_eval(p, x) + poly_eval(q, x)
    assert poly_eval(poly_mul(p, q), x) == poly_eval(p, x) * poly_eval(q, x)


@given(polys, points, st.integers(min_value=0, max_value=4))
@settings(max_examples=60)
def test_pow_matches_repeated_multiplication(p, x, n):
    assume(p or n > 0)  # 0**0 is rejected by contract (arity would be lost)
    expected = Fraction(1)
    acc = {(0, 0): Fraction(1)}
    for _ in range(n):
        acc = poly_mul(acc, p)
        expected *= poly_eval(p, x)
    assert poly_pow(p, n) == acc
    assert poly_eval(poly_pow(p, n), x) == expected
