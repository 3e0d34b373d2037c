"""Polynomial builders for the tests: sums, scalings and term lists.

The package only multiplies, powers and evaluates polynomials; tests that
write a polynomial as a sum of terms build it with these.
"""

from fractions import Fraction


def poly_from_terms(terms):
    """Build a polynomial from (coefficient, exponents) pairs, dropping zeros."""
    out = {}
    for coeff, exps in terms:
        key = tuple(int(e) for e in exps)
        val = out.get(key, Fraction(0)) + Fraction(coeff)
        if val:
            out[key] = val
        else:
            out.pop(key, None)
    return out


def poly_add(p, q):
    return poly_from_terms(
        [(c, e) for e, c in p.items()] + [(c, e) for e, c in q.items()]
    )


def poly_scale(c, p):
    return poly_from_terms((c * v, e) for e, v in p.items())
