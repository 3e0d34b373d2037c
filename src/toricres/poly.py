"""Sparse exact polynomials as {exponent tuple: Fraction} mappings.

Just enough arithmetic for expanding cohomology classes and Hessian
polynomials; everything stays exact.
"""

from __future__ import annotations

from fractions import Fraction


def monomial(exps, coeff=1):
    coeff = Fraction(coeff)
    return {tuple(int(e) for e in exps): coeff} if coeff else {}


def poly_mul(p, q):
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            key = tuple(a + b for a, b in zip(k1, k2))
            val = out.get(key, Fraction(0)) + c1 * c2
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out


def poly_pow(p, n):
    if n < 0:
        raise ValueError("negative polynomial power")
    if not p and n == 0:
        raise ValueError("0**0 polynomial power is ambiguous here")
    result = None
    for _ in range(n):
        result = dict(p) if result is None else poly_mul(result, p)
    if result is None:
        # Empty product: the constant 1 needs an arity, take it from p.
        width = len(next(iter(p)))
        result = {(0,) * width: Fraction(1)}
    return result


def poly_eval(p, values):
    """Evaluate at a list of Fractions (one per variable slot)."""
    total = Fraction(0)
    for exps, coeff in p.items():
        term = coeff
        for i, e in enumerate(exps):
            if e == 0:
                continue
            base = values[i]
            if base == 0:
                term = Fraction(0)
                break
            term *= base ** e
        total += term
    return total
