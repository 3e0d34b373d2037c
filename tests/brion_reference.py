"""The pushout class P * Phi expanded into one polynomial, the reference for
mpcayley.mp_class.

This is the class the package built before it kept the class factored: the
embedded P times the monomial prod x_{i,0}^(beta_i^-) times, per part, the
power (-sum_{i in E_j} x_{i,0})^(k_j), multiplied out term by term.  The
differential tests in test_mpcayley.py require the Brion sum of this
expansion, given to evaluate_top_class as the single factor
``[(expanded, 1)]``, to equal the Brion sum of the factors.
"""

from fractions import Fraction

from toricres import GeometryError, monomial, poly_mul, poly_pow


def reference_mp_class(pushout, P, parts=None):
    """P * Phi_beta on a pushout fan, expanded into one polynomial."""
    width = len(pushout.slots)
    phi_exps = [0] * width
    for i, b in enumerate(pushout.beta):
        if b < 0:
            phi_exps[pushout.slot_index[(i, 0)]] = -b
    result = {}
    for exps, coeff in P.items():
        key = pushout.embed(exps)
        result[key] = result.get(key, Fraction(0)) + Fraction(coeff)
    result = poly_mul(result, monomial(phi_exps))
    if parts is not None:
        for part in parts:
            k = sum(pushout.beta[i] for i in part)
            if k < 0:
                raise GeometryError(
                    f"part {tuple(part)} has negative class total {k}; "
                    "the moving factor is undefined"
                )
            linear = {}
            for i in part:
                key = [0] * width
                key[pushout.slot_index[(i, 0)]] = 1
                linear[tuple(key)] = Fraction(-1)
            result = poly_mul(result, poly_pow(linear, k))
    degrees = {sum(e) for e in result}
    if result and degrees != {pushout.fan.rank}:
        raise GeometryError(
            f"class has degrees {sorted(degrees)}, expected {pushout.fan.rank}"
        )
    return result
