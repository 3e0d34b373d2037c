"""Effective classes by one Fourier-Motzkin LP per box point, the reference
for fan.enumerate_effective.

This is the enumeration the package used before it tested Mori-cone
membership against facet normals: the same box in relation coordinates,
but every point is checked by an exact Farkas feasibility test.  The
differential tests in test_fan.py require both to list the same classes in
the same order.
"""

import itertools
from fractions import Fraction
from math import ceil, floor

from toricres.fan import wall_relations
from toricres.lattice import GeometryError, dot, feasible_point


def _cone_member(vectors, target, nvars):
    """Exact Farkas test: is target a nonnegative combination of vectors."""
    if all(x == 0 for x in target):
        return True
    if not vectors:
        return False
    dim = len(target)
    constraints = []
    for j in range(nvars):
        coeffs = [Fraction(0)] * nvars
        coeffs[j] = Fraction(1)
        constraints.append((tuple(coeffs), Fraction(0)))
    for k in range(dim):
        row = tuple(Fraction(vec[k]) for vec in vectors)
        constraints.append((row, Fraction(-target[k])))
        constraints.append((tuple(-x for x in row), Fraction(target[k])))
    return feasible_point(constraints, nvars) is not None


def reference_enumerate_effective(fan, bound, ample=None):
    mori = wall_relations(fan, ample)
    L = mori.ample
    if L is None:
        raise GeometryError("no ample/degree values available")
    if bound < 0:
        raise GeometryError("negative degree bound")
    rels = mori.wall_relations
    if not rels:
        return ((0,) * len(fan.generators),)
    basis = fan.relation_basis
    rho = len(basis)
    ycoords = [fan.relation_coords(rel) for rel in rels]
    degs = [dot(L, rel) for rel in rels]
    los, his = [], []
    for i in range(rho):
        vals = [Fraction(0)] + [Fraction(bound * y[i], d) for y, d in zip(ycoords, degs)]
        los.append(ceil(min(vals)))
        his.append(floor(max(vals)))
    out = []
    for y in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        beta = tuple(
            sum(y[i] * basis[i][j] for i in range(rho))
            for j in range(len(fan.generators))
        )
        deg = dot(L, beta)
        if deg > bound:
            continue
        if not _cone_member(ycoords, y, len(rels)):
            continue
        out.append((deg, beta))
    out.sort()
    return tuple(beta for _, beta in out)
