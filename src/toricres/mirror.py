"""Residue mirror machinery on the semigroup-ring side.

A triangulated polytope at height one gives a fan whose generators index both
the parameters a_i and the cohomology-side variables x_i.  This module holds
the pieces that live between the two: the Hessian expansion of f = sum a_i
t^{v_i}, the residue mirror map sending monomials of the interior ideal to
Laurent series with Jeffrey-Kirwan coefficients, verifiers for the ideal
vanishing and Hessian normalization identities, and an independent Artinian
oracle that computes the toric residue at specialized rational parameters by
plain linear algebra on graded pieces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .fan import complete, enumerate_effective
from .jk import JKEngine
from .lattice import (
    GeometryError,
    InvariantError,
    cone_volume,
    dot,
    integer_kernel_basis,
    solve_rational,
    vec_add,
)


class ResidueContext:
    """A fan over a triangulated polytope, completed, with its residue engine.

    Everything the mirror-map computations need travels together: the base
    fan (for interiority tests, Mori data and degrees), the chosen completion
    (index 0 is the extra ray) and the Jeffrey-Kirwan engine on it.
    """

    def __init__(self, fan, v0=None, ample=None):
        self.fan = fan
        self.completed = complete(fan, v0)
        self.engine = JKEngine(self.completed)
        self.ample = tuple(ample) if ample is not None else fan.lifting
        if self.ample is None:
            raise GeometryError(
                "no degree functional available: pass ample= or build the fan "
                "from a triangulation with a lifting certificate"
            )

    @property
    def n(self):
        return len(self.fan.generators)

    @property
    def rank(self):
        return self.fan.rank

    @property
    def v0(self):
        """The completion ray: generator 0 of the completed fan."""
        return self.completed.generators[0]

    def push(self, exps):
        """Image of a Z^n exponent vector under e_i -> v_i."""
        point = (0,) * self.rank
        for e, v in zip(exps, self.fan.generators):
            if e:
                point = vec_add(point, tuple(e * x for x in v))
        return point

    def is_interior_point(self, point):
        return all(dot(w, point) > 0 for w in self.fan.support_facets)

    def effective_classes(self, bound):
        return enumerate_effective(self.fan, bound, self.ample)

    def degree(self, beta):
        return dot(self.ample, beta)


# ---------------------------------------------------------------------------
# the Hessian expansion
# ---------------------------------------------------------------------------

def gamma_weight_vector(fan, gamma):
    """The dual vector w with (w, v_i) = 1/gamma_i, or an error if none exists.

    Existence of this vector is what makes a weight tuple admissible for the
    weighted Hessian identity.
    """
    gamma = [Fraction(g) for g in gamma]
    if len(gamma) != len(fan.generators):
        raise GeometryError("need one weight per generator")
    if any(g <= 0 for g in gamma):
        raise GeometryError("weights must be positive")
    rows = [list(v) for v in fan.generators]
    rhs = [1 / g for g in gamma]
    w = solve_rational(rows, rhs)
    if w is None:
        raise GeometryError("no dual vector realizes these weights")
    return tuple(w)


@dataclass(frozen=True)
class HessianExpansion:
    """Terms (J, Vol(J)^2 * gamma^J) of the Hessian of sum a_i gamma_i t^{v_i}.

    Each term also records its t-exponent (the sum of the generators in J);
    the a-exponent is the indicator vector of J.  Only nondegenerate subsets
    appear, and each stored t-exponent is interior to the support cone.
    """

    terms: tuple  # of (J: sorted index tuple, coefficient: Fraction, t_exponent)
    n: int

    def polynomial(self):
        """The expansion as a sparse polynomial in the x_i (indicator exponents)."""
        poly = {}
        for J, coeff, _ in self.terms:
            exps = [0] * self.n
            for i in J:
                exps[i] = 1
            poly[tuple(exps)] = poly.get(tuple(exps), Fraction(0)) + coeff
        return poly


def hessian(fan, gamma=None):
    """Hessian expansion over all rank-sized generator subsets of the fan.

    ``gamma`` is an optional positive weight per generator (validated via the
    dual-vector criterion); omitted means all ones.
    """
    n = len(fan.generators)
    rank = fan.rank
    if fan.support_facets is None:
        raise GeometryError("the Hessian expansion needs a fan with a support cone")
    if n < rank:
        raise GeometryError(
            f"cannot form the Hessian: {n} generators but rank-{rank} subsets required"
        )
    if gamma is not None:
        gamma = [Fraction(g) for g in gamma]
        gamma_weight_vector(fan, gamma)
    terms = []
    for J in itertools.combinations(range(n), rank):
        vol = cone_volume([fan.generators[i] for i in J])
        if vol == 0:
            continue
        point = (0,) * rank
        for i in J:
            point = vec_add(point, fan.generators[i])
        if not all(dot(w, point) > 0 for w in fan.support_facets):
            raise InvariantError(
                f"Hessian term {J} has volume {vol} but non-interior exponent {point}"
            )
        coeff = Fraction(vol * vol)
        if gamma is not None:
            for i in J:
                coeff *= gamma[i]
        terms.append((J, coeff, point))
    return HessianExpansion(terms=tuple(terms), n=n)


# ---------------------------------------------------------------------------
# the residue mirror map
# ---------------------------------------------------------------------------

def rm_coefficient(ctx, m0, beta, tie_break=None):
    """Series coefficient at class ``beta`` for the monomial with lift ``m0``.

    ``m0`` is a nonnegative integer vector over the fan generators with total
    degree equal to the rank and interior image; ``beta`` is any relation
    among the generators.  The value is the Jeffrey-Kirwan residue of the
    monomial with exponent -1 on the completion ray and m0_i - beta_i - 1 on
    generator i.
    """
    m0 = tuple(int(e) for e in m0)
    if len(m0) != ctx.n:
        raise GeometryError("exponent vector length does not match generator count")
    if any(e < 0 for e in m0):
        raise GeometryError(f"monomial exponent {m0} has a negative entry")
    if sum(m0) != ctx.rank:
        raise GeometryError(
            f"monomial degree {sum(m0)} differs from the rank {ctx.rank}"
        )
    if not ctx.is_interior_point(ctx.push(m0)):
        raise GeometryError(
            f"monomial {m0} maps to {ctx.push(m0)}, which is not interior "
            "to the support cone"
        )
    beta = tuple(int(b) for b in beta)
    if not ctx.fan.is_relation(beta):
        raise GeometryError(f"{beta} is not a relation among the generators")
    exps = (-1,) + tuple(m - b - 1 for m, b in zip(m0, beta))
    return ctx.engine.residue(exps, tie_break=tie_break)


def validate_polynomial(ctx, P):
    """Check a series input polynomial; returns it cleaned, raises otherwise.

    Every monomial must have nonnegative exponents, degree equal to the rank
    and an image interior to the support cone; zero terms are dropped.
    """
    clean = {}
    for exps, coeff in P.items():
        coeff = Fraction(coeff)
        if coeff == 0:
            continue
        exps = tuple(int(e) for e in exps)
        if len(exps) != ctx.n:
            raise GeometryError(f"monomial {exps} has the wrong number of variables")
        if any(e < 0 for e in exps):
            raise GeometryError(f"monomial {exps} has a negative exponent")
        if sum(exps) != ctx.rank:
            raise GeometryError(
                f"monomial {exps} has degree {sum(exps)}, expected {ctx.rank}"
            )
        if not ctx.is_interior_point(ctx.push(exps)):
            raise GeometryError(
                f"monomial {exps} maps outside the interior of the support cone"
            )
        clean[exps] = coeff
    return clean


@dataclass(frozen=True)
class SeriesTable:
    """Laurent-series coefficients by effective class, with run metadata.

    ``entries`` holds every enumerated class up to the bound, zeros included,
    ordered by (degree, lex); coefficients are exact rationals.
    """

    entries: tuple  # of (beta, Fraction)
    bound: int
    ample: tuple
    v0: tuple

    def coefficient(self, beta):
        beta = tuple(beta)
        for b, c in self.entries:
            if b == beta:
                return c
        raise KeyError(f"class {beta} is not in the enumerated table")

    def classes(self):
        return tuple(b for b, _ in self.entries)

    def nonzero(self):
        return tuple((b, c) for b, c in self.entries if c != 0)


def rm_series(ctx, P, bound):
    """Series table of a degree-rank polynomial in the generator variables.

    The coefficient at class beta sums rm_coefficient over the monomials of
    P; each monomial must individually map to an interior point (distinct
    monomials carry distinct parameter prefactors, so no cross-monomial
    cancellation could repair a non-interior part).
    """
    P = validate_polynomial(ctx, P)
    rows = []
    for beta in ctx.effective_classes(bound):
        total = Fraction(0)
        for exps, coeff in sorted(P.items()):
            total += coeff * rm_coefficient(ctx, exps, beta)
        rows.append((beta, total))
    return SeriesTable(
        entries=tuple(rows), bound=bound, ample=tuple(ctx.ample), v0=ctx.v0
    )


def series_value(table, a, bound=None):
    """Evaluate a series table at rational parameter values (partial sum).

    ``a`` takes one value per class coordinate; with ``bound`` set, only the
    classes of degree at most ``bound`` (under the table's ample vector)
    contribute, which gives the truncated partial sums.
    """
    a = [Fraction(x) for x in a]
    total = Fraction(0)
    for beta, coeff in table.entries:
        if coeff == 0:
            continue
        if bound is not None:
            degree = sum(h * b for h, b in zip(table.ample, beta))
            if degree > bound:
                continue
        term = coeff
        for ai, bi in zip(a, beta):
            term *= ai ** bi
        total += term
    return total


# ---------------------------------------------------------------------------
# identity verifiers
# ---------------------------------------------------------------------------

def verify_ideal_vanishing(ctx, w, lift, bound):
    """True iff multiplying t^{pi(lift)} by the w-derivative maps to zero.

    ``lift`` is a nonnegative vector over the generators of degree rank-1
    whose image is interior; the linear combination sum_i (w, v_i) x_i then
    lands in the ideal the mirror map kills.  Checked exactly on every
    effective class up to the bound.
    """
    lift = tuple(int(e) for e in lift)
    if any(e < 0 for e in lift) or sum(lift) != ctx.rank - 1:
        raise GeometryError(
            f"lift {lift} must be nonnegative of degree {ctx.rank - 1}"
        )
    if not ctx.is_interior_point(ctx.push(lift)):
        raise GeometryError(f"lift {lift} does not map to an interior point")
    pairings = [dot(w, v) for v in ctx.fan.generators]
    for beta in ctx.effective_classes(bound):
        total = Fraction(0)
        for i, pairing in enumerate(pairings):
            if pairing == 0:
                continue
            m0 = tuple(e + int(k == i) for k, e in enumerate(lift))
            total += pairing * rm_coefficient(ctx, m0, beta)
        if total != 0:
            return False
    return True


@dataclass(frozen=True)
class HessianReport:
    """Outcome of the weighted Hessian normalization check."""

    expected: Fraction      # sum over maximal cones of Vol * gamma^cone
    constant_term: Fraction  # series coefficient at beta = 0
    violations: tuple        # (beta, coefficient) pairs that should vanish

    @property
    def ok(self):
        return self.constant_term == self.expected and not self.violations


def verify_hessian_identity(ctx, gamma=None, bound=4):
    """Check RM(Hessian) = sum_sigma Vol(sigma) gamma^sigma, rest vanishing."""
    expansion = hessian(ctx.fan, gamma)
    table = rm_series(ctx, expansion.polynomial(), bound)
    if gamma is None:
        expected = Fraction(ctx.fan.total_volume)
    else:
        gamma = [Fraction(g) for g in gamma]
        expected = Fraction(0)
        for cone, vol in ctx.fan.volumes.items():
            term = Fraction(vol)
            for i in cone:
                term *= gamma[i]
            expected += term
    violations = tuple(
        (beta, coeff) for beta, coeff in table.entries
        if any(beta) and coeff != 0
    )
    constant = table.coefficient((0,) * ctx.n)
    return HessianReport(
        expected=expected, constant_term=constant, violations=violations
    )


# ---------------------------------------------------------------------------
# the Artinian oracle
# ---------------------------------------------------------------------------

def interior_points_at_height(fan, height):
    """Interior lattice points of the support cone at the given degree.

    Degree is the pairing with the fan's height vector (one on every
    generator); the scan covers the box spanned by height * generators.
    """
    if fan.height_dual is None:
        raise GeometryError("fan has no height vector")
    rank = fan.rank
    los = [min(height * g[k] for g in fan.generators) for k in range(rank)]
    his = [max(height * g[k] for g in fan.generators) for k in range(rank)]
    out = []
    for p in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        if dot(fan.height_dual, p) != height:
            continue
        if all(dot(w, p) > 0 for w in fan.support_facets):
            out.append(p)
    return out


def ideal_element(P, a, fan):
    """Specialize P(a_1 t^{v_1}, ...) to explicit parameters.

    Returns (coefficient, lattice point) rows over the interior monomials at
    degree rank, combining x-monomials that map to the same point.
    """
    a = [Fraction(x) for x in a]
    combined = {}
    for exps, coeff in P.items():
        coeff = Fraction(coeff)
        point = (0,) * fan.rank
        for e, (ai, v) in zip(exps, zip(a, fan.generators)):
            if e:
                coeff *= ai ** e
                point = vec_add(point, tuple(e * x for x in v))
        combined[point] = combined.get(point, Fraction(0)) + coeff
    return tuple(
        (c, m) for m, c in sorted(combined.items()) if c != 0
    )


def artinian_residue(fan, a, g):
    """Toric residue of g at explicit parameter values, by linear algebra.

    ``g`` is an iterable of (coefficient, lattice point) pairs with every
    point interior of degree rank.  The residue is computed directly from
    its definition: inside the degree-rank piece of the interior ideal, the
    span W of (derivative elements) x (degree rank-1 interior monomials) has
    codimension one when the parameters are regular; a functional vanishing
    on W sends the Hessian to something nonzero, and the residue of g is
    Vol(polytope) times the ratio of the two functional values.
    """
    a = [Fraction(x) for x in a]
    if len(a) != len(fan.generators):
        raise GeometryError("need one parameter value per generator")
    rank = fan.rank
    top = interior_points_at_height(fan, rank)
    below = interior_points_at_height(fan, rank - 1)
    if not top:
        raise GeometryError("the interior ideal is trivial in the top degree")
    index = {m: k for k, m in enumerate(top)}

    spanning = []
    for w in ((int(i == k) for i in range(rank)) for k in range(rank)):
        w = tuple(w)
        for m in below:
            row = [Fraction(0)] * len(top)
            for ai, v in zip(a, fan.generators):
                pairing = dot(w, v)
                if pairing == 0 or ai == 0:
                    continue
                point = vec_add(m, v)
                row[index[point]] += pairing * ai
            spanning.append(row)

    hess = [Fraction(0)] * len(top)
    for J, coeff, point in hessian(fan).terms:
        term = coeff
        for i in J:
            term *= a[i]
        hess[index[point]] += term

    # A functional vanishing on W: the right kernel of the stacked rows.
    scaled = []
    for row in spanning:
        denom = lcm(*(x.denominator for x in row))
        scaled.append([int(x * denom) for x in row])
    kernel = integer_kernel_basis(scaled, ncols=len(top))
    if len(kernel) != 1:
        raise GeometryError(
            "parameters are not regular: the derivative span has codimension "
            f"{len(kernel)}, expected 1; try a different specialization"
        )
    phi = kernel[0]
    denom = dot(phi, hess)
    if denom == 0:
        raise GeometryError(
            "parameters are degenerate: the Hessian reduces to zero; "
            "try a different specialization"
        )
    numer = Fraction(0)
    for coeff, point in g:
        coeff = Fraction(coeff)
        point = tuple(point)
        if point not in index:
            raise GeometryError(
                f"{point} is not an interior lattice point of degree {rank}"
            )
        numer += coeff * phi[index[point]]
    return numer / denom * fan.total_volume
