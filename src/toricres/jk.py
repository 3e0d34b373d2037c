"""Jeffrey-Kirwan residues on complete simplicial fans, plus Brion evaluation.

A ``JKEngine`` is built from one complete ``Fan`` (a completion, or the base
fan of a nef partition) and reads the cone volumes that fan has cached.
The residue acts on Laurent monomials in one coordinate per fan generator,
viewed as rational functions on the relation space of the generators.  A
basic fraction 1/prod_{i in I} x_i whose denominator forms are a basis
evaluates to 1/Vol(sigma) when the complementary generators span a maximal
cone sigma of the fan, and to 0 otherwise; everything else reduces to basic
fractions by rewriting one numerator variable at a time against a basis
chosen from the denominator support.  The reduction involves choices; the
result provably does not depend on them, and a seeded tie-break mode exists
so tests can assert exactly that.

Brion evaluation (``evaluate_top_class``) is the independent route: it sums
a top-degree class, given as a product of (polynomial, power) factors, over
the maximal cones of a ``Fan`` at the dual-basis coordinates of a generic
point, solving for each cone's coordinates and using the cone volumes and
the wall check the fan has cached.  It is also the reference for the
structured pushout sum ``mpcayley.mp_evaluate``, which shares its degree
check (``zero_top_class``), its seeded points (``generic_point``, one per
attempt) and its pole retries and constancy check (``brion_constant``).
"""

from __future__ import annotations

import itertools
import logging
import random
from fractions import Fraction

from .lattice import (
    GeometryError,
    InvariantError,
    matrix_rank,
    relations_among,
    solve_rational,
)
from .poly import poly_eval

log = logging.getLogger(__name__)

#: Hard cap on worklist expansions per residue computation.
MAX_TERMS = 10**6


class LexTieBreak:
    """Deterministic choices: smallest numerator index, lex-first basis."""

    def numerator_index(self, candidates):
        return candidates[0]

    def basis_order(self, subsets):
        return subsets


class SeededTieBreak:
    """Randomized but reproducible choices, for independence testing only."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def numerator_index(self, candidates):
        return self.rng.choice(candidates)

    def basis_order(self, subsets):
        subsets = list(subsets)
        self.rng.shuffle(subsets)
        return subsets


class JKEngine:
    """Residue calculator bound to one complete simplicial fan.

    ``fan`` is a complete :class:`~toricres.fan.Fan`; the cone volumes are
    its cached ``volumes``, which raise on a degenerate cone.
    """

    def __init__(self, fan):
        if not fan.is_complete:
            raise GeometryError("the residue engine needs a complete fan")
        self.generators = fan.generators
        self.max_cones = fan.max_cones
        self.n = len(self.generators)
        self.kernel, self.forms = restricted_forms(self.generators)
        self.dim = len(self.kernel)
        self._cone_lookup = {
            frozenset(cone): vol for cone, vol in fan.volumes.items()
        }

    # -- basic fractions ----------------------------------------------------

    def basic_value(self, support):
        """Value of 1/prod_{i in support} x_i when the support forms a basis."""
        support = sorted(support)
        if len(support) != self.dim:
            raise GeometryError(
                f"basic fraction needs {self.dim} denominator indices, got {len(support)}"
            )
        if matrix_rank([self.forms[i] for i in support]) != self.dim:
            raise GeometryError(
                "denominator forms are linearly dependent; not a basic fraction"
            )
        complement = frozenset(range(self.n)) - frozenset(support)
        vol = self._cone_lookup.get(complement)
        return Fraction(0) if vol is None else Fraction(1, vol)

    # -- general monomials --------------------------------------------------

    def residue(self, exponents, tie_break=None):
        """Residue of the Laurent monomial prod x_i^{exponents[i]}.

        The total degree must be -dim of the relation space.  All arithmetic
        is exact; the answer is independent of the tie-break strategy.
        """
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != self.n:
            raise GeometryError("exponent vector length does not match generator count")
        if self.dim == 0:
            raise GeometryError("the relation space is trivial; no residue to take")
        if sum(exponents) != -self.dim:
            raise GeometryError(
                f"residue needs total degree {-self.dim}, got {sum(exponents)}"
            )
        chooser = tie_break or LexTieBreak()
        num = tuple(max(e, 0) for e in exponents)
        den = tuple(max(-e, 0) for e in exponents)
        work = [(Fraction(1), num, den)]
        total = Fraction(0)
        steps = 0
        while work:
            steps += 1
            if steps > MAX_TERMS:
                raise InvariantError("residue worklist exceeded the term cap")
            coeff, num, den = work.pop()
            if coeff == 0:
                continue
            support = [i for i, e in enumerate(den) if e > 0]
            if matrix_rank([self.forms[i] for i in support]) < self.dim:
                continue  # degenerate: denominator forms do not span
            positives = [j for j, e in enumerate(num) if e > 0]
            if not positives:
                # Constant numerator; the degree bookkeeping forces a basic
                # fraction here (all denominator exponents are one).
                total += coeff * self.basic_value(support)
                continue
            j = chooser.numerator_index(positives)
            basis = self._pick_basis(support, chooser)
            mat = [[self.forms[b][k] for b in basis] for k in range(self.dim)]
            sol = solve_rational(mat, self.forms[j])
            if sol is None:
                raise InvariantError("basis solve failed for a spanning subset")
            num_child = tuple(e - int(i == j) for i, e in enumerate(num))
            for b, c in zip(basis, sol):
                if c == 0:
                    continue
                den_child = tuple(e - int(i == b) for i, e in enumerate(den))
                work.append((coeff * c, num_child, den_child))
        return total

    def residue_of_terms(self, terms):
        """Sum of residues over (coefficient, exponent vector) pairs."""
        total = Fraction(0)
        for coeff, exps in terms:
            coeff = Fraction(coeff)
            if coeff:
                total += coeff * self.residue(exps)
        return total

    def _pick_basis(self, support, chooser):
        subsets = itertools.combinations(sorted(support), self.dim)
        for subset in chooser.basis_order(list(subsets)):
            if matrix_rank([self.forms[i] for i in subset]) == self.dim:
                return subset
        raise InvariantError("no basis found in a spanning denominator support")


def restricted_forms(generators):
    """Per-generator linear forms on the relation space, plus its basis.

    Returns (kernel_basis, forms); the identity sum_i <w, v_i> x_i|_R = 0
    holds for every dual vector w, which callers use as a self-check.
    Restricting the i-th coordinate to the relation space, written in
    kernel-basis coordinates, is just the i-th column of the basis.
    """
    kernel = tuple(relations_among(generators))
    forms = tuple(tuple(row[i] for row in kernel) for i in range(len(generators)))
    return kernel, forms


def jk_basic(engine, indices):
    """Spec surface: value of the basic fraction with the given denominator."""
    return engine.basic_value(indices)


def jk_residue(engine, exponents, tie_break=None):
    """Spec surface: residue of a Laurent monomial exponent vector."""
    return engine.residue(exponents, tie_break=tie_break)


# ---------------------------------------------------------------------------
# Brion evaluation of top-degree cohomology products
# ---------------------------------------------------------------------------

#: Generic points tried before a Brion sum gives up; each attempt hits a
#: pole with small probability, so running out means a bug, not bad luck.
MAX_POINT_ATTEMPTS = 100


def generic_point(attempt, rank):
    """The generic point of a Brion sum's ``attempt``-th try (from 0 on).

    Coordinates are drawn in [1, 10^4) from ``random.Random(attempt)``, so
    every Brion sum in the package sees the same points in the same order.
    """
    if attempt >= MAX_POINT_ATTEMPTS:
        raise InvariantError("ran out of generic evaluation points")
    rng = random.Random(attempt)
    return [rng.randrange(1, 10**4) for _ in range(rank)]


def zero_top_class(factors, rank):
    """Whether a factored class is zero; otherwise check that it is top-degree.

    ``factors`` lists (polynomial, power) pairs.  A class with an empty
    (zero) factor is zero, whatever the other factors are.  Otherwise each
    polynomial must be homogeneous and the powers times the degrees must add
    up to ``rank``; GeometryError if not.
    """
    if any(not poly for poly, _ in factors):
        return True
    degree = 0
    for poly, power in factors:
        degrees = {sum(exps) for exps in poly}
        if len(degrees) != 1:
            raise GeometryError(
                f"class factor is not homogeneous: degrees {sorted(degrees)}"
            )
        degree += power * degrees.pop()
    if degree != rank:
        raise GeometryError(f"class has degree {degree}, expected {rank}")
    return False


def brion_constant(rank, brion_sum):
    """The value of a Brion sum, which must not depend on the generic point.

    ``brion_sum(point)`` sums over the maximal cones at one point of
    :func:`generic_point`, or returns None when the point hits a pole (a
    cone coordinate equal to zero); the next point is then tried.  The sums
    at two points must agree exactly, and that constancy is asserted.
    """
    values = []
    attempt = 0
    while len(values) < 2:
        total = brion_sum(generic_point(attempt, rank))
        attempt += 1
        if total is None:
            log.debug("generic point %d hit a pole; retrying", attempt - 1)
            continue
        values.append(total)
    if values[0] != values[1]:
        raise InvariantError(
            "Brion sum is not constant across generic points; the class is "
            f"not in the boundary-vanishing algebra ({values[0]} vs {values[1]})"
        )
    return values[0]


def evaluate_top_class(fan, factors, allow_incomplete=False):
    """Evaluate a top-degree product of polynomials in the generator classes.

    ``fan`` is a :class:`~toricres.fan.Fan`.  ``factors`` lists (polynomial,
    power) pairs; each polynomial maps exponent tuples (one slot per
    generator) to rational coefficients and must be homogeneous, and the
    powers times the degrees must add up to the ambient rank
    (:func:`zero_top_class`).  A single polynomial P is passed as
    ``[(P, 1)]``.  Evaluation sums, over maximal cones, the product of the
    factors at the cone's dual-basis coordinates of a generic rational
    point, divided by the product of those coordinates times the cone
    volume; every cone's coordinates come from its own exact solve.  The
    volumes and the wall check are the fan's own cached ones.  Points,
    pole retries and the constancy check are :func:`brion_constant`'s.
    """
    rank = fan.rank
    if zero_top_class(factors, rank):
        return Fraction(0)
    if not allow_incomplete and not fan.is_complete:
        raise GeometryError(
            "fan is not complete; pass allow_incomplete=True only for "
            "classes vanishing on the boundary"
        )
    fan.interior_walls  # cached: raises on a wall not shared by two cones
    vols = fan.volumes  # cached: raises on a degenerate cone
    mats = {
        cone: [[fan.generators[i][k] for i in cone] for k in range(rank)]
        for cone in fan.max_cones
    }

    def brion_sum(point):
        total = Fraction(0)
        for cone in fan.max_cones:
            coords = solve_rational(mats[cone], point)
            if any(c == 0 for c in coords):
                return None
            vals = [Fraction(0)] * len(fan.generators)
            term = Fraction(1, vols[cone])
            for i, c in zip(cone, coords):
                vals[i] = c
                term /= c
            for poly, power in factors:
                term *= poly_eval(poly, vals) ** power
            total += term
        return total

    return brion_constant(rank, brion_sum)
