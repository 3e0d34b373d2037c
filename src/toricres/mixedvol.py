"""Mixed volumes of the part polytopes, two ways.

The Cayley generators carry a natural grading by part; slicing the Hessian
expansion along it produces one summand per exponent vector k, and the
residue of the k-component recovers the mixed volume of the dilated parts
with multiplicities k - 1.  Volumes are computed independently by scaling
the part blocks of every cone and interpolating the dilation polynomial on
an integer grid, so the residue identity is checked against straight
determinant arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .lattice import GeometryError, InvariantError, det_int, solve_rational
from .mirror import HessianExpansion, ResidueContext, hessian, rm_series


def graded_hessian_component(cayley, k):
    """The part of the Hessian expansion whose terms use k_j generators of part j.

    ``k`` has one nonnegative entry per part, apexes counting toward their
    own part, with total equal to the Cayley rank.  Components with some
    k_j = 0 are empty: a nondegenerate term has interior exponent, which
    forces every part to appear.
    """
    k = tuple(int(x) for x in k)
    if len(k) != cayley.r:
        raise GeometryError("need one grade entry per part")
    if any(x < 0 for x in k):
        raise GeometryError(f"grade {k} has a negative entry")
    if sum(k) != cayley.fan.rank:
        raise GeometryError(
            f"grade total {sum(k)} differs from the Cayley rank {cayley.fan.rank}"
        )
    full = hessian(cayley.fan)
    kept = []
    for J, coeff, point in full.terms:
        grade = [0] * cayley.r
        for i in J:
            grade[cayley.gen_part[i]] += 1
        if tuple(grade) == k:
            kept.append((J, coeff, point))
    return HessianExpansion(terms=tuple(kept), n=full.n)


@dataclass(frozen=True)
class MixedResidueResult:
    """Residue of a graded Hessian component plus its vanishing evidence."""

    k: tuple
    value: Fraction
    table: object            # the underlying series table
    violations: tuple        # nonzero coefficients at nonzero classes

    @property
    def ok(self):
        return not self.violations


def mixed_residue(cayley, k, bound, v0=None):
    """Series of the k-graded Hessian component; only the constant term survives.

    The residue value is the coefficient at the zero class; coefficients at
    any other enumerated class are reported as violations (there should be
    none).
    """
    component = graded_hessian_component(cayley, k)
    ctx = ResidueContext(cayley.fan, v0)
    table = rm_series(ctx, component.polynomial(), bound)
    zero = (0,) * len(cayley.fan.generators)
    violations = tuple(
        (beta, coeff) for beta, coeff in table.entries
        if beta != zero and coeff != 0
    )
    return MixedResidueResult(
        k=tuple(int(x) for x in k),
        value=table.coefficient(zero),
        table=table,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# volumes by determinant arithmetic
# ---------------------------------------------------------------------------

def _cone_grade(cayley, cone):
    """How many non-apex generators of each part a maximal cone uses."""
    grade = [0] * cayley.r
    for i in cone:
        if i < cayley.apex_offset:
            grade[cayley.gen_part[i]] += 1
    return tuple(grade)


def _dilated_volume(cayley, c):
    """Volume of the Cayley cone triangulation with part j scaled by c_j."""
    total = 0
    for cone in cayley.fan.max_cones:
        rows = []
        for i in cone:
            gen = cayley.fan.generators[i]
            if i < cayley.apex_offset:
                factor = c[cayley.gen_part[i]]
                rows.append(
                    tuple(factor * x for x in gen[:cayley.dim_bar])
                    + gen[cayley.dim_bar:]
                )
            else:
                rows.append(gen)
        value = det_int(rows)
        if value == 0:
            raise InvariantError(f"cone {cone} degenerates under dilation {c}")
        total += abs(value)
    return total


def _volume_monomials(cayley):
    """Exponent vectors of the dilation polynomial: nonnegative, total dim."""
    return sorted(
        k for k in itertools.product(*(range(cayley.dim_bar + 1),) * cayley.r)
        if sum(k) == cayley.dim_bar
    )


def mixed_volume_table(cayley):
    """All mixed volumes, computed twice and compared.

    Route one reads the grade of every maximal cone and adds its volume to
    the matching entry.  Route two evaluates the dilated volume on the grid
    {1..dim+1}^r and solves for the polynomial coefficients.  The two tables
    must agree exactly.
    """
    if getattr(cayley, "_mixed_volume_table", None) is not None:
        return cayley._mixed_volume_table

    monomials = _volume_monomials(cayley)
    by_grade = {k: Fraction(0) for k in monomials}
    for cone, vol in cayley.fan.volumes.items():
        by_grade[_cone_grade(cayley, cone)] += vol

    nodes = itertools.product(
        *(range(1, cayley.dim_bar + 2),) * cayley.r
    )
    matrix = []
    rhs = []
    for c in nodes:
        matrix.append([_power_product(c, k) for k in monomials])
        rhs.append(_dilated_volume(cayley, c))
    coeffs = solve_rational(matrix, rhs)
    if coeffs is None:
        raise InvariantError("the dilated volume is not a polynomial of the "
                             "expected degrees")
    interpolated = dict(zip(monomials, coeffs))

    for k in monomials:
        if by_grade[k] != interpolated[k]:
            raise InvariantError(
                f"mixed volume mismatch at {k}: cone grading gives "
                f"{by_grade[k]}, interpolation gives {interpolated[k]}"
            )
    table = {k: by_grade[k] for k in monomials}
    cayley._mixed_volume_table = table
    return table


def _power_product(c, k):
    out = 1
    for base, exp in zip(c, k):
        out *= base ** exp
    return out


def mixed_volume(cayley, kbar):
    """Normalized mixed volume with part j taken kbar_j times."""
    kbar = tuple(int(x) for x in kbar)
    if len(kbar) != cayley.r:
        raise GeometryError("need one multiplicity per part")
    if any(x < 0 for x in kbar):
        raise GeometryError(f"multiplicities {kbar} must be nonnegative")
    if sum(kbar) != cayley.dim_bar:
        raise GeometryError(
            f"multiplicities {kbar} must total the base dimension "
            f"{cayley.dim_bar}"
        )
    return mixed_volume_table(cayley)[kbar]


# ---------------------------------------------------------------------------
# the theorem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixedVolumeReport:
    """Residue-equals-volume outcomes, one row per admissible grade."""

    rows: tuple  # of (k, residue value, volume value, vanishing ok)

    @property
    def ok(self):
        return all(res == vol and clean for _, res, vol, clean in self.rows)


def verify_mixed_volume_theorem(cayley, bound, v0=None):
    """Check residue(k-component) = mixed volume at k - 1, for every k >= 1.

    Grades run over the positive vectors with total equal to the Cayley
    rank, in lexicographic order.
    """
    rank = cayley.fan.rank
    rows = []
    for k in sorted(
        k for k in itertools.product(*(range(1, rank + 1),) * cayley.r)
        if sum(k) == rank
    ):
        result = mixed_residue(cayley, k, bound, v0)
        volume = mixed_volume(cayley, tuple(x - 1 for x in k))
        rows.append((k, result.value, volume, result.ok))
    return MixedVolumeReport(rows=tuple(rows))
