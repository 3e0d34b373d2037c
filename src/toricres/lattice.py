"""Exact integer and rational linear algebra, plus small-scale polyhedral geometry.

Everything in this package runs on arbitrary-precision integers and
``fractions.Fraction``; there is no floating point anywhere.  The routines here
are deliberately brute-force: the intended inputs are lattice polytopes and
cones of ambient rank at most 6 with a handful of points, where an exhaustive
subset scan is both fast and easy to trust.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm


Vec = tuple[int, ...]

#: Largest ambient rank the brute-force polyhedral routines accept.
MAX_RANK = 6


class GeometryError(ValueError):
    """An input violates a geometric precondition (dimension, interiority, ...)."""


class InvariantError(RuntimeError):
    """An internal identity that should hold exactly failed to hold."""


# ---------------------------------------------------------------------------
# small vector helpers
# ---------------------------------------------------------------------------

def dot(u, v):
    if len(u) != len(v):
        raise GeometryError("dot product of vectors of different lengths")
    return sum(a * b for a, b in zip(u, v))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u):
    return tuple(-a for a in u)


def primitive_vector(v):
    """Divide an integer vector by the gcd of its entries."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise GeometryError("the zero vector has no primitive representative")
    return tuple(x // g for x in v)


# ---------------------------------------------------------------------------
# integer matrices: Hermite form, kernels, determinants
# ---------------------------------------------------------------------------

def hermite_normal_form(rows):
    """Row Hermite normal form of an integer matrix, zero rows dropped.

    Row operations are unimodular, so the row lattice is preserved; pivots are
    positive and entries above each pivot are reduced into [0, pivot).  The
    result is therefore a canonical basis of the row lattice, which is what
    makes kernel bases comparable across different computations.
    """
    m = [list(r) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, len(m)) if m[i][c] != 0]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: abs(m[i][c]))
            for i in nz:
                if i == i0:
                    continue
                q = m[i][c] // m[i0][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[i0])]
        nz = [i for i in range(r, len(m)) if m[i][c] != 0]
        if not nz:
            continue
        m[r], m[nz[0]] = m[nz[0]], m[r]
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
    return [tuple(row) for row in m[:r]]


def integer_kernel_basis(matrix, ncols=None):
    """Canonical basis of the saturated integer kernel {x in Z^n : A x = 0}.

    ``matrix`` is given as a list of rows.  The returned rows span the full
    lattice of integer solutions (saturation comes for free from unimodular
    row reduction of the transpose) and are in Hermite normal form, so equal
    kernels give equal bases.
    """
    nrows = len(matrix)
    if ncols is None:
        if not matrix:
            raise GeometryError("cannot infer the number of unknowns from an empty matrix")
        ncols = len(matrix[0])
    # The Hermite form of [A^T | I] lists the rows with a nonzero left block
    # first; the right blocks of the rest are the Hermite basis of the kernel.
    aug = [
        [matrix[i][j] for i in range(nrows)] + [int(k == j) for k in range(ncols)]
        for j in range(ncols)
    ]
    return [row[nrows:] for row in hermite_normal_form(aug) if not any(row[:nrows])]


def relations_among(vectors):
    """Basis of the lattice of integer relations sum_i x_i * vectors[i] = 0."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return []
    dim = len(vectors[0])
    matrix = [[v[k] for v in vectors] for k in range(dim)]
    return integer_kernel_basis(matrix, ncols=len(vectors))


def _eliminate(rows, ncols):
    """Fraction-free (Bareiss) row echelon form of integer rows, in place.

    Pivots are searched in the first ``ncols`` columns; any further columns
    (right-hand sides) are carried along.  Returns the pivot columns and the
    sign of the row permutation.  Row k < rank then has its pivot at column
    pivots[k] and the rows from the rank on are zero in the first ``ncols``
    columns.  Every entry stays an integer: after a step each entry right of
    the pivot is a minor of the input, so the division by the previous pivot
    is exact (Bareiss, Math. Comp. 22, 1968).  The last pivot is the minor on
    the pivot rows and columns, the determinant when the matrix is square
    and regular.
    """
    nrows = len(rows)
    pivots = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        right = range(c + 1, len(top))
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[c]
            for j in right:
                row[j] = (row[j] * p - f * top[j]) // prev
            row[c] = 0
        prev = p
        pivots.append(c)
    return pivots, sign


def _integer_rows(rows):
    """Integer copies of rows with integer or Fraction entries.

    Each row is multiplied by the lcm of its denominators, which changes
    neither the rank nor the solutions of a linear system.
    """
    out = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (d // x.denominator) for x in row])
    return out


def _solve(matrix, columns, ncols):
    """Solutions of ``matrix @ x = b``, one per right-hand side b in columns.

    None when some system is inconsistent; GeometryError when a consistent
    system has a free column.
    """
    rows = _integer_rows(
        list(row) + [b[i] for b in columns] for i, row in enumerate(matrix)
    )
    pivots, _ = _eliminate(rows, ncols)
    rank = len(pivots)
    if any(any(row[ncols:]) for row in rows[rank:]):
        return None
    if rank < ncols:
        raise GeometryError("linear system does not have a unique solution")
    last, scaled = _back_substitute(rows, ncols, len(columns))
    return [[Fraction(v, last) for v in y] for y in scaled]


def _back_substitute(rows, ncols, count):
    """(last, integer vectors last * x), one per carried right-hand side.

    ``rows`` is the output of :func:`_eliminate` with ``ncols`` pivots, and
    ``last`` its final pivot.  By Cramer's rule, last * x is an integer
    vector (last = the determinant of the pivot rows), so every division
    below is exact.
    """
    last = rows[ncols - 1][ncols - 1] if ncols else 1
    out = []
    for b in range(ncols, ncols + count):
        y = [0] * ncols
        for k in range(ncols - 1, -1, -1):
            row = rows[k]
            s = last * row[b]
            for j in range(k + 1, ncols):
                s -= row[j] * y[j]
            y[k] = s // row[k]
        out.append(y)
    return last, out


def det_int(matrix):
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise GeometryError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in matrix]
    pivots, sign = _eliminate(a, n)
    return sign * a[n - 1][n - 1] if len(pivots) == n else 0


def adjugate(matrix):
    """Determinant and adjugate of a regular square integer matrix.

    Returns (det, adj) with adj @ matrix = matrix @ adj = det * identity;
    every entry of adj is an integer.  Raises GeometryError when the matrix
    is singular.
    """
    n = len(matrix)
    rows = [[int(x) for x in row] + [int(i == j) for j in range(n)]
            for i, row in enumerate(matrix)]
    pivots, sign = _eliminate(rows, n)
    if len(pivots) < n:
        raise GeometryError("matrix is singular")
    # Column b of last * M^-1 solves M y = last * e_b, and det = sign * last.
    last, columns = _back_substitute(rows, n, n)
    return sign * last, [[sign * columns[b][r] for b in range(n)] for r in range(n)]


def cone_volume(generators):
    """Normalized volume |det| of the cone spanned by k generators in rank k.

    Returns 0 when the generators are linearly dependent.  Passing a number of
    generators different from the ambient rank is an error, not a zero.
    """
    gens = [tuple(v) for v in generators]
    if not gens:
        raise GeometryError("cone_volume needs at least one generator")
    dim = len(gens[0])
    if len(gens) != dim or any(len(v) != dim for v in gens):
        raise GeometryError(
            "cone_volume expects k generators in a rank-k lattice, got "
            f"{len(gens)} generators in rank {dim}"
        )
    return abs(det_int(gens))


def matrix_rank(matrix):
    """Rank of a matrix with integer or Fraction entries, exactly."""
    if not matrix:
        return 0
    rows = _integer_rows(matrix)
    return len(_eliminate(rows, len(rows[0]))[0])


def solve_rational(matrix, rhs):
    """Solve ``matrix @ x = rhs`` exactly over the rationals.

    Returns a list of Fractions, or None when the system is inconsistent.
    Systems with a free column (non-unique solution) raise GeometryError;
    every caller in this package expects a unique solution when one exists.
    """
    if not matrix:
        raise GeometryError("cannot solve an empty system")
    solutions = _solve(matrix, [rhs], len(matrix[0]))
    return None if solutions is None else solutions[0]


def invert_rational(matrix):
    """Exact inverse of a square matrix, as rows of Fractions."""
    n = len(matrix)
    identity = [[int(i == j) for i in range(n)] for j in range(n)]
    columns = _solve(matrix, identity, n)
    if columns is None:
        raise GeometryError("matrix is singular")
    return [list(row) for row in zip(*columns)]


# ---------------------------------------------------------------------------
# exact linear feasibility (Fourier-Motzkin)
# ---------------------------------------------------------------------------

def feasible_point(constraints, nvars):
    """Find a rational point satisfying dot(coeffs, x) + const >= 0 for all rows.

    ``constraints`` is an iterable of (coeffs, const) pairs.  Uses
    Fourier-Motzkin elimination with exact rational arithmetic and returns a
    tuple of Fractions, or None when the system is infeasible.  Intended for
    the desk-scale systems appearing here (a dozen variables at most).
    """
    cons = [
        (tuple(Fraction(c) for c in coeffs), Fraction(const))
        for coeffs, const in constraints
    ]
    for coeffs, _ in cons:
        if len(coeffs) != nvars:
            raise GeometryError("constraint width does not match variable count")
    layers = []
    for v in range(nvars - 1, -1, -1):
        pos = [c for c in cons if c[0][v] > 0]
        neg = [c for c in cons if c[0][v] < 0]
        rest = [c for c in cons if c[0][v] == 0]
        layers.append((v, pos, neg))
        cons = list(rest)
        for pcoef, pconst in pos:
            for ncoef, nconst in neg:
                a, b = pcoef[v], -ncoef[v]
                coef = tuple(b * pc + a * nc for pc, nc in zip(pcoef, ncoef))
                cons.append((coef, b * pconst + a * nconst))
    if any(const < 0 for _, const in cons):
        return None
    x = [Fraction(0)] * nvars
    for v, pos, neg in reversed(layers):
        lo = None
        hi = None
        for coef, const in pos:
            rest = const + sum(coef[u] * x[u] for u in range(v) if coef[u])
            bound = -rest / coef[v]
            if lo is None or bound > lo:
                lo = bound
        for coef, const in neg:
            rest = const + sum(coef[u] * x[u] for u in range(v) if coef[u])
            bound = rest / (-coef[v])
            if hi is None or bound < hi:
                hi = bound
        if lo is not None and hi is not None:
            x[v] = Fraction(0) if lo <= 0 <= hi else (lo + hi) / 2
        elif lo is not None:
            x[v] = lo if lo > 0 else Fraction(0)
        elif hi is not None:
            x[v] = hi if hi < 0 else Fraction(0)
    return tuple(x)


# ---------------------------------------------------------------------------
# facet enumeration and point scans
# ---------------------------------------------------------------------------

def _affine_rank(points):
    if len(points) <= 1:
        return 0
    base = points[0]
    return matrix_rank([vec_sub(p, base) for p in points[1:]])


def _check_rank_limit(dim):
    if dim > MAX_RANK:
        raise GeometryError(
            f"ambient rank {dim} exceeds the supported desk-scale limit {MAX_RANK}"
        )


def facet_inequalities(points):
    """Irredundant facet system of a full-dimensional lattice polytope.

    Returns a sorted list of (normal, offset) pairs with primitive integer
    inward normals: the polytope is {x : dot(normal, x) >= offset}.  Brute
    force over d-subsets of the points; fine for the intended sizes.
    """
    pts = sorted({tuple(int(x) for x in p) for p in points})
    if not pts:
        raise GeometryError("no points given")
    dim = len(pts[0])
    _check_rank_limit(dim)
    if _affine_rank(pts) != dim:
        raise GeometryError("points do not span a full-dimensional polytope")
    facets = set()
    for subset in itertools.combinations(pts, dim):
        base = subset[0]
        diffs = [vec_sub(p, base) for p in subset[1:]]
        if diffs and matrix_rank(diffs) != dim - 1:
            continue
        kernel = integer_kernel_basis(diffs, ncols=dim) if diffs else \
            integer_kernel_basis([], ncols=dim)
        if len(kernel) != 1:
            continue
        w = kernel[0]
        c = dot(w, base)
        vals = [dot(w, p) - c for p in pts]
        if all(v >= 0 for v in vals):
            facets.add((w, c))
        elif all(v <= 0 for v in vals):
            facets.add((vec_neg(w), -c))
    return sorted(facets)


def cone_facet_normals(generators):
    """Facet normals of a full-dimensional pointed cone, sorted.

    The cone is {x : dot(w, x) >= 0 for each returned w}; normals are
    primitive and inward.  Raises when the generators do not span, or when
    the cone contains a line (not pointed).
    """
    gens = sorted({tuple(int(x) for x in g) for g in generators})
    if not gens:
        raise GeometryError("no generators given")
    dim = len(gens[0])
    _check_rank_limit(dim)
    if matrix_rank(gens) != dim:
        raise GeometryError("generators do not span a full-dimensional cone")
    normals = set()
    for subset in itertools.combinations(gens, dim - 1):
        if subset and matrix_rank(subset) != dim - 1:
            continue
        kernel = integer_kernel_basis(list(subset), ncols=dim)
        if len(kernel) != 1:
            continue
        w = kernel[0]
        vals = [dot(w, g) for g in gens]
        if all(v >= 0 for v in vals):
            normals.add(w)
        elif all(v <= 0 for v in vals):
            normals.add(vec_neg(w))
    normals = sorted(normals)
    if matrix_rank(normals) != dim:
        raise GeometryError("cone is not pointed (contains a line)")
    return normals


def lattice_points_in(vertices, facets):
    """All lattice points of the polytope given by vertices + facet system.

    Scans the bounding box of the vertices and filters by the facet
    inequalities; the result is in lexicographic order.
    """
    dim = len(vertices[0])
    los = [min(v[i] for v in vertices) for i in range(dim)]
    his = [max(v[i] for v in vertices) for i in range(dim)]
    out = []
    for p in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        if all(dot(w, p) >= c for w, c in facets):
            out.append(p)
    return out


class LatticePolytope:
    """A full-dimensional lattice polytope, given by any spanning point set."""

    def __init__(self, points):
        pts = sorted({tuple(int(x) for x in p) for p in points})
        if not pts:
            raise GeometryError("a polytope needs at least one point")
        self.dim = len(pts[0])
        self.facets = facet_inequalities(pts)
        # A point is a vertex exactly when its active facet normals span.
        self.vertices = tuple(
            p for p in pts
            if matrix_rank([w for w, c in self.facets if dot(w, p) == c] or [[0] * self.dim])
            == self.dim
        )
        self.lattice_points = tuple(lattice_points_in(self.vertices, self.facets))

    def contains(self, point):
        return all(dot(w, point) >= c for w, c in self.facets)

    def is_reflexive(self):
        """True when every facet inequality is dot(w, x) >= -1 with primitive w."""
        return all(c == -1 for _, c in self.facets)
