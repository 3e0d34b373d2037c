"""Plain Fraction Gauss-Jordan elimination, the reference for lattice.py.

These are the straightforward rational routines the package used before its
fraction-free elimination kernel; the differential tests in test_lattice.py
require the kernel to give exactly their results and errors, and
test_fan.py checks ``Fan.relation_coords`` against one integral solve.
"""

from fractions import Fraction

from toricres.lattice import GeometryError


def reference_rank(matrix):
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][c]
        m[rank] = [a * inv for a in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def reference_solve(matrix, rhs):
    if not matrix:
        raise GeometryError("cannot solve an empty system")
    ncols = len(matrix[0])
    m = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(matrix, rhs)]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [a * inv for a in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if m[i][ncols] != 0:
            return None
    if len(pivots) < ncols:
        raise GeometryError("linear system does not have a unique solution")
    x = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        x[c] = m[row_idx][ncols]
    return x


def reference_solve_integral(matrix, rhs):
    """reference_solve, insisting on an integer solution vector."""
    sol = reference_solve(matrix, rhs)
    if sol is None:
        return None
    if any(x.denominator != 1 for x in sol):
        raise GeometryError("solution exists but is not integral")
    return [int(x) for x in sol]


def reference_inverse(matrix):
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(int(j == i)) for j in range(n)]
         for i, row in enumerate(matrix)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if m[i][c] != 0), None)
        if piv is None:
            raise GeometryError("matrix is singular")
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [a * inv for a in m[r]]
        for i in range(n):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return [row[n:] for row in m]


def reference_det(matrix):
    mat = [[Fraction(x) for x in row] for row in matrix]
    n = len(mat)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            if mat[r][col] == 0:
                continue
            factor = mat[r][col] * inv
            for c in range(col, n):
                mat[r][c] -= factor * mat[col][c]
    return det
