"""Exact linear algebra and polyhedral primitives.

Fixed expected values are hand-checkable 2x2/3x3 computations; the property
tests exercise the algebraic identities the rest of the package leans on
(kernels annihilate, inverses invert, Hermite forms span the same lattice).
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricres import (
    GeometryError,
    LatticePolytope,
    cone_volume,
    facet_inequalities,
    hermite_normal_form,
    integer_kernel_basis,
    primitive_vector,
    relations_among,
)
from toricres.lattice import (
    adjugate,
    cone_facet_normals,
    det_int,
    dot,
    feasible_point,
    invert_rational,
    lattice_points_in,
    matrix_rank,
    solve_rational,
    vec_add,
    vec_sub,
)

from gauss_jordan_reference import (
    reference_det,
    reference_inverse,
    reference_rank,
    reference_solve,
    reference_solve_integral,
)

ints = st.integers(min_value=-9, max_value=9)


def matrices(rows, cols):
    return st.lists(
        st.tuples(*([ints] * cols)), min_size=rows, max_size=rows
    ).map(tuple)


# ---------------------------------------------------------------------------
# vectors and determinants
# ---------------------------------------------------------------------------

def test_vector_arithmetic_roundtrip():
    u, v = (3, -1, 2), (1, 4, -2)
    assert vec_sub(vec_add(u, v), v) == u
    assert dot(u, v) == 3 - 4 - 4


def test_dot_rejects_length_mismatch():
    with pytest.raises(GeometryError):
        dot((1, 2), (1, 2, 3))


def test_primitive_vector_divides_by_gcd():
    assert primitive_vector((2, -4)) == (1, -2)
    assert primitive_vector((-2, -4)) == (-1, -2)  # direction is preserved
    assert primitive_vector((0, 7, 0)) == (0, 1, 0)
    with pytest.raises(GeometryError):
        primitive_vector((0, 0))


@given(st.tuples(ints, ints, ints).filter(lambda v: any(v)))
def test_primitive_vector_is_primitive_and_parallel(v):
    p = primitive_vector(v)
    g = gcd(gcd(abs(p[0]), abs(p[1])), abs(p[2]))
    assert g == 1
    # v is a positive integer multiple of p
    scale = max(abs(a) for a in v) // max(abs(a) for a in p)
    assert any(tuple(c * a for a in p) == tuple(v) for c in range(1, scale + 1))


def test_det_int_known_values():
    assert det_int([(1, 2), (3, 4)]) == -2
    assert det_int([(2, 0, 0), (0, 3, 0), (0, 0, 4)]) == 24
    assert det_int([(1, 2), (2, 4)]) == 0


@given(matrices(3, 3), matrices(3, 3))
@settings(max_examples=50)
def test_det_int_is_multiplicative(a, b):
    prod = tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )
    assert det_int(prod) == det_int(a) * det_int(b)


# ---------------------------------------------------------------------------
# Hermite form, kernels, solving
# ---------------------------------------------------------------------------

def test_hermite_normal_form_examples():
    assert hermite_normal_form([(2, 4), (1, 1)]) == [(1, 1), (0, 2)]
    assert hermite_normal_form([(2, 4, 6), (1, 1, 1)]) == [(1, 1, 1), (0, 2, 4)]


@given(matrices(3, 4), st.permutations([0, 1, 2]), ints)
@settings(max_examples=50)
def test_hermite_normal_form_is_a_lattice_invariant(rows, perm, k):
    # the HNF is canonical: unimodular row operations leave it unchanged
    base = hermite_normal_form(list(rows))
    shuffled = [rows[i] for i in perm]
    assert hermite_normal_form(shuffled) == base
    bumped = [list(r) for r in rows]
    bumped[0] = [a + k * b for a, b in zip(bumped[0], rows[1])]
    assert hermite_normal_form([tuple(r) for r in bumped]) == base
    # idempotence: re-reducing the form is a no-op
    assert hermite_normal_form(base) == base


def test_integer_kernel_basis_annihilates():
    basis = integer_kernel_basis([(1, 1, 1)])
    assert len(basis) == 2
    for row in basis:
        assert dot(row, (1, 1, 1)) == 0


@given(matrices(2, 4))
@settings(max_examples=50)
def test_integer_kernel_basis_rank_and_membership(mat):
    basis = integer_kernel_basis(list(mat))
    assert len(basis) == 4 - matrix_rank([tuple(col) for col in zip(*mat)])
    for k in basis:
        for row in mat:
            assert dot(k, row) == 0


def test_solve_rational_and_integral():
    assert solve_rational([(2, 0), (0, 3)], (1, 1)) == [Fraction(1, 2), Fraction(1, 3)]
    assert solve_rational([(1, 0), (1, 0)], (1, 2)) is None
    assert reference_solve_integral([(2, 0), (0, 3)], (2, 3)) == [1, 1]
    with pytest.raises(GeometryError):
        reference_solve_integral([(2, 0), (0, 3)], (1, 3))


@given(matrices(3, 3), st.tuples(ints, ints, ints))
@settings(max_examples=50)
def test_solve_rational_solves(mat, x):
    assume(det_int(mat) != 0)
    b = tuple(dot(row, x) for row in mat)
    sol = solve_rational(mat, b)
    assert sol is not None
    assert all(dot(tuple(sol), row) == bi for row, bi in zip(mat, b))
    assert [Fraction(v) for v in sol] == [Fraction(v) for v in x]


def test_invert_rational_round_trip():
    inv = invert_rational([(2, 0), (0, 4)])
    assert inv == [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]


def test_matrix_rank_detects_dependence():
    assert matrix_rank([(1, 2), (2, 4)]) == 1
    assert matrix_rank([(1, 0), (0, 1)]) == 2
    assert matrix_rank([]) == 0


# ---------------------------------------------------------------------------
# the elimination kernel against plain Fraction Gauss-Jordan
# ---------------------------------------------------------------------------

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def dependent_rows(draw, nrows, ncols):
    """Integer rows, some replaced by combinations of earlier rows."""
    rows = [list(draw(st.tuples(*([ints] * ncols)))) for _ in range(nrows)]
    for i in range(1, nrows):
        if draw(st.booleans()):
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            s, t = draw(ints), draw(ints)
            rows[i] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    return rows


@st.composite
def linear_systems(draw):
    """Rectangular systems; half of them consistent by construction."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rows = draw(dependent_rows(nrows, ncols))
    if draw(st.booleans()):
        x = draw(st.lists(small_fractions, min_size=ncols, max_size=ncols))
        rhs = [sum(a * xi for a, xi in zip(row, x)) for row in rows]
    else:
        rhs = draw(st.lists(small_fractions, min_size=nrows, max_size=nrows))
    return rows, rhs


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 5))
    return draw(dependent_rows(n, n))


def outcome(fn, *args):
    try:
        return fn(*args)
    except GeometryError as exc:
        return GeometryError, str(exc)


@given(linear_systems())
# overdetermined and consistent, the shape mixed_volume_table solves
@example(([[1, 0], [0, 2], [1, 2]], [Fraction(1, 2), 3, Fraction(7, 2)]))
# inconsistent: None
@example(([[1, 2], [2, 4], [0, 1]], [1, 3, 0]))
# underdetermined and consistent: GeometryError
@example(([[1, 2, 3], [2, 4, 6]], [Fraction(1, 3), Fraction(2, 3)]))
# underdetermined and inconsistent: None comes first
@example(([[1, 2, 3], [2, 4, 6]], [1, 3]))
@settings(max_examples=200)
def test_rank_and_solve_match_gauss_jordan(system):
    rows, rhs = system
    assert matrix_rank(rows) == reference_rank(rows)
    scaled = [[Fraction(a, i + 2) for a in row] for i, row in enumerate(rows)]
    assert matrix_rank(scaled) == reference_rank(rows)
    assert outcome(solve_rational, rows, rhs) == outcome(reference_solve, rows, rhs)


@given(square_matrices())
@example([[1, 2], [2, 4]])
@example([[0, 1, 0], [1, 0, 0], [0, 0, 5]])
@settings(max_examples=200)
def test_det_and_inverse_match_gauss_jordan(mat):
    det = reference_det(mat)
    assert det_int(mat) == det
    assert outcome(invert_rational, mat) == outcome(reference_inverse, mat)
    if det:
        scaled = [[det * x for x in row] for row in reference_inverse(mat)]
        assert adjugate(mat) == (det, scaled)
    else:
        with pytest.raises(GeometryError, match="singular"):
            adjugate(mat)


def test_relations_among_projective_plane_vectors():
    # oracle: (-1,-1) + (0,1) + (1,0) = 0 is the only primitive relation
    assert relations_among(((-1, -1), (0, 1), (1, 0))) == [(1, 1, 1)]


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def test_cone_volume_unimodular_and_not():
    assert cone_volume(((1, 0), (0, 1))) == 1
    assert cone_volume(((1, 0), (1, 2))) == 2
    assert cone_volume(((1, 1), (1, 1))) == 0


def test_cone_facet_normals_are_supporting():
    gens = ((1, 0), (1, 2))
    normals = cone_facet_normals(gens)
    assert len(normals) == 2
    for n in normals:
        assert all(dot(n, g) >= 0 for g in gens)
        assert any(dot(n, g) == 0 for g in gens)


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------

def test_lattice_polytope_triangle():
    poly = LatticePolytope(((0, 0), (2, 0), (0, 1), (1, 0)))
    assert poly.vertices == ((0, 0), (0, 1), (2, 0))  # interior-of-edge point dropped
    assert poly.dim == 2
    assert poly.lattice_points == ((0, 0), (0, 1), (1, 0), (2, 0))
    assert poly.contains((1, 0))
    assert not poly.contains((1, 1))


def test_reflexivity():
    diamond = LatticePolytope(((1, 0), (0, 1), (-1, 0), (0, -1)))
    assert diamond.is_reflexive()
    assert not LatticePolytope(((0, 0), (2, 0), (0, 1))).is_reflexive()


def test_facet_inequalities_describe_the_hull():
    pts = ((0, 0), (2, 0), (0, 1))
    facets = facet_inequalities(pts)
    assert len(facets) == 3
    inside = lattice_points_in(pts, facets)
    assert inside == [(0, 0), (0, 1), (1, 0), (2, 0)]
    for normal, const in facets:
        assert all(dot(normal, p) >= const for p in inside)
        assert any(dot(normal, p) == const for p in inside)


def test_feasible_point_finds_and_refuses():
    # x >= 1, y >= 1, x + y <= 5 has rational solutions
    sol = feasible_point([((1, 0), -1), ((0, 1), -1), ((-1, -1), 5)], 2)
    assert sol is not None
    x, y = sol
    assert x >= 1 and y >= 1 and x + y <= 5
    # x >= 0, y >= 0, x + y <= -5 does not
    assert feasible_point([((1, 0), 0), ((0, 1), 0), ((-1, -1), -5)], 2) is None
