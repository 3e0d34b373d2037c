"""Mixed volumes and the residue identity that computes them.

Hand oracles: the two axis segments of the diamond have degenerate
self-sums, and their Minkowski sum is the unit square of normalized area
8 = 2 * MV(1,1), so the mixed-volume table is {(2,0): 0, (1,1): 4, (0,2): 0}.
For the triangle partition of the same diamond, the Minkowski sum of the two
triangles is a hexagon of normalized area 6 = 1 + 1 + 2 * 2, giving
{(2,0): 1, (1,1): 2, (0,2): 1}.
"""

from fractions import Fraction

import pytest

from toricres import (
    GeometryError,
    Triangulation,
    graded_hessian_component,
    hessian,
    load_problem,
    mixed_residue,
    mixed_volume,
    mixed_volume_table,
    verify_mixed_volume_theorem,
)

from strategies import build_cayley


@pytest.fixture(scope="module")
def triangle_partition_cayley():
    spec = load_problem("problems/square_r2.json")
    tri = Triangulation(
        ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)),
        spec.simplices,
        lifting=spec.lifting,
    )
    return build_cayley(tri, [[0, 1], [3, 4]])


# ---------------------------------------------------------------------------
# volume tables
# ---------------------------------------------------------------------------

def test_axis_partition_table(square):
    assert mixed_volume_table(square.cayley) == {
        (2, 0): Fraction(0),
        (1, 1): Fraction(4),
        (0, 2): Fraction(0),
    }


def test_triangle_partition_table(triangle_partition_cayley):
    assert mixed_volume_table(triangle_partition_cayley) == {
        (2, 0): Fraction(1),
        (1, 1): Fraction(2),
        (0, 2): Fraction(1),
    }


def test_single_part_table_is_the_volume(p1, p2):
    assert mixed_volume_table(p1.cayley) == {(1,): Fraction(2)}
    assert mixed_volume_table(p2.cayley) == {(2,): Fraction(3)}


def test_mixed_volume_lookup_and_validation(square):
    cay = square.cayley
    assert mixed_volume(cay, (1, 1)) == 4
    assert mixed_volume(cay, (2, 0)) == 0
    with pytest.raises(GeometryError, match="one multiplicity per part"):
        mixed_volume(cay, (1, 1, 0))
    with pytest.raises(GeometryError, match="must be nonnegative"):
        mixed_volume(cay, (3, -1))
    with pytest.raises(GeometryError, match="must total the base dimension"):
        mixed_volume(cay, (2, 1))


# ---------------------------------------------------------------------------
# graded Hessian components
# ---------------------------------------------------------------------------

def test_grading_partitions_the_hessian(square):
    cay = square.cayley
    full = hessian(cay.fan)
    pieces = [graded_hessian_component(cay, k) for k in ((1, 3), (2, 2), (3, 1))]
    assert sum(len(p.terms) for p in pieces) == len(full.terms)
    # balanced grading carries everything; the lopsided grades are empty
    assert len(pieces[1].terms) == len(full.terms)
    assert pieces[0].terms == () and pieces[2].terms == ()


def test_grading_validation(square):
    cay = square.cayley
    with pytest.raises(GeometryError, match="one grade entry per part"):
        graded_hessian_component(cay, (4,))
    with pytest.raises(GeometryError, match="negative entry"):
        graded_hessian_component(cay, (5, -1))
    with pytest.raises(GeometryError, match="grade total"):
        graded_hessian_component(cay, (1, 1))


# ---------------------------------------------------------------------------
# residues equal volumes
# ---------------------------------------------------------------------------

def test_mixed_residue_values(square):
    cay = square.cayley
    balanced = mixed_residue(cay, (2, 2), 6)
    assert balanced.ok and balanced.value == 4
    lopsided = mixed_residue(cay, (1, 3), 6)
    assert lopsided.ok and lopsided.value == 0


def test_mixed_residue_reports_only_constant_term(square):
    result = mixed_residue(square.cayley, (2, 2), 6)
    zero = (0,) * len(square.cayley.fan.generators)
    for beta, coeff in result.table.entries:
        assert coeff == (4 if beta == zero else 0)


def test_theorem_on_the_axis_partition(square):
    report = verify_mixed_volume_theorem(square.cayley, 6)
    assert report.ok
    assert [(k, res) for k, res, _, _ in report.rows] == [
        ((1, 3), Fraction(0)),
        ((2, 2), Fraction(4)),
        ((3, 1), Fraction(0)),
    ]


def test_theorem_on_the_triangle_partition(triangle_partition_cayley):
    report = verify_mixed_volume_theorem(triangle_partition_cayley, 6)
    assert report.ok
    values = {k: res for k, res, _, _ in report.rows}
    assert values == {(1, 3): 1, (2, 2): 2, (3, 1): 1}


def test_theorem_on_single_part_fixtures(p1, p2):
    for pc, vol in ((p1, 2), (p2, 3)):
        report = verify_mixed_volume_theorem(pc.cayley, 6)
        assert report.ok
        (k, res, volume, clean), = report.rows
        assert res == volume == vol
