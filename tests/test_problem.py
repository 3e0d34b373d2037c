"""Problem-file parsing and context assembly."""

import json
from fractions import Fraction

import pytest

from toricres import (
    GeometryError,
    ProblemError,
    build_context,
    load_problem,
    parse_fraction,
    parse_problem,
)

from conftest import problem_path


def minimal_data(**overrides):
    data = {
        "dimension": 1,
        "vertices": [[-1], [1]],
        "simplices": [[0, 1], [1, 2]],
        "bound": 2,
        "polynomial": [[1, [1, 0, 1]]],
    }
    data.update(overrides)
    return data


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def test_parse_fraction_accepts_exact_forms():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction(-2) == Fraction(-2)
    assert parse_fraction("7") == Fraction(7)


def test_parse_fraction_rejects_inexact_and_non_numbers():
    with pytest.raises(ProblemError, match="not an exact rational"):
        parse_fraction(1.5)
    with pytest.raises(ProblemError, match="not a rational number"):
        parse_fraction(True)
    with pytest.raises(ProblemError, match="cannot read rational"):
        parse_fraction("1/0")
    with pytest.raises(ProblemError, match="cannot read rational"):
        parse_fraction("one half")


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------

def test_parse_problem_minimal_plain_file():
    spec = parse_problem(minimal_data(), name="seg")
    assert spec.name == "seg"
    assert spec.vertices == ((-1,), (1,))
    assert spec.lifting is None and spec.nef_partition is None and spec.v0 is None
    assert spec.polynomial == ((Fraction(1), (1, 0, 1)),)


def test_parse_problem_rejects_unknown_keys():
    with pytest.raises(ProblemError, match="unknown keys in problem file: bogus"):
        parse_problem(minimal_data(bogus=1))


@pytest.mark.parametrize("key", ["dimension", "vertices", "simplices", "bound", "polynomial"])
def test_parse_problem_requires_core_fields(key):
    data = minimal_data()
    del data[key]
    with pytest.raises(ProblemError, match=f"missing the '{key}' field"):
        parse_problem(data)


def test_parse_problem_shape_checks():
    with pytest.raises(ProblemError, match="must hold a JSON object"):
        parse_problem([1, 2, 3])
    with pytest.raises(ProblemError, match="positive integer"):
        parse_problem(minimal_data(dimension=0))
    with pytest.raises(ProblemError, match="list of integers"):
        parse_problem(minimal_data(vertices=[["-1"], [1]]))
    with pytest.raises(ProblemError, match="exactly 1 coordinates"):
        parse_problem(minimal_data(vertices=[[-1, 0], [1, 0]]))
    with pytest.raises(ProblemError, match="nonnegative integer"):
        parse_problem(minimal_data(bound=-1))
    with pytest.raises(ProblemError, match=r"must be \[coefficient, exponents\]"):
        parse_problem(minimal_data(polynomial=[[1, [1, 0, 1], "extra"]]))
    with pytest.raises(ProblemError, match="has a negative entry"):
        parse_problem(minimal_data(polynomial=[[1, [-1, 0, 1]]]))


def test_parse_problem_v0_length_depends_on_partition():
    # no partition: completion lives one dimension up
    with pytest.raises(ProblemError, match="v0 needs 2 coordinates"):
        parse_problem(minimal_data(v0=[0, -1, 0]))
    parse_problem(minimal_data(v0=[0, -1]))
    # an r-part partition adds r heights instead
    nef = minimal_data(nef_partition=[[0], [2]], v0=[0, -1])
    with pytest.raises(ProblemError, match="v0 needs 3 coordinates"):
        parse_problem(nef)


# ---------------------------------------------------------------------------
# loading from disk
# ---------------------------------------------------------------------------

def test_load_problem_reads_the_fixtures():
    for name, dim in (("p1", 1), ("p2", 2), ("square_r2", 2), ("nonreflexive", 2)):
        spec = load_problem(problem_path(name))
        assert spec.dimension == dim
        assert spec.bound == 6


def test_load_problem_usage_failures_stay_builtin(tmp_path):
    with pytest.raises(OSError):
        load_problem(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_problem(bad)


# ---------------------------------------------------------------------------
# context assembly
# ---------------------------------------------------------------------------

def test_plain_context_uses_the_polytope_fan():
    pc = build_context(parse_problem(minimal_data()))
    assert not pc.is_nef and pc.cayley is None
    assert pc.fan.generators == ((-1, 1), (0, 1), (1, 1))
    assert pc.polynomial == {(1, 0, 1): Fraction(1)}
    assert pc.residue.v0 == (0, -1)


def test_nef_context_drops_the_origin_slot():
    spec = parse_problem(minimal_data(nef_partition=[[0], [2]],
                                      polynomial=[[1, [1, 0, 0]],
                                                  [1, [0, 0, 1]]]))
    pc = build_context(spec)
    assert pc.is_nef and pc.cayley.r == 2
    # the origin sits between the two endpoints in the lex point order
    assert pc.cayley.origin_index == 1
    assert pc.polynomial == {(1, 0): Fraction(1), (0, 1): Fraction(1)}


def test_nef_context_rejects_origin_exponent():
    spec = parse_problem(minimal_data(nef_partition=[[0], [2]],
                                      polynomial=[[1, [1, 1, 0]]]))
    with pytest.raises(ProblemError, match="nonzero at the origin slot"):
        build_context(spec)


def test_context_v0_override_wins():
    spec = parse_problem(minimal_data(v0=[0, -1]))
    assert build_context(spec, v0=(1, -2)).residue.v0 == (1, -2)
    assert build_context(spec).residue.v0 == (0, -1)


def test_context_finds_a_lifting_when_none_is_given():
    pc = build_context(parse_problem(minimal_data()))
    assert pc.triangulation.lifting is not None


def test_context_rejects_incoherent_lifting():
    spec = parse_problem(minimal_data(lifting=[0, 1, 0]))
    with pytest.raises(ProblemError, match="does not certify coherence"):
        build_context(spec)


def test_context_rejects_degenerate_vertices():
    data = minimal_data(dimension=2,
                        vertices=[[-1, 0], [1, 0]],
                        polynomial=[[1, [1, 0, 1]]])
    with pytest.raises(GeometryError, match="full-dimensional"):
        build_context(parse_problem(data))


def test_context_rejects_mismatched_polynomial_width():
    spec = parse_problem(minimal_data(polynomial=[[1, [1, 1]]]))
    with pytest.raises(ProblemError, match="does not cover the 3"):
        build_context(spec)


def test_duplicate_terms_merge_and_cancel():
    spec = parse_problem(minimal_data(
        polynomial=[["1/2", [1, 0, 1]], ["1/2", [1, 0, 1]],
                    [1, [0, 2, 0]], [-1, [0, 2, 0]]],
    ))
    pc = build_context(spec)
    assert pc.polynomial == {(1, 0, 1): Fraction(1)}
