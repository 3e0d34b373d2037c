"""Command-line behavior: output shape, exit codes, determinism."""

import hashlib
import json
import sys

import pytest

import toricres.fan
import toricres.lattice
import toricres.mpcayley
import toricres.poly
from toricres import build_context, load_problem
from toricres.cli import main
from toricres.mpcayley import cayley_rm_coefficient

from conftest import FIXTURE_NAMES, problem_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_problem(tmp_path, data, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


PLAIN_SEGMENT = {
    "dimension": 1,
    "vertices": [[-1], [1]],
    "simplices": [[0, 1], [1, 2]],
    "bound": 2,
    "polynomial": [[1, [1, 0, 1]]],
}


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_validate_passes_on_fixtures(capsys, name):
    code, out, err = run(capsys, "validate", str(problem_path(name)))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].endswith(": validate")
    assert all(line.startswith("ok ") for line in lines[1:])


def test_validate_reports_failure_and_skips_later_stages(capsys, tmp_path):
    bad = dict(PLAIN_SEGMENT, simplices=[[0, 2], [1, 2]])
    code, out, err = run(capsys, "validate", write_problem(tmp_path, bad))
    assert code == 1
    lines = out.splitlines()[1:]
    statuses = [line.split()[0] for line in lines]
    assert statuses == ["ok", "FAIL", "-", "-", "-"]
    assert "overlap improperly" in lines[1]
    assert all(line.endswith("skipped") for line in lines[2:])


def test_validate_catches_empty_nef_part(capsys, tmp_path):
    bad = dict(PLAIN_SEGMENT, lifting=[1, 0, 1], nef_partition=[[0, 2], []])
    code, out, err = run(capsys, "validate", write_problem(tmp_path, bad))
    assert code == 1
    fail_line = next(l for l in out.splitlines() if l.startswith("FAIL"))
    assert "nef-partition" in fail_line and "empty part" in fail_line


P2_WITHOUT_LIFTING = {
    "name": "p2",
    "dimension": 2,
    "vertices": [[-1, -1], [0, 1], [1, 0]],
    "simplices": [[0, 1, 2], [0, 1, 3], [1, 2, 3]],
    "nef_partition": [[0, 2, 3]],
    "bound": 6,
    "polynomial": [[1, [1, 0, 1, 0]]],
}


def counting_everywhere(monkeypatch, name, home=toricres.fan):
    """Replace a package function of module ``home`` in every module that
    binds it; returns the list its calls are appended to."""
    calls = []
    original = getattr(home, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if (module_name == "toricres" or module_name.startswith("toricres.")) \
                and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("data, expected", [
    (PLAIN_SEGMENT, [
        ("polytope", "dimension 1, 3 lattice points, 2 facets"),
        ("triangulation", "2 simplices cover the polytope"),
        ("coherence", "found certifying lifting (0, 0, 1)"),
        ("completion", "completion ray (0, -1) accepted"),
        ("polynomial", "1 interior monomials of the right degree"),
    ]),
    (P2_WITHOUT_LIFTING, [
        ("polytope", "dimension 2, 4 lattice points, 3 facets"),
        ("triangulation", "3 simplices cover the polytope"),
        ("coherence", "found certifying lifting (0, 0, 0, 1)"),
        ("nef-partition", "1 parts (3 points), Cayley data assembled"),
        ("completion", "completion ray (0, 0, -1) accepted"),
        ("polynomial", "1 interior monomials of the right degree"),
    ]),
])
def test_validate_searches_for_a_lifting_once(capsys, tmp_path, monkeypatch,
                                              data, expected):
    liftings = counting_everywhere(monkeypatch, "find_lifting")
    validations = counting_everywhere(monkeypatch, "validate_triangulation")
    code, out, err = run(capsys, "validate", write_problem(tmp_path, data),
                         "--format", "report")
    assert code == 0 and err == ""
    assert len(liftings) == 1
    assert len(validations) == 1
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [(c["name"], c["detail"]) for c in payload["checks"]] == expected
    assert all(c["status"] == "ok" for c in payload["checks"])


LIFTED_SEGMENT = dict(PLAIN_SEGMENT, lifting=[1, 0, 1])


@pytest.mark.parametrize("data, stage", [
    (dict(PLAIN_SEGMENT, simplices=[[0, 2], [1, 2]]), "triangulation"),
    (dict(LIFTED_SEGMENT, simplices=[[0, 2], [1, 2]]), "triangulation"),
    (dict(PLAIN_SEGMENT, simplices=[[0, 2]]), "triangulation"),
    (dict(PLAIN_SEGMENT, lifting=[0, 1, 0]), "coherence"),
    (dict(LIFTED_SEGMENT, nef_partition=[[0, 2], []]), "nef-partition"),
    (dict(PLAIN_SEGMENT, v0=[0, 1]), "completion"),
    (dict(PLAIN_SEGMENT, polynomial=[[1, [2, 0, 0]]]), "polynomial"),
], ids=["overlap", "overlap-lifted", "unused-point", "incoherent-lifting",
        "empty-nef-part", "v0", "non-interior-polynomial"])
def test_every_command_reports_the_first_failing_stage(capsys, tmp_path,
                                                       data, stage):
    path = write_problem(tmp_path, data)
    code, out, err = run(capsys, "validate", path, "--format", "report")
    assert code == 1 and err == ""
    failed = [c for c in json.loads(out)["checks"] if c["status"] == "FAIL"]
    assert [c["name"] for c in failed] == [stage]
    for command in ("series", "verify"):
        code, out, err = run(capsys, command, path)
        assert (code, out, err) == (1, "", f"error: {failed[0]['detail']}\n")


def test_validate_report_format_is_canonical_json(capsys):
    code, out, err = run(capsys, "validate", str(problem_path("p1")),
                         "--format", "report")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "validate" and payload["ok"] is True
    assert [c["status"] for c in payload["checks"]] == ["ok"] * len(payload["checks"])
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def test_series_report_p1(capsys):
    code, out, err = run(capsys, "series", str(problem_path("p1")),
                         "--format", "report")
    assert code == 0
    payload = json.loads(out)
    assert payload["ample"] == [1, 1] and payload["v0"] is None
    assert [e["value"] for e in payload["entries"]] == ["1", "4", "16", "64"]
    assert [e["class"] for e in payload["entries"]] == [[k, k] for k in range(4)]
    assert [e["degree"] for e in payload["entries"]] == [0, 2, 4, 6]


def test_series_report_keeps_file_v0(capsys):
    code, out, err = run(capsys, "series", str(problem_path("nonreflexive")),
                         "--format", "report")
    payload = json.loads(out)
    assert payload["v0"] == [-1, -1, -2]
    assert [e["value"] for e in payload["entries"]] == [str(4 ** k) for k in range(7)]


def test_series_bound_flag_truncates(capsys):
    code, out, err = run(capsys, "series", str(problem_path("p1")),
                         "--bound", "0", "--format", "report")
    assert code == 0
    assert [e["value"] for e in json.loads(out)["entries"]] == ["1"]


def test_series_output_is_deterministic(capsys):
    first = run(capsys, "series", str(problem_path("p2")))
    second = run(capsys, "series", str(problem_path("p2")))
    assert first == second and first[0] == 0


P4_TWO_PARTS = {
    "name": "p4_23",
    "dimension": 4,
    "vertices": [[-1, -1, -1, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                 [0, 0, 0, 1]],
    "simplices": [[1, 0, 2, 3, 4], [1, 0, 2, 3, 5], [1, 0, 2, 4, 5],
                  [1, 0, 3, 4, 5], [1, 2, 3, 4, 5]],
    "lifting": [1, 0, 1, 1, 1, 1],
    "nef_partition": [[0, 5], [2, 3, 4]],
    "bound": 15,
    "polynomial": [[1, [1, 0, 1, 1, 1, 0]]],
}


def test_series_on_a_rank_19_pushout(capsys, tmp_path):
    # P4 with the nef parts {-e1-e2-e3-e4, e1} and {e2, e3, e4}: the class
    # (3,3,3,3,3) has a pushout fan of rank 19 with 20 cones
    path = write_problem(tmp_path, P4_TWO_PARTS)
    code, out, err = run(capsys, "series", path, "--format", "report")
    assert code == 0 and err == ""
    values = {tuple(e["class"]): e["value"] for e in json.loads(out)["entries"]}
    assert values[(3, 3, 3, 3, 3)] == "-1259712"
    pc = build_context(load_problem(path))
    residue_route = cayley_rm_coefficient(pc.residue, pc.cayley,
                                          pc.polynomial, (3, 3, 3, 3, 3))
    assert residue_route == -1259712


@pytest.mark.parametrize("name", ["p2", "square_r2"])
def test_series_certifies_the_base_lifting_once(capsys, monkeypatch, name):
    # the coherence stage certifies the base triangulation, and the Cayley
    # data checks only its induced triangulation
    checks = counting_everywhere(monkeypatch, "verify_coherence")
    code, out, err = run(capsys, "series", str(problem_path(name)))
    assert code == 0 and err == ""
    assert len(checks) == 2


@pytest.mark.parametrize("name", ["p2", "square_r2"])
def test_series_pushout_sum_neither_solves_nor_expands(capsys, monkeypatch,
                                                       name):
    # every pushout cone reads its coordinates from the cached adjugate of
    # its base cone: mp_evaluate makes no solve and no poly_eval call, and
    # the request's solve count does not grow with the number of classes
    evals = counting_everywhere(monkeypatch, "poly_eval", toricres.poly)
    solves = counting_everywhere(monkeypatch, "solve_rational",
                                 toricres.lattice)
    inside = []
    original = toricres.mpcayley.mp_evaluate

    def recording(*args):
        before = len(evals), len(solves)
        value = original(*args)
        inside.append((len(evals) - before[0], len(solves) - before[1]))
        return value

    monkeypatch.setattr(toricres.mpcayley, "mp_evaluate", recording)
    requests = []
    for bound in ("3", "6"):
        start = len(solves), len(inside)
        code, out, err = run(capsys, "series", str(problem_path(name)),
                             "--bound", bound)
        assert code == 0 and err == ""
        requests.append((len(solves) - start[0], len(inside) - start[1]))
    assert set(inside) == {(0, 0)}
    (solves_3, sums_3), (solves_6, sums_6) = requests
    assert sums_6 > sums_3 > 0
    assert solves_6 <= solves_3


OCTIC = {
    "name": "octic", "dimension": 4,
    "vertices": [[-1, -2, -2, -2], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                 [0, 0, 0, 1]],
    "simplices": [[2, 6, 5, 4, 3], [2, 0, 5, 4, 3], [2, 0, 1, 4, 3],
                  [2, 1, 6, 4, 3], [2, 0, 1, 5, 3], [2, 1, 6, 5, 3],
                  [2, 0, 1, 5, 4], [2, 1, 6, 5, 4]],
    "nef_partition": [[0, 1, 3, 4, 5, 6]], "bound": 8,
    "polynomial": [[1, [0, 0, 0, 1, 1, 1, 1]]],
}


@pytest.mark.parametrize("problem, flags, digest", [
    ("p1", (), "5ff0faadaf5dfb7676856b49098b643e42d5c26802be7412d3e670fa590ff183"),
    ("p2", (), "2dad3c349c7b10a900e0c9d510ab0763cb94af4252f5959c65a2bcd5c0e153b7"),
    ("square_r2", (),
     "301444c3633301346018c96bd7eb71474420eda70d31bfea33c691a48fc70a93"),
    ("nonreflexive", (),
     "1b89d98bb3707bf9c5d8cdc3c70b51a088c98b3a28820733b4fd894e14d15243"),
    (P4_TWO_PARTS, (),
     "8f3abe754db0ccdae26a77536679252fd61e5dc5ee39e2f1686b86f53fd2c228"),
    (OCTIC, ("--bound", "4"),
     "7382d46b327dde2d7c30a178e17ce575933fcb4d9e15d0bb698e4e6227ae1323"),
], ids=["p1", "p2", "square_r2", "nonreflexive", "p4_23-bound15",
        "octic-bound4"])
def test_series_report_bytes_are_pinned(capsys, tmp_path, problem, flags,
                                        digest):
    # digests of the reports the solve-per-cone Brion sum printed; a faster
    # route must print the same bytes
    path = (str(problem_path(problem)) if isinstance(problem, str)
            else write_problem(tmp_path, problem))
    code, out, err = run(capsys, "series", path, "--format", "report", *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_series_rejects_malformed_v0_flag(capsys):
    code, out, err = run(capsys, "series", str(problem_path("p1")),
                         "--v0", "a,b")
    assert code == 1
    assert "comma-separated integers" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_verify_passes_on_fixtures(capsys, name):
    code, out, err = run(capsys, "verify", str(problem_path(name)))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert all(line.startswith("ok ") for line in lines[1:])
    names = {line.split()[1] for line in lines[1:]}
    assert {"hessian-normalization", "ideal-vanishing",
            "series-pushout-agreement", "completion-independence"} <= names


def test_verify_nef_fixtures_run_the_cayley_battery(capsys):
    code, out, err = run(capsys, "verify", str(problem_path("square_r2")))
    assert code == 0
    names = {line.split()[1] for line in out.splitlines()[1:]}
    assert {"pushforward-substitution", "evaluation-compatibility",
            "mixed-volume-theorem"} <= names


def test_verify_is_stable_under_seed(capsys):
    base = run(capsys, "verify", str(problem_path("p2")))
    seeded = run(capsys, "verify", str(problem_path("p2")), "--seed", "17")
    assert base == seeded


def test_verify_enumerates_each_fan_and_bound_once(capsys, monkeypatch):
    import toricres.fan

    fans = []
    init = toricres.fan.Fan.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        fans.append(self)

    calls = []
    original = toricres.fan.cone_facet_normals

    def counting(generators):
        calls.append(generators)
        return original(generators)

    monkeypatch.setattr(toricres.fan.Fan, "__init__", recording_init)
    monkeypatch.setattr(toricres.fan, "cone_facet_normals", counting)
    code, out, err = run(capsys, "verify", str(problem_path("square_r2")),
                         "--format", "report")
    assert code == 0 and err == ""
    # Each fan keeps one class list per (bound, ample) it was asked for; the
    # facet normals are computed only when such a list is first built.
    enumerated = sum(len(fan._effective) for fan in fans)
    assert 0 < len(calls) <= enumerated


def test_problem_contexts_do_not_share_enumerations():
    from toricres import build_context, load_problem

    path = problem_path("square_r2")
    first = build_context(load_problem(path)).residue
    second = build_context(load_problem(path)).residue
    classes = first.effective_classes(4)
    assert first.effective_classes(4) is classes
    assert second.effective_classes(4) == classes
    assert second.effective_classes(4) is not classes


# ---------------------------------------------------------------------------
# mixed-volume
# ---------------------------------------------------------------------------

def test_mixed_volume_table_output(capsys):
    code, out, err = run(capsys, "mixed-volume", str(problem_path("square_r2")))
    assert code == 0
    rows = out.splitlines()[2:]
    assert [r.split() for r in rows] == [
        ["(0,", "2)", "0"], ["(1,", "1)", "4"], ["(2,", "0)", "0"],
    ]


def test_mixed_volume_needs_a_partition(capsys, tmp_path):
    path = write_problem(tmp_path, PLAIN_SEGMENT)
    code, out, err = run(capsys, "mixed-volume", path)
    assert code == 2
    assert "needs a problem file with a nef_partition" in err


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_unreadable_file_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2 and err.startswith("error:")


def test_usage_errors_and_help_on_the_shared_parser(capsys):
    # the parser is built once per process; a usage error or --help must
    # leave it fit for the next request
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["series"])
        assert exc.value.code == 2
        assert "required: problem" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["series", "--help"])
        assert exc.value.code == 0
        assert "--bound" in capsys.readouterr().out
        code, out, err = run(capsys, "validate", str(problem_path("p1")))
        assert code == 0 and err == ""


def test_broken_json_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and "error:" in err


def test_schema_violation_is_a_check_failure(capsys, tmp_path):
    bad = dict(PLAIN_SEGMENT)
    del bad["bound"]
    code, out, err = run(capsys, "validate", write_problem(tmp_path, bad))
    assert code == 1
    assert "missing the 'bound' field" in err
