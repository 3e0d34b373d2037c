"""Response checks, run after the timed window.

A response is correct when its exit code is 0, the code every request in
these workloads expects, and:

* `series`: the set of classes is the expected one for the request's fan
  and bound (golden_classes.json, see make_golden.py), with no class twice,
  so a class the enumeration drops or adds is caught; every class agrees
  with the other route -- residues on the Cayley fan
  (`cayley_rm_coefficient`) for nef problems, the pushout evaluation
  (`crosscheck_coefficient`) for plain ones -- the table starts at the zero
  class and stays within the bound; for the `p1` family the classes are
  exactly k(1, 1) for every k with degree 2k within the bound and every
  coefficient equals (sum of the polynomial's coefficients) * 4^k;
* `verify`: the report is ok and every row is ok;
* `validate`: the report is ok and every stage passed.

Each returns None when the response is correct, else a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from workloads import GOLDEN

_golden = {}

#: Degree of the class (1, 1) of the bundled p1 under its lifting [1, 0, 1].
P1_DEGREE = 2


def class_digest(classes):
    """(count, sha256) of a set of classes given as lists of integers."""
    rows = sorted(tuple(c) for c in classes)
    text = json.dumps([list(c) for c in rows], separators=(",", ":"))
    return len(rows), hashlib.sha256(text.encode()).hexdigest()


def expected_classes(key):
    if not _golden:
        with open(GOLDEN) as handle:
            _golden.update(json.load(handle)["entries"])
    return _golden.get(key)


def check(request, path, rc, output):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    try:
        report = json.loads(output)
    except json.JSONDecodeError as exc:
        return f"response is not JSON: {exc}"
    if report.get("command") != request.command:
        return f"response is for {report.get('command')!r}"
    if request.command == "series":
        return _check_series(request, path, report)
    if request.command == "verify":
        bad = [row["name"] for row in report["checks"] if not row["ok"]]
        if not report["ok"] or bad or not report["checks"]:
            return f"verify rows failed: {bad}"
        return None
    bad = [row["name"] for row in report["checks"] if row["status"] != "ok"]
    if not report["ok"] or bad:
        return f"validate stages failed: {bad}"
    return None


def _check_series(request, path, report):
    from toricres import build_context, load_problem
    from toricres.mpcayley import cayley_rm_coefficient, crosscheck_coefficient

    pc = build_context(load_problem(path))
    bound = report["bound"]
    if bound != request.problem["bound"]:
        return f"bound {bound} differs from the file's {request.problem['bound']}"
    entries = report["entries"]
    if not entries or any(entries[0]["class"]):
        return "table does not start at the zero class"
    classes = [tuple(row["class"]) for row in entries]
    if len(set(classes)) != len(classes):
        return "a class appears twice"
    expected = expected_classes(request.classes)
    if expected is None:
        return f"no expected class set for {request.classes}"
    count, digest = class_digest(classes)
    if (count, digest) != (expected["count"], expected["sha256"]):
        return (f"{count} classes, expected {expected['count']}, or a "
                "different set")
    if request.closed_form == "p1" and classes != [
            (k, k) for k in range(bound // P1_DEGREE + 1)]:
        return (f"p1 classes are not k(1, 1) for k = 0..{bound // P1_DEGREE}:"
                f" {classes}")
    coefficient_sum = sum(Fraction(c) for c, _ in request.problem["polynomial"])
    for row in entries:
        beta = tuple(row["class"])
        value = Fraction(row["value"])
        if row["degree"] > bound:
            return f"class {beta} has degree {row['degree']} > bound {bound}"
        if pc.is_nef:
            other = cayley_rm_coefficient(pc.residue, pc.cayley,
                                          pc.polynomial, beta)
        else:
            result = crosscheck_coefficient(pc.residue, pc.polynomial, beta)
            if result.series_value != value:
                return (f"class {beta}: response {value}, residue route "
                        f"{result.series_value}")
            other = result.pushout_value
        if other != value:
            return f"class {beta}: response {value}, other route {other}"
        if request.closed_form == "p1":
            k = beta[0]
            if value != coefficient_sum * 4 ** k:
                return f"class {beta}: {value} is not {coefficient_sum} * 4^{k}"
    return None
