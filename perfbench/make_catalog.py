"""Rebuild mori_catalog.json, the rank-4 Mori-cone problems of `mori_lp`.

Samples liftings of two-row strips with seven lattice points and keeps one
lifting per triangulation that uses every point, so no two entries share a
fan.  For each such fan it times a `series` request (one monomial, the first
admissible completion ray) at bounds 1 to MAX_BOUND, the better of two
tries, and takes the first bound at which the request takes between LOW_S
and HIGH_S seconds with the effective class enumeration at least ENUM_SHARE
of it: that fan becomes a `series` entry, unless one of its feasible_point
inputs (the membership tests) already occurs in an earlier entry, as it does
for some strips that are shears or mirror images of each other.  Of the
remaining fans, one for every VALIDATE_EVERY series entries, every other
one first, becomes a `validate` entry, whose request file omits the lifting,
again only if its feasible_point inputs (the coherence search) are new.  So
no two requests of a pass over the stream give feasible_point the same
input.  Which entry is which is fixed here, not by the benchmark seed, so
the set-up cost of a run does not depend on the seed.

    python3 perfbench/make_catalog.py
    python3 perfbench/make_golden.py     # then refresh the expected classes

The timing is what the selection rests on; rerun it on the reference
machine when the enumeration gets faster, or keep the current catalog so
that runs stay comparable.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import toricres.fan  # noqa: E402
import toricres.mirror  # noqa: E402
from toricres.cli import main as toricres_main  # noqa: E402

from workloads import CATALOG, lower_hull_triangles, strip, strip_shape  # noqa: E402

PROBLEM_FILE = HERE / "out" / "catalog.json"
SAMPLES = 6000
LOW_S, HIGH_S = 0.25, 1.1
ENUM_SHARE = 0.7
MAX_BOUND = 6
VALIDATE_EVERY = 3


def _write_problem(entry, command):
    shape = strip_shape(entry)
    problem = shape.problem("strip", random.Random(0), entry["bound"], 1,
                            keep_lifting=command == "series")
    problem["v0"] = shape.v0_candidates()[0]
    PROBLEM_FILE.parent.mkdir(parents=True, exist_ok=True)
    PROBLEM_FILE.write_text(json.dumps(problem))


def _run(command):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = toricres_main([command, str(PROBLEM_FILE), "--format", "report"])
    if rc != 0:
        raise RuntimeError(f"{command} failed on {PROBLEM_FILE.read_text()}")


def time_series(entry):
    """(request seconds, enumeration seconds) of one `series` request."""
    _write_problem(entry, "series")
    enumerate_effective = toricres.fan.enumerate_effective
    spent = [0.0]

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return enumerate_effective(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - start

    toricres.mirror.enumerate_effective = timed
    try:
        start = time.perf_counter()
        _run("series")
        took = time.perf_counter() - start
    finally:
        toricres.mirror.enumerate_effective = enumerate_effective
    return took, spent[0]


def lp_inputs(entry, command):
    """The inputs of every feasible_point call one request makes."""
    _write_problem(entry, command)
    feasible_point = toricres.fan.feasible_point
    seen = set()

    def recorded(constraints, nvars):
        seen.add((tuple((tuple(c), k) for c, k in constraints), nvars))
        return feasible_point(constraints, nvars)

    toricres.fan.feasible_point = recorded
    try:
        _run(command)
    finally:
        toricres.fan.feasible_point = feasible_point
    return seen


def sample_heights(rng, rows, shear, points):
    """Row-wise convex random heights, so every point is on the lower hull."""
    heights = {}
    for y, length in enumerate(rows):
        value, slope = rng.randint(0, 3), rng.randint(-3, 3)
        for x in range(length):
            heights[(x + shear * y, y)] = value
            value += slope
            slope += rng.randint(1, 3)
    return [heights[p] for p in points]


def distinct_fans():
    """One lifting per all-point triangulation reached, in a fixed order."""
    rng = random.Random(0)
    fans = {}
    for _ in range(SAMPLES):
        bottom = rng.randint(1, 6)
        rows, shear = (bottom, 7 - bottom), rng.randint(0, 2)
        _, points = strip(rows, shear)
        heights = sample_heights(rng, rows, shear, points)
        tris = lower_hull_triangles(points, heights)
        if len(tris) == 5:
            fans.setdefault((rows, shear, tuple(map(tuple, tris))), heights)
    return [{"rows": list(rows), "shear": shear, "heights": heights}
            for (rows, shear, _), heights in sorted(fans.items())]


def fit_bound(entry):
    """The first bound whose request lands in the window, with its timing."""
    for bound in range(1, MAX_BOUND + 1):
        timed = dict(entry, bound=bound)
        took, enum = min(time_series(timed), time_series(timed))
        if took > HIGH_S:
            return None
        if took >= LOW_S and enum >= ENUM_SHARE * took:
            timed.update(command="series", series_s=round(took, 3),
                         enumerate_s=round(enum, 3))
            return timed
    return None


def main():
    fans = distinct_fans()
    series, unfit, taken = [], [], set()
    for entry in fans:
        fitted = fit_bound(entry)
        if fitted is not None:
            inputs = lp_inputs(fitted, "series")
            if inputs & taken:
                fitted = None
                fit = "shares membership tests with an earlier entry"
            else:
                taken |= inputs
                series.append(fitted)
                fit = f"bound {fitted['bound']}, {fitted['series_s']} s"
        else:
            fit = "no bound fits"
        if fitted is None:
            unfit.append(entry)
        print(f"{entry['rows']} shear {entry['shear']}: {fit}", flush=True)
    count = len(series) // VALIDATE_EVERY
    validate = []
    for entry in unfit[::2] + unfit[1::2]:
        if len(validate) == count:
            break
        entry = dict(entry, command="validate", bound=1)
        inputs = lp_inputs(entry, "validate")
        if not inputs & taken:
            taken |= inputs
            validate.append(entry)
    entries = series + validate
    with open(CATALOG, "w") as handle:
        json.dump({"low_s": LOW_S, "high_s": HIGH_S,
                   "enum_share": ENUM_SHARE, "entries": entries},
                  handle, indent=1)
        handle.write("\n")
    print(f"{len(series)} series and {len(validate)} validate entries, one "
          f"per triangulation, from {len(fans)} triangulations, written to "
          f"{CATALOG.name}")


if __name__ == "__main__":
    main()
