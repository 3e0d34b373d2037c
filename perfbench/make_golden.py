"""Rebuild golden_classes.json, the expected class set of every series request.

A `series` table has one row per effective class of degree at most the
bound.  The oracle checks each row's value against the other route, but the
set of rows comes from the enumeration under test; this file pins that set,
as the current code computes it, for every (family, fan, bound) a stream can
request (see workloads.series_class_keys), so that a change which drops or
adds a class fails the oracle.  The set does not depend on the polynomial or
the completion ray, so one request per key, with the first of each, is
enough.

    python3 perfbench/make_golden.py

Rerun it after changing the streams or mori_catalog.json, on code whose
series output is trusted.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from toricres.cli import main as toricres_main  # noqa: E402

from oracle import class_digest  # noqa: E402
from workloads import GOLDEN, series_class_keys  # noqa: E402

PROBLEM_FILE = HERE / "out" / "golden.json"


def classes_of(family, shape, bound):
    problem = shape.problem(family, random.Random(0), bound, 1,
                            v0=shape.v0_candidates()[0])
    PROBLEM_FILE.parent.mkdir(parents=True, exist_ok=True)
    PROBLEM_FILE.write_text(json.dumps(problem))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = toricres_main(["series", str(PROBLEM_FILE), "--format", "report"])
    if rc != 0:
        raise RuntimeError(f"series failed on {family} at bound {bound}")
    return [row["class"] for row in json.loads(out.getvalue())["entries"]]


def main():
    golden = {}
    for key, family, shape, bound in series_class_keys():
        count, digest = class_digest(classes_of(family, shape, bound))
        golden[key] = {"count": count, "sha256": digest}
    with open(GOLDEN, "w") as handle:
        json.dump({"entries": golden}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(golden)} class sets written to {GOLDEN.name}")


if __name__ == "__main__":
    main()
