"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/selftest/selftest.py

For each workload in BENCHMARK.json it runs perfbench/run.py with --trace 0
and --trace 1 and checks that the last line is the result object, that
every end-to-end (trace 0) or per-layer (trace 1) metric is printed with the
unit BENCHMARK.json gives it, that error_rate is printed, and that no
response failed.  It then copies BENCHMARK.json and perfbench/ alone into
perfbench/out/bare/ and checks that the benchmark refuses to run there:
non-zero exit and no result line.  Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
TIMEOUT_S = 300
SECONDS = 1


def run(cwd, workload, trace, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_run(spec, workload, trace, seconds):
    proc = run(ROOT, workload, trace, seconds)
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        problems.append(f"metrics differ: missing {missing}, extra {extra}, "
                        f"wrong units {units}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    if not any(line.startswith("error_rate ") for line in lines):
        problems.append("error_rate is not printed")
    if trace and not any(line.startswith("trace.overhead ") for line in lines):
        problems.append("tracing overhead is not printed")
    if result["attempted"] < 1:
        problems.append("no request was attempted")
    if result["failed"] or not result["correct"]:
        fails = [line for line in lines if line.startswith("# FAIL")]
        problems.append(f"{result['failed']} responses failed: {fails[:3]}")
    return problems


def check_bare(spec, seconds):
    """The benchmark alone, without the package, must refuse to run."""
    bare = BENCH / "out" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0, seconds)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0:
        return ["exit code 0 without the package sources"]
    if proc.stdout.strip():
        return [f"printed output without the package: {proc.stdout[:200]}"]
    return []


def main():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace, SECONDS)
            status = "ok" if not problems else "FAIL"
            print(f"{status:4} {workload} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
            failed |= bool(problems)
    problems = check_bare(spec, SECONDS)
    print(f"{'ok' if not problems else 'FAIL':4} refuses to run without "
          "the package")
    for problem in problems:
        print(f"     {problem}")
    failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
