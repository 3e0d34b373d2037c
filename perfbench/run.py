"""Benchmark for toricres: seeded, closed-loop request streams.

    python3 perfbench/run.py --workload series_mix --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  One client sends `toricres` commands to
`toricres.cli.main`, in this process and with `--format report`, each
request reading a problem file generated from the seed (see workloads.py).
The next request goes out when the previous one has returned.  Responses are
checked after the timed window (see oracle.py).

A run sends whole blocks of requests: it stops at the first block boundary
after --seconds, and every block holds one request of each family (see
workloads.BLOCK), so the request mix does not depend on where the deadline
falls.

--trace 0 prints the end-to-end metrics: setup_s (import, input generation
and `validate` of every generated file; the median of three set-ups),
latency_p50_s (the median over blocks of the block's mean request time:
request costs differ up to twentyfold between families, so the median of
single requests falls in a gap between two families and jumps with the
seed and the host's speed), latency_tail_s (the highest whole percentile of
single requests with at least ten samples beyond it), throughput_rps and
peak_rss_mb, plus error_rate.
--trace 1 runs the same stream untraced and then traced for half of
--seconds each, prints per-layer metrics from the traced part (per request,
see spans.py) and the tracing overhead, and writes the spans to
perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 0 on a completed run, 1 when the
set-up fails, 2 when the package sources or problem files are missing.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3

from oracle import check  # noqa: E402
from spans import MODULES, Tracer  # noqa: E402
from workloads import BLOCK, BUNDLED, STREAM_LENGTH, WORKLOADS  # noqa: E402


class SetupError(RuntimeError):
    """A generated problem file is rejected, or the program is missing."""


def import_program():
    """Import toricres.cli from the checkout afresh, as a new process would."""
    for name in [m for m in sys.modules
                 if m == "toricres" or m.startswith("toricres.")]:
        del sys.modules[name]
    cli = importlib.import_module("toricres.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"toricres was imported from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


def call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def set_up(workload, seed, workdir):
    """Import, generate the request files and validate each; timed."""
    start = time.perf_counter()
    cli = import_program()
    requests = WORKLOADS[workload](random.Random(seed),
                                   STREAM_LENGTH[workload])
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    paths = []
    for k, request in enumerate(requests):
        path = workdir / f"req{k:03d}-{request.family}.json"
        path.write_text(json.dumps(request.problem))
        paths.append(str(path))
    for path in paths:
        rc, out, err = call(cli.main, ["validate", path, "--format", "report"])
        if rc != 0 or not json.loads(out)["ok"]:
            raise SetupError(f"{path} fails validate (exit {rc}): "
                             f"{out.strip() or err.strip()}")
    return time.perf_counter() - start, cli, requests, paths


def closed_loop(cli, requests, paths, seconds, block, tracer=None):
    """One client, next request when the previous returns, for `seconds`
    and then to the end of the current block of `block` requests."""
    samples = []
    root = tracer.name_id("request") if tracer else None
    begin = time.perf_counter()
    deadline = begin + seconds
    while not samples or len(samples) % block \
            or time.perf_counter() < deadline:
        k = len(samples) % len(requests)
        request = requests[k]
        argv = [request.command, paths[k], "--format", "report",
                *request.extra]
        if tracer:
            tracer.request_id = len(samples)
            span = tracer.open(root)
        t0 = time.perf_counter()
        try:
            rc, out, err = call(cli.main, argv)
        except Exception:
            rc, out, err = None, "", traceback.format_exc()
        latency = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
        samples.append((k, latency, rc, out, err))
    return samples, time.perf_counter() - begin


def judge(requests, paths, samples):
    """Oracle verdicts; a repeated request must repeat the checked answer."""
    verdicts, failures = {}, []
    for k, _, rc, out, err in samples:
        if k not in verdicts:
            try:
                reason = check(requests[k], paths[k], rc, out)
            except Exception:
                reason = "oracle raised: " + traceback.format_exc(limit=2)
            if reason and err:
                reason += f" | stderr: {err.strip()[:200]}"
            verdicts[k] = (rc, out, reason)
        first_rc, first_out, reason = verdicts[k]
        if reason is None and (rc, out) != (first_rc, first_out):
            reason = "response differs from an earlier one to the same file"
        if reason:
            failures.append((k, requests[k].family, reason))
    return failures


def tail(latencies):
    """(percentile, value, samples beyond): highest whole percentile with
    at least ten samples beyond it, by nearest rank."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return 100, lat[-1], 0
    p = 100 * (n - 10) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, lat[rank - 1], n - rank


def metric(value, unit):
    return {"value": value, "unit": unit}


def block_means(latencies, block):
    """Mean request time of each block of `block` consecutive requests."""
    return [statistics.fmean(latencies[i:i + block])
            for i in range(0, len(latencies) - block + 1, block)]


def end_to_end(setups, samples, elapsed, rss_mb, block):
    latencies = [s[1] for s in samples]
    p, tail_value, beyond = tail(latencies)
    n = len(samples)
    means = block_means(latencies, block)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "latency_p50_s": metric(statistics.median(means), "s"),
        "latency_tail_s": metric(tail_value, "s"),
        "throughput_rps": metric(n / elapsed, "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: "
                   + ", ".join(f"{s:.4f}" for s in setups),
        "latency_p50_s": f"median over {len(means)} blocks of {block} "
                         f"requests of the mean request time; median of "
                         f"single requests {statistics.median(latencies):.4f}",
        "latency_tail_s": f"p{p}, n={n}, {beyond} samples beyond",
        "throughput_rps": f"{n} requests in {elapsed:.3f} s, closed loop, "
                          "one client",
        "peak_rss_mb": "max resident set of this process at the end of the "
                       "timed window",
    }
    return metrics, notes


def by_family(requests, samples):
    latencies = {}
    for k, latency, *_ in samples:
        latencies.setdefault(requests[k].family, []).append(latency)
    return [f"# {family:14} n={len(lat):<4} p50={statistics.median(lat):.4f} s"
            for family, lat in sorted(latencies.items())]


#: Units of the per-request fields of a span, `<layer>.<function>.<field>`.
FIELD_UNITS = {"calls": "calls/req", "self_s": "s/req", "s": "s/req"}


def per_layer(names, tracer, traced, untraced_rps, traced_rps):
    """The per-layer metrics named in BENCHMARK.json, from the traced run.
    `<span>.calls|self_s|s` and `<span>.repeat_ratio` follow from the name;
    the rest are defined below."""
    calls, total, own, under = tracer.summary()
    n = len(traced)
    by_field = {"calls": calls, "self_s": own, "s": total}

    def ratio(num, den, unit="ratio"):
        return num / den if den else 0.0, unit, f"{num} / {den}"

    special = {
        "fan.enum_yield": lambda: ratio(
            tracer.returned["fan.enumerate_effective"],
            under[("lattice.feasible_point", "fan.enumerate_effective")]),
        "jk.solves_per_residue": lambda: ratio(
            under[("lattice.solve_rational", "jk.residue")],
            calls["jk.residue"], "solves/residue"),
        "problem.context_s": lambda: (
            own["problem.context"] / n, "s/req",
            "self time of ProblemContext construction"),
        "cli.self_s": lambda: (
            own["cli.main"] / n, "s/req",
            "self time of cli.main: argument parsing, dispatch, building "
            "and formatting the report"),
        "trace.overhead": lambda: (
            untraced_rps / traced_rps - 1, "ratio",
            f"untraced {untraced_rps:.4f} rps vs traced {traced_rps:.4f} rps"),
    }
    metrics, notes = {}, {}
    for name in names:
        span, _, field = name.rpartition(".")
        if name in special:
            value, unit, note = special[name]()
        elif span not in tracer.names:
            raise ValueError(f"{name}: no function is traced as {span}")
        elif field == "repeat_ratio":
            value, unit, note = ratio(*tracer.repeat_base(span))
        elif field in FIELD_UNITS:
            source = by_field[field][span]
            value, unit, note = (source / n, FIELD_UNITS[field],
                                 f"{source:.6g} over {n} requests")
        else:
            raise ValueError(f"no rule computes the per-layer metric {name}")
        metrics[name] = metric(value, unit)
        notes[name] = note

    busy = sum(own.values())
    shares = [(sum(v for k, v in own.items()
                   if k == layer or k.startswith(layer + ".")),
               layer) for layer in MODULES + ("request",)]
    lines = ["# self time by layer (the request span holds the benchmark's "
             "own output capture):"]
    lines += [f"#   {layer:9} {s:9.4f} s  {s / busy:6.1%}"
              for s, layer in sorted(shares, reverse=True)]
    lines.append("# top spans by self time:")
    lines += [f"#   {name:40} {own[name]:9.4f} s  {own[name] / busy:6.1%}  "
              f"{calls[name]} calls"
              for name in sorted(own, key=own.get, reverse=True)[:8]]
    return metrics, notes, lines


def report(metrics, notes, extra_lines=()):
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"{name:42} {m['value']:<14.6g} {m['unit']:10} {note}")
    for line in extra_lines:
        print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toricres" / "__init__.py").is_file() or not BUNDLED.is_dir():
        print(f"error: run from a toricres checkout; {SRC / 'toricres'} or "
              f"{BUNDLED} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"{args.workload}-{args.seed}"
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            took, cli, requests, paths = set_up(args.workload, args.seed,
                                                workdir)
            setups.append(took)
    except (SetupError, ImportError, OSError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1

    block = BLOCK[args.workload]
    seconds = args.seconds / 2 if args.trace else args.seconds
    samples, elapsed = closed_loop(cli, requests, paths, seconds, block)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} stream={len(requests)} files")
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_elapsed = closed_loop(cli, requests, paths,
                                                 seconds, block, tracer)
        finally:
            tracer.remove()
        with open(ROOT / "BENCHMARK.json") as handle:
            names = [m["name"] for m in json.load(handle)["per_layer"]]
        metrics, notes, extra = per_layer(names, tracer, traced,
                                          len(samples) / elapsed,
                                          len(traced) / traced_elapsed)
        spans = OUT / f"trace-{args.workload}-{args.seed}.csv.gz"
        tracer.write(spans)
        extra.append(f"# spans: {len(tracer.name)} written to "
                     f"{spans.relative_to(ROOT)}")
        samples = samples + traced
    else:
        metrics, notes = end_to_end(setups, samples, elapsed, rss_mb, block)
        extra = by_family(requests, samples)

    failures = judge(requests, paths, samples)
    attempted = len(samples)
    report(metrics, notes, extra)
    print(f"{'error_rate':42} {len(failures) / attempted:<14.6g} "
          f"{'ratio':10} {len(failures)} of {attempted} responses failed "
          "or were wrong")
    for k, family, reason in failures[:10]:
        print(f"# FAIL request {k} ({family}): {reason}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
