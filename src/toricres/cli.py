"""Command-line interface: validate, series, verify, mixed-volume.

Every command reads one problem file (see problem.py for the schema),
assembles it through the stages of ``problem.ProblemContext`` and stops at
the first failing one; ``validate`` reports every stage.  Each command prints
either a plain text table or a JSON report (--format report).  Output
is deterministic for a given input: tables are sorted, rationals are printed
in lowest terms, and nothing environment-dependent is emitted.  Exit codes:
0 on success, 1 when a check or computation fails, 2 for usage errors and
unreadable input.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from .fan import enumerate_effective
from .jk import SeededTieBreak
from .lattice import GeometryError, InvariantError, primitive_vector, vec_neg
from .mirror import (
    ResidueContext,
    interior_points_at_height,
    rm_coefficient,
    rm_series,
    verify_hessian_identity,
    verify_ideal_vanishing,
)
from .mpcayley import (
    cayley_rm_coefficient,
    ci_series,
    ci_series_coefficient,
    crosscheck_coefficient,
    evaluation_value_pair,
    part_degrees,
    substitution_value_pair,
)
from .mixedvol import mixed_volume_table, verify_mixed_volume_theorem
from .problem import ProblemContext, ProblemError, load_problem


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="toricres",
        description="exact residue and series computations on triangulated "
                    "lattice polytopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("validate", "structural and semantic checks of a problem file"),
        ("series", "series coefficients up to the degree bound"),
        ("verify", "run the identity battery for a problem"),
        ("mixed-volume", "mixed volume table of the nef parts"),
    ]
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("problem", help="path to a problem JSON file")
        p.add_argument("--bound", type=int, default=None,
                       help="degree bound (default: the file's bound)")
        p.add_argument("--v0", default=None,
                       help="completion ray, comma-separated integers")
        p.add_argument("--seed", type=int, default=0,
                       help="base seed for the tie-break battery")
        p.add_argument("--format", choices=("table", "report"),
                       default="table", help="output style")
    return parser


#: Built once at import; ``parse_args`` leaves it unchanged between calls.
_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        handler = {
            "validate": run_validate,
            "series": run_series,
            "verify": run_verify,
            "mixed-volume": run_mixed_volume,
        }[args.command]
        return handler(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ProblemError, GeometryError, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _parse_v0(args):
    if args.v0 is None:
        return None
    try:
        return tuple(int(x) for x in args.v0.split(","))
    except ValueError:
        raise ProblemError(f"--v0 expects comma-separated integers, got {args.v0!r}")


def _bound(args, spec):
    bound = args.bound if args.bound is not None else spec.bound
    if bound < 0:
        raise ProblemError("the degree bound must be nonnegative")
    return bound


def _fmt(value):
    return str(Fraction(value))


def _emit_report(payload):
    print(json.dumps(payload, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def run_validate(args):
    spec = load_problem(args.problem)
    pc = ProblemContext.unassembled(spec, v0=_parse_v0(args))
    rows = []
    for name, stage in pc.stages():
        if rows and rows[-1][1] != "ok":
            rows.append((name, "-", "skipped"))
            continue
        try:
            rows.append((name, "ok", stage()))
        except (ProblemError, GeometryError, InvariantError) as exc:
            rows.append((name, "FAIL", str(exc)))

    ok = all(status == "ok" for _, status, _ in rows)
    if args.format == "report":
        _emit_report({
            "command": "validate",
            "name": spec.name,
            "ok": ok,
            "checks": [
                {"name": name, "status": status, "detail": detail}
                for name, status, detail in rows
            ],
        })
    else:
        print(f"# {spec.name}: validate")
        for name, status, detail in rows:
            print(f"{status:4} {name:18} {detail}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def run_series(args):
    spec = load_problem(args.problem)
    pc = ProblemContext(spec, v0=_parse_v0(args))
    bound = _bound(args, spec)
    if pc.is_nef:
        table = ci_series(pc.cayley, pc.polynomial, bound)
        fan = pc.cayley.bar_fan
    else:
        table = rm_series(pc.residue, pc.polynomial, bound)
        fan = pc.fan
    entries = []
    for beta, coeff in table.entries:
        entries.append({
            "degree": sum(a * b for a, b in zip(table.ample, beta)),
            "class": list(beta),
            "coords": list(fan.relation_coords(beta)) if fan.relation_basis
                      else [],
            "value": _fmt(coeff),
        })
    if args.format == "report":
        _emit_report({
            "command": "series",
            "name": spec.name,
            "bound": bound,
            "ample": list(table.ample),
            "v0": None if table.v0 is None else list(table.v0),
            "entries": entries,
        })
    else:
        v0_note = "" if table.v0 is None else f"  v0={table.v0}"
        print(f"# {spec.name}: series  bound={bound}  "
              f"ample={table.ample}{v0_note}")
        print("degree  class                     coords        value")
        for row in entries:
            print(f"{row['degree']:<7} {str(tuple(row['class'])):<25} "
                  f"{str(tuple(row['coords'])):<13} {row['value']}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _pick_gamma(fan):
    """Deterministic admissible weights: 1/(w, v_i) for the first usable w."""
    height = fan.height_dual
    candidates = []
    for k in range(fan.rank):
        for sign in (1, -1):
            delta = [0] * fan.rank
            delta[k] = sign
            candidates.append(tuple(h + d for h, d in zip(height, delta)))
    candidates.append(tuple(2 * h for h in height))
    for w in candidates:
        pairings = [sum(a * b for a, b in zip(w, g)) for g in fan.generators]
        if all(p > 0 for p in pairings):
            return tuple(Fraction(1, p) for p in pairings)
    return None


def _interior_lifts(ctx, count):
    """Nonnegative degree-(rank-1) exponent vectors with interior image."""
    out = []
    for combo in itertools.combinations_with_replacement(
            range(ctx.n), ctx.rank - 1):
        exps = [0] * ctx.n
        for i in combo:
            exps[i] += 1
        if ctx.is_interior_point(ctx.push(exps)):
            out.append(tuple(exps))
            if len(out) == count:
                break
    return out


def _alternate_completion(fan, avoid):
    """A second valid completion ray, lexicographically earliest; None if none."""
    for height in range(1, fan.rank + 2):
        for z in interior_points_at_height(fan, height):
            v = primitive_vector(vec_neg(z))
            if v != tuple(avoid):
                return v
    return None


def _verify_checks(pc, bound, seed):
    """The identity battery; returns a list of (name, callable) pairs."""
    ctx = pc.residue
    P_work = pc.residue_polynomial
    checks = []

    def hessian_plain():
        report = verify_hessian_identity(ctx, None, bound)
        if not report.ok:
            return False, (f"constant {report.constant_term} vs cone total "
                           f"{report.expected}, {len(report.violations)} "
                           "nonvanishing classes")
        return True, (f"constant term {report.constant_term} matches the "
                      "cone volume total; all other classes vanish")
    checks.append(("hessian-normalization", hessian_plain))

    def hessian_weighted():
        gamma = _pick_gamma(ctx.fan)
        if gamma is None:
            return True, "skipped: no admissible weights found"
        report = verify_hessian_identity(ctx, gamma, bound)
        if not report.ok:
            return False, (f"weighted constant {report.constant_term} vs "
                           f"{report.expected}")
        return True, f"holds for weights {tuple(str(g) for g in gamma)}"
    checks.append(("hessian-weighted", hessian_weighted))

    def ideal_vanishing():
        lifts = _interior_lifts(ctx, 2)
        if not lifts:
            return False, "no interior lift of degree rank-1 exists"
        tried = 0
        for lift in lifts:
            for k in range(ctx.rank):
                w = tuple(int(i == k) for i in range(ctx.rank))
                if not verify_ideal_vanishing(ctx, w, lift, bound):
                    return False, f"fails for w=e_{k}, lift {lift}"
                tried += 1
        return True, (f"{tried} derivative/lift combinations vanish on every "
                      "class")
    checks.append(("ideal-vanishing", ideal_vanishing))

    if pc.is_nef:
        def pushout_agreement():
            classes = enumerate_effective(pc.cayley.bar_fan, bound)
            for beta_bar in classes:
                lhs = cayley_rm_coefficient(ctx, pc.cayley, pc.polynomial,
                                            beta_bar)
                rhs = ci_series_coefficient(pc.cayley, pc.polynomial, beta_bar)
                if lhs != rhs:
                    return False, (f"class {beta_bar}: residues give {lhs}, "
                                   f"pushout gives {rhs}")
            return True, f"{len(classes)} classes agree up to degree {bound}"
    else:
        def pushout_agreement():
            classes = ctx.effective_classes(bound)
            for beta in classes:
                result = crosscheck_coefficient(ctx, pc.polynomial, beta)
                if not result.ok:
                    return False, (f"class {beta}: residues give "
                                   f"{result.series_value}, pushout gives "
                                   f"{result.pushout_value}")
            return True, f"{len(classes)} classes agree up to degree {bound}"
    checks.append(("series-pushout-agreement", pushout_agreement))

    def tie_breaks():
        monomials = sorted(P_work)[:2]
        classes = ctx.effective_classes(bound)[:3]
        compared = 0
        for exps in monomials:
            for beta in classes:
                reference = rm_coefficient(ctx, exps, beta)
                for s in (seed, seed + 1, seed + 2):
                    value = rm_coefficient(ctx, exps, beta,
                                           tie_break=SeededTieBreak(s))
                    if value != reference:
                        return False, (f"seed {s} changes the coefficient at "
                                       f"{beta} from {reference} to {value}")
                    compared += 1
        return True, f"{compared} seeded reductions match the default order"
    checks.append(("tie-break-independence", tie_breaks))

    def completions():
        alt = _alternate_completion(ctx.fan, ctx.v0)
        if alt is None:
            return False, "no alternate completion ray found"
        other = ResidueContext(ctx.fan, alt, ample=ctx.ample)
        base = rm_series(ctx, P_work, bound)
        again = rm_series(other, P_work, bound)
        if base.entries != again.entries:
            return False, f"tables differ between v0={ctx.v0} and v0={alt}"
        return True, f"table unchanged under v0={ctx.v0} vs v0={alt}"
    checks.append(("completion-independence", completions))

    if pc.is_nef:
        def substitution():
            cayley = pc.cayley
            ones = (1,) * cayley.apex_offset
            compared = 0
            for beta_bar in enumerate_effective(cayley.bar_fan, bound):
                ks = part_degrees(cayley, beta_bar)
                for exps in sorted(pc.polynomial):
                    m_bar = tuple(e - b - o
                                  for e, b, o in zip(exps, beta_bar, ones))
                    lhs, rhs = substitution_value_pair(cayley, ctx, m_bar, ks)
                    if lhs != rhs:
                        return False, (f"class {beta_bar}, monomial {exps}: "
                                       f"Cayley side {lhs}, base side {rhs}")
                    compared += 1
            return True, (f"{compared} apex substitutions match the base-fan "
                          "residues")
        checks.append(("pushforward-substitution", substitution))

        def evaluation():
            cayley = pc.cayley
            samples = [pc.polynomial]
            for cone in cayley.bar_fan.max_cones[:3]:
                exps = [0] * cayley.apex_offset
                for b in cone:
                    exps[b] += 1
                samples.append({tuple(exps): Fraction(1)})
            for P in samples:
                base, upstairs = evaluation_value_pair(cayley, P)
                if base != upstairs:
                    return False, (f"base value {base} differs from Cayley "
                                   f"value {upstairs}")
            return True, (f"{len(samples)} top classes evaluate equally on "
                          "both fans")
        checks.append(("evaluation-compatibility", evaluation))

        def mixed_volumes():
            report = verify_mixed_volume_theorem(pc.cayley, bound, v0=ctx.v0)
            if not report.ok:
                bad = [k for k, res, vol, clean in report.rows
                       if res != vol or not clean]
                return False, f"mismatch at grades {bad}"
            pairs = ", ".join(
                f"{k}->{_fmt(res)}" for k, res, _, _ in report.rows
            )
            return True, f"residues equal mixed volumes: {pairs}"
        checks.append(("mixed-volume-theorem", mixed_volumes))

    return checks


def run_verify(args):
    spec = load_problem(args.problem)
    pc = ProblemContext(spec, v0=_parse_v0(args))
    bound = _bound(args, spec)
    checks = _verify_checks(pc, bound, args.seed)

    def run_one(fn):
        try:
            return fn()
        except (ProblemError, GeometryError, InvariantError) as exc:
            return False, str(exc)

    outcomes = [run_one(fn) for _, fn in checks]

    rows = [(name, ok, detail)
            for (name, _), (ok, detail) in zip(checks, outcomes)]
    ok_all = all(ok for _, ok, _ in rows)
    if args.format == "report":
        _emit_report({
            "command": "verify",
            "name": spec.name,
            "bound": bound,
            "ok": ok_all,
            "checks": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in rows
            ],
        })
    else:
        print(f"# {spec.name}: verify  bound={bound}")
        for name, ok, detail in rows:
            print(f"{'ok' if ok else 'FAIL':4} {name:26} {detail}")
    return 0 if ok_all else 1


# ---------------------------------------------------------------------------
# mixed-volume
# ---------------------------------------------------------------------------

def run_mixed_volume(args):
    spec = load_problem(args.problem)
    if spec.nef_partition is None:
        print("error: mixed-volume needs a problem file with a nef_partition",
              file=sys.stderr)
        return 2
    pc = ProblemContext(spec, v0=_parse_v0(args))
    table = mixed_volume_table(pc.cayley)
    entries = [
        {"kbar": list(k), "value": _fmt(v)} for k, v in sorted(table.items())
    ]
    if args.format == "report":
        _emit_report({
            "command": "mixed-volume",
            "name": spec.name,
            "entries": entries,
        })
    else:
        print(f"# {spec.name}: mixed-volume")
        print("kbar        value")
        for row in entries:
            print(f"{str(tuple(row['kbar'])):<11} {row['value']}")
    return 0
