"""Command-line interface: invert, tabulate, cross-compare, identity sweeps.

Exit codes: 0 success, 1 numerical comparison failure (or runtime numeric
error), 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
import time

from . import __version__
from .closedform import Impulse, QuadPole, RealPole, eval_sequence, invert, quad_seq0, render
from .corpus import random_rational
from .errors import ParseError, ZinvError
from .identities import (
    binomial_general,
    internal_summation_holds,
    pair_convolution_series,
    surjection_count,
)
from .oracles import juric_series, longdiv_series, moreira_series, residue_value
from .oracles import compare_methods, within_bound
from .parser import batch_expressions, parse_rational_expr

DEFAULT_N = 50
DEFAULT_TOL = 1e-7
DEFAULT_SEED = 12345
CONV_GRID_AB = ((0, 1), (1, 1), (1, 2), (0.5, 0.8))


def _fail(msg):
    print(f"error: {msg}", file=sys.stderr)


def _inputs(args):
    """(label, expression) pairs from the positional arg or a batch file."""
    if args.batch:
        with open(args.batch, "r", encoding="utf-8") as fh:
            entries = batch_expressions(fh.read())
        if not entries:
            raise ParseError(f"batch file {args.batch!r} contains no expressions")
        return [(f"{args.batch}:{lineno}", text) for lineno, text in entries]
    if not args.expression:
        raise ParseError("an expression (or --batch FILE) is required")
    return [("arg", args.expression)]


def _term_dict(t):
    if isinstance(t, Impulse):
        return {"kind": "impulse", "amp": t.amp, "index": t.index}
    if isinstance(t, RealPole):
        return {"kind": "real_pole", "amp": t.amp, "pole": t.pole, "mult": t.mult}
    return {
        "kind": "quad_pole",
        "z_amp": t.z_amp,
        "const_amp": t.const_amp,
        "a": t.a,
        "b": t.b,
        "mult": t.mult,
    }


def _poly_part_coeffs(expr):
    mono = {-t.index: t.amp for t in expr.terms if isinstance(t, Impulse) and t.index <= 0}
    if not mono:
        return []
    out = [0.0] * (max(mono) + 1)
    for k, amp in mono.items():
        out[k] = amp
    return out


def cmd_invert(args):
    if args.format == "csv":
        _fail("csv output is not defined for 'invert'; use text or json")
        return 2
    results = []
    for label, text in _inputs(args):
        expr = invert_from_text(text, drop_tol=args.tol)
        results.append((label, text, expr))
    if args.format == "json":
        payload = [
            {
                "input": text,
                "poly_part": _poly_part_coeffs(expr),
                "terms": [_term_dict(t) for t in expr.terms],
                "warnings": list(expr.warnings),
                "formula": render(expr),
            }
            for _, text, expr in results
        ]
        print(json.dumps(payload[0] if not args.batch else payload, indent=2))
    else:
        for _, text, expr in results:
            for w in expr.warnings:
                print(f"warning: {w}", file=sys.stderr)
            if args.batch:
                print(f"{text} -> {render(expr)}")
            else:
                print(render(expr))
    return 0


def invert_from_text(text, drop_tol=None):
    x, factored = parse_rational_expr(text)
    if drop_tol is None:
        return invert(x, factored=factored)
    return invert(x, factored=factored, drop_tol=drop_tol)


def _series_for(method, x, factored, n_max):
    if method == "proposed":
        return eval_sequence(invert(x, factored=factored), n_max).values, 0
    if method == "longdiv":
        return longdiv_series(x, n_max).values, 0
    if method == "moreira":
        return moreira_series(x, n_max).values, 0
    if method == "juric":
        return juric_series(x, n_max).values, 0
    # residue excludes n = 0 by contract; the table starts at n = 1
    print("note: residue method starts at n=1 (n=0 is out of its domain)", file=sys.stderr)
    return tuple(residue_value(x, n) for n in range(1, n_max + 1)), 1


def cmd_table(args):
    rows_by_input = []
    for label, text in _inputs(args):
        x, factored = parse_rational_expr(text)
        if args.method == "all":
            methods = ("proposed", "longdiv", "moreira", "juric")
            cols = {}
            for m in methods:
                vals, start = _series_for(m, x, factored, args.n)
                cols[m] = (vals, start)
            rows = [
                [n] + [cols[m][0][n - cols[m][1]] for m in methods]
                for n in range(args.n + 1)
            ]
            header = ["n", *methods]
        else:
            vals, start = _series_for(args.method, x, factored, args.n)
            rows = [[n + start, v] for n, v in enumerate(vals)]
            header = ["n", "x"]
        rows_by_input.append((text, header, rows))

    if args.format == "json":
        payload = [
            {
                "input": text,
                "method": args.method,
                "n_max": args.n,
                "columns": header,
                "values": [row[1:] if len(header) > 2 else row[1] for row in rows],
                "n_start": rows[0][0] if rows else 0,
            }
            for text, header, rows in rows_by_input
        ]
        print(json.dumps(payload[0] if not args.batch else payload, indent=2))
        return 0
    if args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for text, header, rows in rows_by_input:
            writer.writerow(header)
            writer.writerows(rows)
        sys.stdout.write(out.getvalue())
        return 0
    for text, header, rows in rows_by_input:
        if args.batch:
            print(f"# {text}")
        for row in rows:
            cells = [str(row[0])] + [f"{v:.12g}" for v in row[1:]]
            print(" ".join(cells))
    return 0


def _report_dict(text, report):
    return {
        "input": text,
        "n_max": report.n_max,
        "tolerance": report.tolerance,
        "scale": report.scale,
        "passed": report.passed,
        "methods": {
            name: {
                "ok": run.values is not None,
                "seconds": run.seconds,
                "error": run.error,
            }
            for name, run in report.methods.items()
        },
        "pairs": [
            {"a": a, "b": b, "max_dev": dev} for a, b, dev in report.pairs
        ],
        "residue_checks": [
            {"n": n, "value": val, "deviation": dev, "error": err}
            for n, val, dev, err in report.residue_checks
        ],
    }


def _print_report(text, report):
    print(f"input: {text}")
    for name, run in report.methods.items():
        status = "ok" if run.values is not None else f"error: {run.error}"
        print(f"  {name:<9} {run.seconds * 1e3:8.2f} ms  {status}")
    bound = report.tolerance * report.scale
    print(f"  pairwise max |dev| (bound {bound:.3g}):")
    for a, b, dev in report.pairs:
        mark = "PASS" if within_bound(dev, bound) else "FAIL"
        print(f"    {a:<9} vs {b:<9} {dev:.3g}  {mark}")
    for n, val, dev, err in report.residue_checks:
        if err is not None:
            print(f"    residue n={n}: error: {err}")
        else:
            mark = "PASS" if within_bound(dev, bound) else "FAIL"
            print(f"    residue n={n}: dev {dev:.3g}  {mark}")
    print("PASS" if report.passed else "FAIL")


def cmd_compare(args):
    if args.fuzz:
        return _compare_fuzz(args)
    payloads = []
    all_pass = True
    for label, text in _inputs(args):
        x, factored = parse_rational_expr(text)
        report = compare_methods(x, n_max=args.n, tol=args.tol, factored=factored)
        all_pass = all_pass and report.passed
        payloads.append((text, report))
    if args.format == "json":
        objs = [_report_dict(text, rep) for text, rep in payloads]
        print(json.dumps(objs[0] if not args.batch else objs, indent=2))
    else:
        for text, rep in payloads:
            _print_report(text, rep)
    return 0 if all_pass else 1


def _compare_fuzz(args):
    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    worst = 0.0
    worst_case = None
    failures = []
    for i in range(args.fuzz):
        x, factored = random_rational(rng)
        report = compare_methods(x, n_max=args.n, tol=args.tol, factored=factored)
        dev = report.worst_pair_deviation() / max(report.scale, 1.0)
        if dev > worst:
            worst, worst_case = dev, (i, str(x))
        if not report.passed:
            failures.append((i, str(x)))
    elapsed = time.perf_counter() - t0
    summary = {
        "cases": args.fuzz,
        "seed": args.seed,
        "n_max": args.n,
        "tolerance": args.tol,
        "worst_scaled_deviation": worst,
        "worst_case": None if worst_case is None else {"index": worst_case[0], "input": worst_case[1]},
        "failures": [{"index": i, "input": s} for i, s in failures],
        "seconds": elapsed,
        "passed": not failures,
    }
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"fuzz: {args.fuzz} cases, seed {args.seed}, n_max {args.n}, "
            f"tol {args.tol:g} ({elapsed:.2f} s)"
        )
        if worst_case is not None:
            print(f"worst scaled deviation: {worst:.3g} (case {worst_case[0]})")
        print(f"failures: {len(failures)}")
        for i, s in failures[:10]:
            print(f"  case {i}: {s}")
        print("PASS" if not failures else "FAIL")
    return 0 if not failures else 1


def cmd_identities(args):
    tol = args.tol if args.tol is not None else 1e-9

    sum_fail = []
    sum_cases = 0
    for k in range(1, 7):
        for j in range(k):
            for n in range(41):
                sum_cases += 1
                if not internal_summation_holds(k, j, n):
                    sum_fail.append((k, j, n))

    surj_fail = []
    surj_cases = 0
    for sigma in range(1, 11):
        for p in range(sigma):
            surj_cases += 1
            if surjection_count(sigma, p) != 0:
                surj_fail.append((sigma, p))
    spot_fail = []
    for sigma in range(1, 11):
        if surjection_count(sigma, sigma) != math.factorial(sigma):
            spot_fail.append(sigma)

    conv_dev = 0.0
    conv_cases = 0
    conv_fail = []
    for a, b in CONV_GRID_AB:
        for k in range(1, 5):
            series = pair_convolution_series(a, b, k, 40)
            for n in range(41):
                conv_cases += 1
                dev = abs(series.values[n] - quad_seq0(a, b, k, n))
                conv_dev = max(conv_dev, dev)
                if dev > tol:
                    conv_fail.append((a, b, k, n, dev))

    binom_fail = []
    for nu in range(0, 31):
        for kappa in range(0, nu + 1):
            if binomial_general(nu, kappa) != math.comb(nu, kappa):
                binom_fail.append((nu, kappa))

    passed = not (sum_fail or surj_fail or spot_fail or conv_fail or binom_fail)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "internal_summation": {
                        "cases": sum_cases,
                        "failures": [list(f) for f in sum_fail],
                    },
                    "surjection": {
                        "cases": surj_cases,
                        "failures": [list(f) for f in surj_fail],
                        "spot_failures": spot_fail,
                    },
                    "convolution_vs_closed_form": {
                        "cases": conv_cases,
                        "max_dev": conv_dev,
                        "tolerance": tol,
                        "failures": [list(f) for f in conv_fail],
                    },
                    "binomial_consistency": {
                        "failures": [list(f) for f in binom_fail]
                    },
                    "passed": passed,
                },
                indent=2,
            )
        )
    else:
        print(
            f"internal_summation: {len(sum_fail)} failures "
            f"(k<=6, j<k, n<=40; {sum_cases} cases)"
        )
        for k, j, n in sum_fail[:5]:
            print(f"  counterexample: k={k} j={j} n={n}")
        print(
            f"surjection: {len(surj_fail)} failures (sigma<=10, p<=sigma-1; "
            f"{surj_cases} cases); p=sigma spot checks: {len(spot_fail)} failures"
        )
        for sigma, p in surj_fail[:5]:
            print(f"  counterexample: sigma={sigma} p={p}")
        print(
            f"convolution_vs_closed_form: max dev {conv_dev:.3g} over "
            f"{conv_cases} cases (tol {tol:g})"
        )
        for a, b, k, n, dev in conv_fail[:5]:
            print(f"  counterexample: a={a} b={b} k={k} n={n} dev={dev:.3g}")
        print(f"binomial_consistency: {len(binom_fail)} failures (nu<=30)")
        print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def _build():
    top = argparse.ArgumentParser(
        prog="zinv",
        description="Closed-form inverse Z-transforms of rational functions in z, "
        "with cross-validating series oracles.",
    )
    top.add_argument("--version", action="version", version=f"zinv {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, expr=True):
        if expr:
            p.add_argument("expression", nargs="?", help="rational expression in z")
            p.add_argument("--batch", metavar="FILE", help="file with one expression per line ('#' comments)")
        p.add_argument(
            "--format",
            choices=("text", "json", "csv"),
            default="text",
            help="output format (default text)",
        )

    p = sub.add_parser("invert", help="closed-form inverse transform")
    common(p)
    p.add_argument(
        "--tol",
        type=float,
        default=None,
        help="relative amplitude below which expansion terms are dropped (default 1e-12)",
    )
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("table", help="tabulate x[n] with a chosen method")
    common(p)
    p.add_argument("--n", type=int, default=DEFAULT_N, help=f"largest index (default {DEFAULT_N})")
    p.add_argument(
        "--method",
        choices=("proposed", "longdiv", "moreira", "juric", "residue", "all"),
        default="proposed",
    )
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("compare", help="cross-validate all methods")
    common(p)
    p.add_argument("--n", type=int, default=DEFAULT_N, help=f"largest index (default {DEFAULT_N})")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help=f"scaled tolerance (default {DEFAULT_TOL:g})")
    p.add_argument("--fuzz", type=int, metavar="N", help="compare N random rationals instead of an expression")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"fuzz seed (default {DEFAULT_SEED})")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("identities", help="run the exact identity sweeps")
    common(p, expr=False)
    p.add_argument("--tol", type=float, default=None, help="convolution sweep tolerance (default 1e-9)")
    p.set_defaults(func=cmd_identities)

    return top


def main(argv=None):
    args = _build().parse_args(argv)
    try:
        if args.command in ("table", "compare") and args.n < 0:
            _fail("--n must be >= 0")
            return 2
        if args.command == "compare" and args.tol <= 0:
            _fail("--tol must be > 0")
            return 2
        return args.func(args)
    except ParseError as exc:
        _fail(str(exc))
        return 2
    except FileNotFoundError as exc:
        _fail(str(exc))
        return 2
    except (ZinvError, ValueError, ZeroDivisionError, OverflowError) as exc:
        _fail(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
