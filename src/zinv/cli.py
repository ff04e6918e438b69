"""Command-line interface: invert, tabulate, cross-compare, identity sweeps.

Each cmd_* builds the JSON documents it prints, one per input (one for a
whole --fuzz run or identity sweep), and returns them with the function that
prints one as text or CSV; main prints the JSON and picks the exit code.

Exit codes: 0 success, 1 numerical comparison failure (or runtime numeric
error), 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import random
import sys
import time

from . import __version__
from .closedform import (
    Impulse, QuadPole, RealPole, eval_sequence, invert, invert_expression, render
)
from .corpus import random_rational
from .errors import ParseError
from .factorize import FactoredDenominator, QuadraticFactor
from .identities import (
    binomial_general,
    internal_summation_holds,
    pair_convolution_series,
    surjection_count,
)
from .oracles import (
    METHOD_ERRORS,
    SERIES_METHODS,
    OraclePoles,
    compare_methods,
    residue_value,
    within_bound,
)
from .parser import batch_expressions, parse_rational_expr
from .pfe import RationalFunction
from .polynomial import ONE

DEFAULT_N = 50
DEFAULT_TOL = 1e-7
DEFAULT_SEED = 12345
CONV_TOL = 1e-9  # the identity sweep's bound on |convolution - closed form|
CONV_GRID_AB = ((0, 1), (1, 1), (1, 2), (0.5, 0.8))
TERM_KINDS = {Impulse: "impulse", RealPole: "real_pole", QuadPole: "quad_pole"}


def _fail(msg):
    print(f"error: {msg}", file=sys.stderr)


def _inputs(args):
    """The expressions to run: the positional arg, or each one in a batch file."""
    if args.batch:
        with open(args.batch, "r", encoding="utf-8") as fh:
            entries = batch_expressions(fh.read())
        if not entries:
            raise ParseError(f"batch file {args.batch!r} contains no expressions")
        return [text for _, text in entries]
    if not args.expression:
        raise ParseError("an expression (or --batch FILE) is required")
    return [args.expression]


def _term_dict(t):
    # JSON keys are the term's fields, in declaration order (__init__ sets them so)
    return {"kind": TERM_KINDS[type(t)], **vars(t)}


def _poly_part_coeffs(expr):
    mono = {-t.index: t.amp for t in expr.terms if isinstance(t, Impulse) and t.index <= 0}
    return [mono.get(k, 0.0) for k in range(max(mono, default=-1) + 1)]


def cmd_invert(args):
    docs = []
    for text in _inputs(args):
        expr = invert_expression(text)
        docs.append(
            {
                "input": text,
                "poly_part": _poly_part_coeffs(expr),
                "terms": [_term_dict(t) for t in expr.terms],
                "warnings": list(expr.warnings),
                "formula": render(expr),
            }
        )
    return docs, _print_invert


def _print_invert(args, doc):
    for w in doc["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    print(f"{doc['input']} -> {doc['formula']}" if args.batch else doc["formula"])


def cmd_table(args):
    methods = tuple(SERIES_METHODS) if args.method == "all" else (args.method,)
    docs = []
    for text in _inputs(args):
        x, factored = parse_rational_expr(text)
        poles = OraclePoles(x)
        if args.method == "residue":
            # residue excludes n = 0 by contract; the table starts at n = 1
            print("note: residue method starts at n=1 (n=0 is out of its domain)", file=sys.stderr)
            ns = range(1, args.n + 1)
            cols = [[residue_value(x, n, poles=poles) for n in ns]]
        else:
            ns = range(args.n + 1)
            cols = [SERIES_METHODS[m](x, args.n, factored, poles) for m in methods]
        docs.append(
            {
                "input": text,
                "method": args.method,
                "n_max": args.n,
                "columns": ["n", *methods] if len(cols) > 1 else ["n", "x"],
                "values": list(map(list, zip(*cols))) if len(cols) > 1 else cols[0],
                "n_start": ns[0] if ns else 0,
            }
        )
    return docs, _print_table


def _print_table(args, doc):
    # values[i] is x[n_start + i]: one number, or a row of one per method
    multi = len(doc["columns"]) > 2
    rows = enumerate(doc["values"], doc["n_start"])
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(doc["columns"])
        writer.writerows([n, *v] if multi else [n, v] for n, v in rows)
        return
    # the whole document in one write, not one print per row
    if multi:
        lines = [f"{n} {' '.join([f'{x:.12g}' for x in v])}\n" for n, v in rows]
    else:
        lines = [f"{n} {v:.12g}\n" for n, v in rows]
    sys.stdout.write((f"# {doc['input']}\n" if args.batch else "") + "".join(lines))


def _report_dict(text, report):
    return {
        "input": text,
        "n_max": report.n_max,
        "tolerance": report.tolerance,
        "scale": report.scale,
        "passed": report.passed,
        "methods": {
            name: {"ok": run.values is not None, "seconds": run.seconds, "error": run.error}
            for name, run in report.methods.items()
        },
        "pairs": [{"a": a, "b": b, "max_dev": dev} for a, b, dev in report.pairs],
        "residue_checks": [
            {"n": n, "value": val, "deviation": dev, "error": err}
            for n, val, dev, err in report.residue_checks
        ],
    }


def _print_report(args, doc):
    print(f"input: {doc['input']}")
    for name, run in doc["methods"].items():
        status = "ok" if run["ok"] else f"error: {run['error']}"
        print(f"  {name:<9} {run['seconds'] * 1e3:8.2f} ms  {status}")
    bound = doc["tolerance"] * doc["scale"]
    print(f"  pairwise max |dev| (bound {bound:.3g}):")
    for pair in doc["pairs"]:
        mark = "PASS" if within_bound(pair["max_dev"], bound) else "FAIL"
        print(f"    {pair['a']:<9} vs {pair['b']:<9} {pair['max_dev']:.3g}  {mark}")
    for check in doc["residue_checks"]:
        if check["error"] is not None:
            print(f"    residue n={check['n']}: error: {check['error']}")
        else:
            mark = "PASS" if within_bound(check["deviation"], bound) else "FAIL"
            print(f"    residue n={check['n']}: dev {check['deviation']:.3g}  {mark}")
    print("PASS" if doc["passed"] else "FAIL")


def cmd_compare(args):
    if args.fuzz is not None:
        return [_fuzz_doc(args)], _print_fuzz
    docs = []
    for text in _inputs(args):
        x, factored = parse_rational_expr(text)
        report = compare_methods(x, n_max=args.n, tol=args.tol, factored=factored)
        docs.append(_report_dict(text, report))
    return docs, _print_report


def _fuzz_doc(args):
    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    worst, worst_case, failures = 0.0, None, []
    for i in range(args.fuzz):
        x, factored = random_rational(rng)
        report = compare_methods(x, n_max=args.n, tol=args.tol, factored=factored)
        dev = report.worst_pair_deviation() / max(report.scale, 1.0)
        case = {"index": i, "input": str(x)}
        if dev > worst:
            worst, worst_case = dev, case
        if not report.passed:
            failures.append(case)
    return {
        "cases": args.fuzz,
        "seed": args.seed,
        "n_max": args.n,
        "tolerance": args.tol,
        "worst_scaled_deviation": worst,
        "worst_case": worst_case,
        "failures": failures,
        "seconds": time.perf_counter() - t0,
        "passed": not failures,
    }


def _print_fuzz(args, doc):
    print(
        f"fuzz: {doc['cases']} cases, seed {doc['seed']}, n_max {doc['n_max']}, "
        f"tol {doc['tolerance']:g} ({doc['seconds']:.2f} s)"
    )
    if doc["worst_case"] is not None:
        worst = doc["worst_scaled_deviation"]
        print(f"worst scaled deviation: {worst:.3g} (case {doc['worst_case']['index']})")
    print(f"failures: {len(doc['failures'])}")
    for case in doc["failures"][:10]:
        print(f"  case {case['index']}: {case['input']}")
    print("PASS" if doc["passed"] else "FAIL")


def _convolution_devs():
    """[a, b, k, n, |convolution - closed form|] over the sweep grid, the
    closed form of 1/F**k for the pair's quadratic F: its one term is s0's."""
    for a, b in CONV_GRID_AB:
        for k in range(1, 5):
            series = pair_convolution_series(a, b, k, 40).values
            f = FactoredDenominator(0, (), (QuadraticFactor(a, b, k),))
            s0 = eval_sequence(invert(RationalFunction(ONE, f.expand()), f), 40)
            for n in range(41):
                yield [a, b, k, n, abs(series[n] - s0[n])]


def cmd_identities(args):
    sums = [[k, j, n] for k in range(1, 7) for j in range(k) for n in range(41)]
    surj = [[sigma, p] for sigma in range(1, 11) for p in range(sigma)]
    conv = list(_convolution_devs())
    binom = [[nu, kappa] for nu in range(31) for kappa in range(nu + 1)]
    doc = {
        "internal_summation": {
            "cases": len(sums),
            "failures": [c for c in sums if not internal_summation_holds(*c)],
        },
        "surjection": {
            "cases": len(surj),
            "failures": [c for c in surj if surjection_count(*c) != 0],
            "spot_failures": [
                s for s in range(1, 11) if surjection_count(s, s) != math.factorial(s)
            ],
        },
        "convolution_vs_closed_form": {
            "cases": len(conv),
            "max_dev": max([0.0, *(c[-1] for c in conv)]),
            "tolerance": CONV_TOL,
            "failures": [c for c in conv if c[-1] > CONV_TOL],
        },
        "binomial_consistency": {
            "failures": [c for c in binom if binomial_general(*c) != math.comb(*c)]
        },
    }
    doc["passed"] = not any(
        part.get("failures") or part.get("spot_failures") for part in doc.values()
    )
    return [doc], _print_identities


def _print_identities(args, doc):
    sums, surj = doc["internal_summation"], doc["surjection"]
    conv, binom = doc["convolution_vs_closed_form"], doc["binomial_consistency"]
    print(
        f"internal_summation: {len(sums['failures'])} failures "
        f"(k<=6, j<k, n<=40; {sums['cases']} cases)"
    )
    for k, j, n in sums["failures"][:5]:
        print(f"  counterexample: k={k} j={j} n={n}")
    print(
        f"surjection: {len(surj['failures'])} failures (sigma<=10, p<=sigma-1; "
        f"{surj['cases']} cases); p=sigma spot checks: {len(surj['spot_failures'])} failures"
    )
    for sigma, p in surj["failures"][:5]:
        print(f"  counterexample: sigma={sigma} p={p}")
    print(
        f"convolution_vs_closed_form: max dev {conv['max_dev']:.3g} over "
        f"{conv['cases']} cases (tol {conv['tolerance']:g})"
    )
    for a, b, k, n, dev in conv["failures"][:5]:
        print(f"  counterexample: a={a} b={b} k={k} n={n} dev={dev:.3g}")
    print(f"binomial_consistency: {len(binom['failures'])} failures (nu<=30)")
    print("PASS" if doc["passed"] else "FAIL")


_SCALARS = {str, int, float, bool, type(None)}


def _json(value, pad="\n"):
    """json.dumps(value) with a two-space indent, byte for byte, for a value
    nested at pad (a newline and its indent). A scalar, an empty container or
    a container of scalars is one json.dumps call, whose separators put each
    item on its own line; any other container joins its items, each written
    one level deeper. So json's C encoder writes every scalar (an indent would
    run the Python encoder, about three times slower per value)."""
    if not value or type(value) in _SCALARS:
        return json.dumps(value)
    inner = pad + "  "
    is_dict = type(value) is dict
    if set(map(type, value.values() if is_dict else value)) <= _SCALARS:
        body = json.dumps(value, separators=("," + inner, ": "))[1:-1]
    elif is_dict:
        body = ("," + inner).join([f"{json.dumps(k)}: {_json(v, inner)}" for k, v in value.items()])
    else:
        body = ("," + inner).join([_json(v, inner) for v in value])
    return ("{" if is_dict else "[") + inner + body + pad + ("}" if is_dict else "]")


@functools.cache
def _build():
    """The argument parser, built on the first call and reused by every later main."""
    top = argparse.ArgumentParser(
        prog="zinv",
        description="Closed-form inverse Z-transforms of rational functions in z, "
        "with cross-validating series oracles.",
    )
    top.add_argument("--version", action="version", version=f"zinv {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, expr=True, formats=("text", "json")):
        if expr:
            p.add_argument("expression", nargs="?", help="rational expression in z")
            p.add_argument(
                "--batch", metavar="FILE", help="file with one expression per line ('#' comments)"
            )
        p.add_argument(
            "--format", choices=formats, default="text", help="output format (default text)"
        )

    p = sub.add_parser("invert", help="closed-form inverse transform")
    common(p)
    p.set_defaults(func=cmd_invert, usage_error=p.error)

    p = sub.add_parser("table", help="tabulate x[n] with a chosen method")
    common(p, formats=("text", "json", "csv"))
    p.add_argument("--n", type=int, default=DEFAULT_N, help=f"largest index (default {DEFAULT_N})")
    p.add_argument(
        "--method",
        choices=(*SERIES_METHODS, "residue", "all"),
        default="proposed",
    )
    p.set_defaults(func=cmd_table, usage_error=p.error)

    p = sub.add_parser("compare", help="cross-validate all methods")
    common(p)
    p.add_argument("--n", type=int, default=DEFAULT_N, help=f"largest index (default {DEFAULT_N})")
    p.add_argument(
        "--tol", type=float, default=DEFAULT_TOL,
        help=f"scaled tolerance (default {DEFAULT_TOL:g})",
    )
    p.add_argument(
        "--fuzz", type=int, metavar="N", help="compare N random rationals instead of an expression"
    )
    p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"fuzz seed (default {DEFAULT_SEED})"
    )
    p.set_defaults(func=cmd_compare, usage_error=p.error)

    p = sub.add_parser("identities", help="run the exact identity sweeps")
    common(p, expr=False)
    p.set_defaults(func=cmd_identities)

    return top


def _usage_error(args):
    """The message for the first usage rule that args break, or None."""
    if "n" in args and args.n < 0:
        return "--n must be >= 0"
    if "tol" in args and not math.isfinite(args.tol):
        return "--tol must be finite"
    if "tol" in args and args.tol <= 0:
        return "--tol must be > 0"
    if "fuzz" in args and args.fuzz is not None:
        if args.fuzz < 1:
            return "--fuzz must be >= 1"
        if args.expression is not None or args.batch is not None:
            return "--fuzz takes no expression or --batch"
    return None


def main(argv=None):
    args, extra = _build().parse_known_args(argv)
    if extra:  # argparse reads an expression that starts with '-' as an unknown option
        message = f"unrecognized arguments: {' '.join(extra)}"
        if getattr(args, "expression", "") is None and not extra[0].startswith("--"):
            args.usage_error(f"{message} (an expression that starts with '-' goes after '--')")
        _build().error(message)
    usage = _usage_error(args)
    if usage is not None:
        _fail(usage)
        return 2
    try:
        docs, show = args.func(args)
        # JSON: the one document, or the list of them under --batch
        if args.format == "json":
            print(_json(docs if "batch" in args and args.batch else docs[0]))
        else:
            for doc in docs:
                show(args, doc)
    except (ParseError, FileNotFoundError) as exc:
        _fail(str(exc))
        return 2
    except METHOD_ERRORS as exc:
        _fail(str(exc))
        return 1
    # invert and table documents carry no verdict
    return 0 if all(doc.get("passed", True) for doc in docs) else 1


if __name__ == "__main__":
    sys.exit(main())
