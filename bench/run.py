"""zinv benchmark: seeded CLI workloads scored against exact long division.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works on the checkout that contains this file and
imports zinv from its src/ directory. Each workload is a seeded corpus of
expressions (bench/workloads.py). The program sees only the expression text,
one expression per `zinv.cli.main` call, closed loop, one client, in a fresh
worker process (bench/worker.py).

--trace 0 measures the end-to-end metrics with tracing off, with times
scaled to reference machine speed (bench/speed.py for requests, a paired
reference spawn for setup_s; raw times are in the report). --trace 1 runs
every request twice, untraced and then with spans around each layer
(bench/spans.py), and reports per-layer cost per request.

Every output is scored against the exact series (bench/exact.py), computed
outside any timed region and cached under .bench_cache/. The last stdout line
is the result object; the full report precedes it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import selfcheck
import speed
from exact import float_series, terms_float_series
from spans import layer_totals
from worker import timed_request
from workloads import COMPARE_N, TAIL_PERCENTILE, WORKLOADS, make_cases

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"

# An output is wrong when it is off the exact series by more than TOL of the
# series' scale. A wrong formula is off by O(1); the closed form itself is
# within 2e-8 on the worst-conditioned inputs here (degree-24 double pairs).
TOL = 1e-6
SETUP_SPAWNS = 11
# expanded cubic: the first request pays numpy's root finder and LAPACK loading
WARMUP = ("invert", "1/(z^3 - 0.5*z^2 + 0.25*z - 0.125)", "--format", "json")
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from zinv.cli import main; "
    f"sys.exit(main({list(WARMUP)!r}))"
)
# A fresh interpreter that imports numpy and loads LAPACK but runs no zinv
# code, spawned beside each setup spawn; it takes about REFERENCE_SPAWN_S on
# the 2-vCPU 2.1 GHz Xeon VM the benchmark was tuned on.
REFERENCE_SPAWN_CODE = "import numpy; numpy.linalg.solve(numpy.eye(3), numpy.ones(3))"
REFERENCE_SPAWN_S = 0.15

# span name, per-request statistic
PER_LAYER = (
    ("factorize.factor_denominator", "calls"),
    ("factorize.factor_denominator", "self_ms"),
    ("factorize.find_roots", "calls"),
    ("factorize.find_roots", "ms"),
    ("factorize.cluster_and_pair", "calls"),
    ("oracles.residue_value", "calls"),
    ("oracles.residue_value", "self_ms"),
    ("oracles.moreira_series", "self_ms"),
    ("oracles.juric_series", "self_ms"),
    ("oracles.longdiv_series", "ms"),
    ("pfe.complex_pfe_over_z", "self_ms"),
    ("oracles.compare_methods", "self_ms"),
    ("pfe.real_pfe", "self_ms"),
    ("closedform.eval_sequence", "ms"),
    ("closedform.invert", "self_ms"),
    ("closedform.render", "ms"),
    ("parser.parse_rational_expr", "ms"),
    ("cli.main", "self_ms"),
)


def reference(case):
    """Exact x[0..n_ref] of the case, correctly rounded; cached on disk."""
    key = hashlib.sha256(
        repr((case.num, case.den, case.n_ref)).encode()
        + (BENCH / "exact.py").read_bytes()
    ).hexdigest()
    path = CACHE / f"{key}.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        pass
    values = float_series(case.num, case.den, case.n_ref)
    CACHE.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(values))
    os.replace(tmp, path)
    return values


def _absdiff(a, b):
    """|a - b|, with NaN and a missing value read as infinitely far."""
    if a is None:
        return math.inf
    d = abs(a - b)
    return d if d == d else math.inf


def scaled_error(xhat, ref):
    """max |xhat - x| / max(1, max |x|); inf if any value is missing or NaN."""
    if len(xhat) != len(ref):
        return math.inf
    worst = max(map(_absdiff, xhat, ref), default=0.0)
    return worst / max(1.0, max(abs(v) for v in ref))


def measure_setup():
    """Fresh interpreters importing zinv.cli and serving WARMUP: median seconds.

    Returns (at reference speed, raw). Each setup spawn is scaled by a
    REFERENCE_SPAWN_CODE spawn made just before it. A process start slows
    down with the host much as the reference spawn does, and not as the
    in-process calibration of speed.py does: over 15 pairs the medians of raw
    setup time moved by 20% from one set to the next and those of the ratio
    by 3%.
    """
    def spawn(*args):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", *args],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup request failed: {done.stderr.decode()[-500:]}")
        return time.perf_counter() - t0

    # write bytecode caches and warm the file cache: not what later starts pay
    spawn(SETUP_CODE, str(SRC))
    spawn(REFERENCE_SPAWN_CODE)
    scaled, raw = [], []
    for _ in range(SETUP_SPAWNS):
        reference_s = spawn(REFERENCE_SPAWN_CODE)
        seconds = spawn(SETUP_CODE, str(SRC))
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_SPAWN_S / reference_s)
    return statistics.median(scaled), statistics.median(raw)


def run_worker(cases, seconds, trace):
    job = {
        "src": str(SRC),
        "warmup": list(WARMUP),
        "cases": [list(c.argv) for c in cases],
        "seconds": seconds,
        "trace": trace,
    }
    CACHE.mkdir(exist_ok=True)
    # the worker writes to a file, not a pipe, so that this process stays
    # idle while requests are timed instead of reading output on the other core
    with tempfile.TemporaryFile("w+", dir=CACHE) as out:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")],
            stdin=subprocess.PIPE, stdout=out, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            _, err = proc.communicate(json.dumps(job), timeout=2 * seconds + 90)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("worker timed out")
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {err[-2000:]}")
        out.seek(0)
        lines = [json.loads(line) for line in out]
    return lines[:-1], lines[-1]


def proposed_series(text):
    """The closed form's series for a compare case, outside the timed region."""
    import zinv.cli

    _, rc, out, _ = timed_request(
        zinv.cli.main, ["table", text, "--n", str(COMPARE_N), "--format", "json"])
    return json.loads(out)["values"] if rc == 0 else None


def score(case, ref, out):
    """Score one successful (exit 0) output; raises ValueError if it does not parse."""
    try:
        obj = json.loads(out)
        kind = case.argv[0]
        if kind == "table":
            xhat = [float(v) for v in obj["values"]]
            return {"err": scaled_error(xhat, ref),
                    "bitexact": sum(a == b for a, b in zip(xhat, ref)) / len(ref)}
        if kind == "invert":
            return {"err": scaled_error(terms_float_series(obj["terms"], case.n_ref), ref)}
        passed, bound = obj["passed"] is True, obj["tolerance"] * obj["scale"]
        residues = [(c["n"], c["value"]) for c in obj["residue_checks"]]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"output does not parse: {exc!r}") from None
    xhat = proposed_series(case.text)
    err = math.inf if xhat is None else scaled_error(xhat, ref)
    scale = max(1.0, max(abs(v) for v in ref))
    # PASS although the closed form is off the exact series by more than the bound
    false_pass = passed and not err * scale <= bound
    for n, value in residues:
        err = max(err, _absdiff(value, ref[n]) / scale)
    return {"err": err, "false_pass": false_pass}


def failure_reason(rec):
    """The error line of a failed request, or the pairs a failed compare flagged."""
    try:
        report = json.loads(rec["stdout"])
        bound = report["tolerance"] * report["scale"]
        over = [f"{p['a']} vs {p['b']} {p['max_dev']:.3g}" for p in report["pairs"]
                if not p["max_dev"] <= bound]
        return f"compare FAIL: {', '.join(over)} > bound {bound:.3g}"
    except (KeyError, TypeError, ValueError):
        lines = rec["stderr"].strip().splitlines()
        return lines[-1] if lines else "(no message)"


def score_records(cases, refs, records):
    scored = {}
    failures = {}
    results = []
    for rec in records:
        case = cases[rec["case"]]
        if rec["rc"] != 0:
            failures.setdefault(rec["case"], {"shape": case.shape, "input": case.text,
                                              "rc": rec["rc"], "error": failure_reason(rec)})
            results.append(None)
            continue
        key = (rec["case"], rec["stdout"])
        if key not in scored:
            try:
                scored[key] = score(case, refs[rec["case"]], rec["stdout"])
            except ValueError as exc:
                scored[key] = None
                failures.setdefault(rec["case"], {"shape": case.shape, "input": case.text,
                                                  "rc": 0, "error": str(exc)})
        results.append(scored[key])
    return results, list(failures.values())


def accuracy(workload, results):
    good = [r for r in results if r is not None]
    acc = {
        "err_max": max((r["err"] for r in good), default=0.0),
        "fail_frac": (len(results) - len(good)) / len(results),
    }
    ok = acc["err_max"] <= TOL
    if workload == "fuzz-compare":
        acc["false_pass"] = sum(r["false_pass"] for r in good)
        ok = ok and acc["false_pass"] == 0
    if workload == "table-int":
        acc["bitexact_frac"] = min((r["bitexact"] for r in good), default=0.0)
        ok = ok and acc["bitexact_frac"] == 1.0
    return acc, ok


def latency_stats(workload, latencies_ms):
    lat = sorted(latencies_ms)
    if not lat:
        raise RuntimeError("no request succeeded")
    pct = TAIL_PERCENTILE[workload]
    rank = math.ceil(pct / 100 * len(lat))  # nearest rank
    return {
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": lat[rank - 1],
        "latency_tail_percentile": pct,
        "latency_tail_beyond": len(lat) - rank,  # samples slower than the tail value
        "latency_samples": len(lat),
    }


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def environment():
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zinv" / "__init__.py").is_file():
        print(f"error: no zinv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    selfcheck.run_all()

    cases = make_cases(args.workload, args.seed)
    refs = [reference(c) for c in cases]
    setup_s, setup_raw_s = measure_setup() if not args.trace else (None, None)
    records, summary = run_worker(cases, args.seconds, bool(args.trace))
    results, failures = score_records(cases, refs, records)
    acc, correct = accuracy(args.workload, results)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "corpus_cases": len(cases),
        "n_max": cases[0].n_ref,
        "requests": len(records),
        "tolerance": TOL,
        **acc,
        "failures": failures,
        "src_lines": src_lines(),
    }
    # times at reference speed (speed.py); raw end-to-end times go in the report
    scale = speed.factors([r["start"] for r in records], summary["calibrations"])
    if args.trace:
        busy = {False: 0.0, True: 0.0}
        for r, f in zip(records, scale):
            busy[r["traced"]] += r["latency_s"] * f
        traced = [f for r, f in zip(records, scale) if r["traced"]]
        # the spans of traced request n (1-based) are scaled by that request's factor
        spans = [(sid, name, start * traced[req - 1], end * traced[req - 1], parent, req)
                 for sid, name, start, end, parent, req in summary["spans"]]
        totals = layer_totals(spans)
        metrics = {
            f"{name}.{stat}": (totals.get(name, {}).get(stat, 0) / len(traced),
                               "calls/case" if stat == "calls" else "ms/case")
            for name, stat in PER_LAYER
        }
        metrics["trace_overhead_frac"] = (busy[True] / busy[False] - 1, "ratio")
        metrics["src_lines"] = (report["src_lines"], "lines")
        report["traced_requests"] = len(traced)
    else:
        ok = [(r["latency_s"] * 1e3, f) for r, f, res in zip(records, scale, results)
              if res is not None]
        stats = latency_stats(args.workload, [ms * f for ms, f in ok])
        raw = latency_stats(args.workload, [ms for ms, _ in ok])
        busy_s = sum(r["latency_s"] * f for r, f in zip(records, scale))
        report.update(stats)
        report["raw"] = {
            "setup_s": setup_raw_s,
            "cases_per_s": len(ok) / sum(r["latency_s"] for r in records),
            "latency_p50_ms": raw["latency_p50_ms"],
            "latency_tail_ms": raw["latency_tail_ms"],
            "speed_factor_median": statistics.median(scale),
        }
        metrics = {
            "setup_s": (setup_s, "s"),
            "cases_per_s": (len(ok) / busy_s, "1/s"),
            "latency_p50_ms": (stats["latency_p50_ms"], "ms"),
            "latency_tail_ms": (stats["latency_tail_ms"], "ms"),
            "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
        }
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(report, indent=2))
    # zinv is deterministic: an input that fails, fails in every pass. Counting
    # inputs, not requests, keeps the counts a property of the program and the
    # seed rather than of how many passes fit in the time.
    print(json.dumps({
        "correct": correct,
        "attempted": len({r["case"] for r in records}),
        "failed": len({r["case"] for r, res in zip(records, results) if res is None}),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
