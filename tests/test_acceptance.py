"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The per-criterion lines bypass pytest's capture, so they appear in any run.
"""

import math
import random
import time

import numpy as np
import pytest

from zinv.closedform import (
    ClosedFormExpr,
    QuadPole,
    eval_sequence,
    invert,
    invert_expression,
)
from zinv.corpus import random_rational
from zinv.identities import (
    internal_summation_holds,
    pair_convolution_series,
    surjection_count,
)
from zinv.oracles import compare_methods, juric_series, longdiv_series, moreira_series
from zinv.parser import parse_rational_expr


@pytest.fixture(scope="module", autouse=True)
def _warm_numpy():
    # first LAPACK call pays a one-time loading cost; keep it out of the
    # timed criteria
    np.roots([1.0, 0.0, 1.0])
    np.linalg.cond(np.eye(2))


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _alternating_pattern(n_max):
    # -u[n-2]*cos(n*pi/2) takes values 0,0,1,0,-1,0,1,... exactly
    out = []
    for n in range(n_max + 1):
        if n < 2 or n % 2 == 1:
            out.append(0.0)
        elif n % 4 == 2:
            out.append(1.0)
        else:
            out.append(-1.0)
    return out


def test_criterion_1_alternating_pair_regression(capsys):
    t0 = time.perf_counter()
    x, factored = parse_rational_expr("1/(z^2+1)")
    proposed = eval_sequence(invert(x, factored=factored), 20).values
    more = moreira_series(x, 20).values
    jur = juric_series(x, 20).values
    elapsed = time.perf_counter() - t0

    expected = _alternating_pattern(20)
    dev_p = max(abs(a - b) for a, b in zip(proposed, expected))
    dev_m = max(abs(a - b) for a, b in zip(more, expected))
    dev_j = max(abs(a - b) for a, b in zip(jur, expected))
    ok = dev_p <= 1e-12 and dev_m <= 1e-12 and dev_j <= 1e-12 and elapsed < 0.1
    _report(
        capsys,
        1,
        ok,
        f"alternating-pair regression: dev proposed={dev_p:.2e} "
        f"moreira={dev_m:.2e} juric={dev_j:.2e} (tol 1e-12), {elapsed * 1e3:.1f} ms",
    )


def test_criterion_2_growing_pair_instance(capsys):
    t0 = time.perf_counter()
    x, factored = parse_rational_expr("(2*z+3)/((z^2-2*z+2)^3)")
    proposed = eval_sequence(invert(x, factored=factored), 40).values
    anchor = longdiv_series(x, 40).values
    elapsed = time.perf_counter() - t0

    dev = max(abs(a - b) for a, b in zip(proposed, anchor))
    prefix_ok = all(anchor[n] == 0 for n in range(5)) and anchor[5] == 2
    prefix_ok = prefix_ok and all(abs(proposed[n]) <= 1e-8 for n in range(5))
    prefix_ok = prefix_ok and abs(proposed[5] - 2) <= 1e-8
    ok = dev <= 1e-8 and prefix_ok and elapsed < 0.5
    _report(
        capsys,
        2,
        ok,
        f"multiplicity-3 pair vs long division: max |dev| = {dev:.2e} over n<=40 "
        f"(tol 1e-8 absolute), x[0..4]=0, x[5]=2, {elapsed * 1e3:.1f} ms",
    )


def test_criterion_3_first_terms_properties(capsys):
    rng = random.Random(20240301)
    worst_ld6 = 0.0
    worst_prop = 0.0
    ld_zero_ok = True
    for _ in range(200):
        x, factored = random_rational(rng)
        q, p = x.den.degree, x.num.degree
        ld = longdiv_series(x, q + 1).values
        for n in range(q - p):
            ld_zero_ok = ld_zero_ok and ld[n] == 0
        worst_ld6 = max(worst_ld6, abs(ld[q - p] - x.num.leading))
        prop = eval_sequence(invert(x, factored=factored), q + 1).values
        worst_prop = max(
            worst_prop,
            max((abs(prop[n]) for n in range(q - p)), default=0.0),
            abs(prop[q - p] - x.num.leading),
        )
    ok = ld_zero_ok and worst_ld6 <= 1e-12 and worst_prop <= 1e-8
    _report(
        capsys,
        3,
        ok,
        "zero prefix / first coefficient on 200 random rationals: "
        f"longdiv zeros exact={ld_zero_ok}, longdiv first-term dev={worst_ld6:.2e} "
        f"(tol 1e-12), proposed dev={worst_prop:.2e} (tol 1e-8)",
    )


def test_criterion_4_cross_method_equivalence(capsys):
    rng = random.Random(20240401)
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for i in range(300):
        x, factored = random_rational(rng)
        report = compare_methods(x, n_max=50, tol=1e-7, factored=factored)
        worst = max(worst, report.worst_pair_deviation() / report.scale)
        method_errors = [
            name for name, run in report.methods.items() if run.error is not None
        ]
        if not report.passed or method_errors:
            failures.append((i, str(x), method_errors))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(
        capsys,
        4,
        ok,
        f"300 random rationals, 4 methods + residue spot checks: "
        f"{len(failures)} failures, worst scaled dev={worst:.2e} (tol 1e-7), "
        f"{elapsed:.1f} s (< 30 s)" + (f"; first failure: {failures[0]}" if failures else ""),
    )


def test_criterion_5_exact_identity_suite(capsys):
    t0 = time.perf_counter()
    sum_cases = 0
    sum_fail = 0
    for k in range(1, 7):
        for j in range(k):
            for n in range(0, 41):
                sum_cases += 1
                if not internal_summation_holds(k, j, n):
                    sum_fail += 1
    surj_fail = sum(
        1
        for sigma in range(1, 11)
        for p in range(sigma)
        if surjection_count(sigma, p) != 0
    )
    elapsed = time.perf_counter() - t0
    ok = sum_fail == 0 and surj_fail == 0 and sum_cases >= 246 and elapsed < 5.0
    _report(
        capsys,
        5,
        ok,
        f"exact identity sweeps: internal summation {sum_fail} failures "
        f"({sum_cases} cases), surjection {surj_fail} failures, {elapsed:.2f} s",
    )


def test_criterion_6_convolution_equals_closed_form(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    prefix_ok = True
    for a, b in ((0, 1), (1, 1), (1, 2), (0.5, 0.8)):
        for k in range(1, 5):
            series = pair_convolution_series(a, b, k, 40)
            s0 = eval_sequence(ClosedFormExpr((QuadPole(0.0, 1.0, a, b, k),)), 40)
            for n in range(41):
                direct = s0[n]
                worst = max(worst, abs(series.values[n] - direct))
                if n < 2 * k:
                    prefix_ok = prefix_ok and series.values[n] == 0.0 and direct == 0.0
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and prefix_ok and elapsed < 5.0
    _report(
        capsys,
        6,
        ok,
        f"convolution route vs closed form: max |dev| = {worst:.2e} (tol 1e-9), "
        f"zero prefix exact={prefix_ok}, {elapsed:.2f} s",
    )


def test_criterion_7_shift_identity_bitwise(capsys):
    # the z-numerator sequence, as eval_sequence tabulates it, is the
    # constant-numerator sequence shifted one step left: the table's own s0
    # column, and on integer data the exact convolution route's values
    def table(z_amp, const_amp, a, b, k, n_max):
        expr = ClosedFormExpr((QuadPole(z_amp, const_amp, a, b, k),))
        return eval_sequence(expr, n_max).values

    rng = random.Random(20240701)
    ok = True
    for a, b in ((0, 1), (1, 1), (1, 2), (0.5, 0.8)):
        for k in range(1, 5):
            s1 = table(1.0, 0.0, a, b, k, 40)
            ok = ok and s1 == table(0.0, 1.0, a, b, k, 41)[1:]
            if a == int(a):
                ok = ok and s1 == pair_convolution_series(a, b, k, 41).values[1:]
    for _ in range(500):
        a = rng.uniform(-1.4, 1.4)
        b = rng.uniform(0.05, 1.4)
        k = rng.randint(1, 4)
        n = rng.randint(0, 45)
        ok = ok and table(1.0, 0.0, a, b, k, n) == table(0.0, 1.0, a, b, k, n + 1)[1:]
    _report(
capsys,
7, ok, "z-numerator sequence is bit-identical to the shifted base sequence")
