"""Checks of the benchmark's own code; run.py runs them before every run.

    python3 bench/selfcheck.py

- the exact reference equals zinv's long-division oracle bit for bit on
  integer fixtures;
- the same seed gives the same inputs, and another seed other inputs;
- span self time is right on a hand-built span tree.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

from exact import exact_series, float_series, terms_float_series
from spans import layer_totals, self_times
from workloads import WORKLOADS, make_cases


class SelfCheckError(RuntimeError):
    pass


def _require(ok, what):
    if not ok:
        raise SelfCheckError(f"benchmark self-check failed: {what}")


# integer fixtures: text and the exact numerator/denominator it denotes
INT_FIXTURES = (
    ("1/(z^2+1)", [1], [1, 0, 1]),
    ("(z^3+2*z)/((z-1)^2*(z^2+1))", [0, 2, 0, 1], [1, -2, 2, -2, 1]),
    ("(3*z^2-z+4)/(z^4-2*z^3+3*z^2-2*z+1)", [4, -1, 3], [1, -2, 3, -2, 1]),
    ("(5*z^5+1)/((z+2)^3*(z^2+2*z+5))", [1, 0, 0, 0, 0, 5], [40, 76, 62, 29, 8, 1]),
)


def check_exact_vs_longdiv(n_max=120):
    from zinv.oracles import longdiv_series
    from zinv.parser import parse_rational_expr

    fixtures = list(INT_FIXTURES) + [
        (c.text, c.num, c.den) for c in make_cases("table-int", 0)
    ]
    for text, num, den in fixtures:
        oracle = longdiv_series(parse_rational_expr(text)[0], n_max).values
        mine = exact_series(num, den, n_max)
        _require(all(type(v) is int for v in oracle), f"longdiv of {text} is not integer")
        _require(all(v.denominator == 1 for v in mine)
                 and [v.numerator for v in mine] == list(oracle),
                 f"exact series of {text} differs from longdiv_series")
        _require(float_series(num, den, n_max) == [float(v) for v in oracle],
                 f"float series of {text} is not the rounded exact series")
    # a closed-form term evaluates to its own long division
    term = {"kind": "quad_pole", "z_amp": 1.0, "const_amp": 0.0, "a": 0.0, "b": 1.0, "mult": 1}
    _require(terms_float_series([term], 8) == [0, 1, 0, -1, 0, 1, 0, -1, 0],
             "term evaluation of z/(z^2+1)")
    _require(exact_series([Fraction(1, 2)], [Fraction(-1, 4), 1], 3)
             == [0, Fraction(1, 2), Fraction(1, 8), Fraction(1, 32)],
             "dyadic long division of 0.5/(z-0.25)")


def check_seeded_inputs():
    for name in WORKLOADS:
        first = [c.argv for c in make_cases(name, 3)]
        _require(first == [c.argv for c in make_cases(name, 3)],
                 f"{name}: the same seed gave different inputs")
        _require(first != [c.argv for c in make_cases(name, 4)],
                 f"{name}: two seeds gave the same inputs")


def check_self_time():
    #  root [0, 10]
    #    a [1, 4]          b [5, 7]     c [6, 8] (overlaps b)
    #      a1 [2, 3]
    spans = [  # (id, name, start, end, parent id, request id), in order of ending
        (2, "a1", 2.0, 3.0, 1, 0),
        (1, "a", 1.0, 4.0, 0, 0),
        (3, "b", 5.0, 7.0, 0, 0),
        (4, "c", 6.0, 8.0, 0, 0),
        (0, "root", 0.0, 10.0, -1, 0),
    ]
    _require(self_times(spans) == [1.0, 2.0, 2.0, 2.0, 4.0], "self time of span tree")
    totals = layer_totals(spans + [(5, "a", 20.0, 21.0, -1, 1)])
    _require(totals["a"] == {"calls": 2, "ms": 4000.0, "self_ms": 3000.0},
             "layer totals of span tree")


def run_all():
    check_self_time()
    check_seeded_inputs()
    check_exact_vs_longdiv()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    run_all()
    print("bench self-checks passed")
