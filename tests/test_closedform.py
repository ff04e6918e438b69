import cmath
import dataclasses
import functools
import json
import math
import operator
import random
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from zinv import closedform, corpus, identities

from zinv.cli import main
from zinv.closedform import (
    ClosedFormExpr,
    Impulse,
    QuadPole,
    RealPole,
    eval_sequence,
    invert,
    invert_expression,
    render,
)
from zinv.corpus import random_rational
from zinv.factorize import FactoredDenominator, LinearFactor, QuadraticFactor
from zinv.oracles import compare_methods, longdiv_series
from zinv.parser import parse_rational_expr
from zinv.pfe import RationalFunction, _amps, real_pfe
from zinv.polynomial import Polynomial


def _pair_table(z_amp, const_amp, a, b, k, n_max):
    """eval_sequence of the one term QuadPole(z_amp, const_amp, a, b, k)."""
    return eval_sequence(ClosedFormExpr((QuadPole(z_amp, const_amp, a, b, k),)), n_max).values


def _real_pole_table(amp, pole, k, n_max):
    """eval_sequence of the one term RealPole(amp, pole, k)."""
    return eval_sequence(ClosedFormExpr((RealPole(amp, pole, k),)), n_max).values


def _real_pole_per_n(amp, pole, k, n):
    """amp * C(n-1,k-1) * pole**(n-k) value by value, zero for n < k; inf
    where the power is too large for a float."""
    if n < k:
        return 0.0
    try:
        return amp * math.comb(n - 1, k - 1) * pole ** (n - k)
    except OverflowError:
        return math.inf


class TestQuadSeq0:
    """s0, the constant-numerator sequence, as eval_sequence tabulates it."""

    def test_unit_pair_alternates(self):
        # pure rotation pair: 0,0 then 1,0,-1,0,1,... (cosine pattern, lag 2)
        vals = _pair_table(0.0, 1.0, 0, 1, 1, 8)
        assert vals == (0.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0)

    def test_multiplicity_two_frozen(self):
        # frozen from the long-division oracle on 1/(z^2+1)^2:
        # series z^-4 - 2 z^-6 + 3 z^-8 - ...
        vals = _pair_table(0.0, 1.0, 0, 1, 2, 8)
        assert (vals[4], vals[6], vals[8]) == (1.0, -2.0, 3.0)

    def test_matches_longdiv_oracle(self):
        den = FactoredDenominator(0, (), (QuadraticFactor(0, 1, 2),)).expand()
        ref = longdiv_series(RationalFunction(Polynomial([1]), den), 20).values
        assert _pair_table(0.0, 1.0, 0, 1, 2, 20) == pytest.approx(ref, abs=1e-12)

    def test_zero_prefix(self):
        for k in range(1, 5):
            assert _pair_table(0.0, 1.0, 1.0, 2.0, k, 2 * k - 1) == (0.0,) * (2 * k)
            assert _pair_table(0.0, 1.0, 0.3, 0.7, k, 2 * k - 1)[2 * k - 1] == 0.0

    def test_rejects_non_pair(self):
        with pytest.raises(ValueError, match="not a complex pair"):
            _pair_table(0.0, 1.0, 1.0, 0.0, 1, 5)
        with pytest.raises(ValueError, match="not a complex pair"):
            _pair_table(0.0, 1.0, 1.0, -1.0, 1, 5)
        with pytest.raises(ValueError, match="multiplicity must be >= 1"):
            _pair_table(0.0, 1.0, 1.0, 1.0, 0, 5)

    def test_float_pair_against_longdiv(self):
        a, b, k = 0.4, 0.8, 2
        den = FactoredDenominator(0, (), (QuadraticFactor(a, b, k),)).expand()
        ref = longdiv_series(RationalFunction(Polynomial([1]), den), 30).values
        assert _pair_table(0.0, 1.0, a, b, k, 30) == pytest.approx(ref, abs=1e-10)


class TestQuadSeq1:
    """s1, the z-numerator sequence, is s0 shifted one step left, as
    eval_sequence tabulates both."""

    def test_shift_of_seq0(self):
        assert _pair_table(1.0, 0.0, 0, 1, 1, 1)[1] == _pair_table(0.0, 1.0, 0, 1, 1, 2)[2] == 1.0

    def test_multiplicity_two_frozen(self):
        # long-division oracle on z/(z^2+1)^2 puts the first 1 at n = 3
        assert _pair_table(1.0, 0.0, 0, 1, 2, 3)[3] == 1.0

    def test_support_boundary(self):
        for k in range(1, 5):
            assert _pair_table(1.0, 0.0, 1.0, 1.0, k, 2 * k - 2)[2 * k - 2] == 0.0

    def test_bit_identical_shift(self):
        rng = random.Random(4)
        for _ in range(200):
            a = rng.uniform(-1.2, 1.2)
            b = rng.uniform(0.1, 1.4)
            k = rng.randint(1, 4)
            n = rng.randint(0, 45)
            s1 = _pair_table(1.0, 0.0, a, b, k, n)
            s0 = _pair_table(0.0, 1.0, a, b, k, n + 1)
            assert s1 == s0[1:]


class TestRealPoleSeq:
    def test_simple_pole(self):
        vals = _real_pole_table(1.0, 3.0, 1, 4)
        assert (vals[0], vals[4]) == (0.0, 27.0)

    def test_triple_pole_frozen(self):
        # long-division oracle on 1/(z-2)^3 gives C(4,2)*2^2 = 24 at n = 5
        got = _real_pole_table(1.0, 2.0, 3, 12)
        assert got[5] == 24.0
        den = FactoredDenominator(0, (LinearFactor(2, 3),), ()).expand()
        ref = longdiv_series(RationalFunction(Polynomial([1]), den), 12).values
        assert got == pytest.approx(ref, abs=1e-9)

    def test_zero_before_support(self):
        for k in range(1, 6):
            assert _real_pole_table(2.5, -1.3, k, k - 1) == (0.0,) * k

    def test_origin_pole_rejected(self):
        with pytest.raises(ValueError, match="origin pole must be an impulse"):
            _real_pole_table(1.0, 0.0, 1, 3)
        with pytest.raises(ValueError, match="multiplicity must be >= 1"):
            _real_pole_table(1.0, 0.5, 0, 3)

    @pytest.mark.parametrize(
        "amp, pole, k, n_max",
        [
            (1.0, 1.9, 3, 1089),  # finite power, product rounds to inf at n = 1089
            (1.0, -2.0, 1, 1100),  # the power itself overflows, first at n = 1025
            (1e300, 1.5, 2, 1000),  # large amplitude, first at n = 40
        ],
    )
    def test_overflow_raises(self, amp, pole, k, n_max):
        # the message names the first n of the per-n formula that is not finite
        vals = [_real_pole_per_n(amp, pole, k, n) for n in range(n_max + 1)]
        first = next(n for n, v in enumerate(vals) if not math.isfinite(v))
        assert _bits(_real_pole_table(amp, pole, k, first - 1)) == _bits(vals[:first])
        msg = f"^real-pole sequence overflows a float at n={first}$"
        with pytest.raises(OverflowError, match=msg):
            _real_pole_table(amp, pole, k, n_max)
        with pytest.raises(OverflowError, match=msg):
            _real_pole_table(amp, pole, k, first)


class TestInvert:
    @pytest.mark.parametrize("c", [1e-13, 3.0, 1e-200])
    def test_amplitude_scale_survives(self, c):
        # no coefficient is too small to keep: c/(z-0.5) is c * 0.5**(n-1)
        x, f = parse_rational_expr(f"{c!r}/(z-0.5)")
        e = invert(x, factored=f)
        assert e.terms == (RealPole(c, 0.5, 1),)
        want = (0.0, *(c * 0.5 ** (n - 1) for n in range(1, 51)))
        assert eval_sequence(e, 50).values == want
        assert longdiv_series(x, 50).values == want

    def test_unit_quadratic(self):
        x, f = parse_rational_expr("1/(z^2+1)")
        e = invert(x, factored=f)
        assert e.terms == (QuadPole(0.0, 1.0, 0.0, 1.0, 1),)
        assert eval_sequence(e, 6).values == (0.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0)

    def test_simple_real_pole(self):
        e = invert_expression("1/(z-3)")
        assert e.terms == (RealPole(1.0, 3, 1),)
        vals = eval_sequence(e, 4).values
        assert vals == (0.0, 1.0, 3.0, 9.0, 27.0)

    def test_pure_origin(self):
        e = invert_expression("5/z^2")
        assert e.terms == (Impulse(5.0, 2),)
        assert eval_sequence(e, 3).values == (0.0, 0.0, 5.0, 0.0)

    def test_geometric(self):
        e = invert_expression("z/(z-1)")
        assert eval_sequence(e, 4).values == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_improper_warns(self):
        e = invert_expression("(z^3+1)/(z^2+1)")
        assert any("non-causal" in w for w in e.warnings)
        assert Impulse(1.0, -1) in e.terms

    def test_numeric_factoring_path(self):
        x, _ = parse_rational_expr("1/(z^2+1)")
        e = invert(x)  # no factored hint: goes through root finding
        assert eval_sequence(e, 6).values == pytest.approx(
            (0.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0), abs=1e-12
        )

    def test_constant_denominator_is_not_factored(self, monkeypatch):
        # the parser hands over the empty structure: no numeric factoring
        calls = []
        real = closedform.factor_denominator
        monkeypatch.setattr(closedform, "factor_denominator", lambda d: calls.append(d) or real(d))
        e = invert_expression("(z^2+1)/2")
        assert calls == []
        assert set(e.terms) == {Impulse(0.5, 0), Impulse(0.5, -2)}

    def test_polynomial_input_is_not_factored(self, monkeypatch):
        # without "/" the denominator is 1, with the empty structure; factor_calls
        # counts only the oracles' calls, so the closed form's own name is patched
        calls = []
        real = closedform.factor_denominator
        monkeypatch.setattr(closedform, "factor_denominator", lambda d: calls.append(d) or real(d))
        e = invert_expression("3*z^2 - 1")
        assert calls == []
        assert set(e.terms) == {Impulse(-1.0, 0), Impulse(3.0, -2)}

    def test_polynomial_input(self):
        e = invert_expression("3 + 2*z")
        assert set(e.terms) == {Impulse(3.0, 0), Impulse(2.0, -1)}
        assert eval_sequence(e, 2).values == (3.0, 0.0, 0.0)


class TestTermsFromRealPfe:
    """invert is real_pfe: the polynomial part's impulses, then each term with
    a nonzero amplitude, in factor order."""

    def test_corpus_terms_pass_through(self):
        rng = random.Random(42)  # the corpus of compare --fuzz 300 --seed 42
        order = (Impulse, RealPole, QuadPole)
        for _ in range(300):
            x, f = random_rational(rng)
            e = real_pfe(x, f)
            assert invert(x, factored=f) == e
            assert e.condition >= 1.0
            poly = divmod(x.num, x.den)[0]
            head = tuple(Impulse(float(c), -i) for i, c in enumerate(poly.coeffs) if c)
            assert e.terms[: len(head)] == head
            rest = e.terms[len(head):]
            assert [type(t) for t in rest] == sorted(map(type, rest), key=order.index)
            # only the structurally zero terms drop
            assert all(any(_amps(t)) for t in rest)

    @pytest.mark.parametrize(
        "text",
        [
            # a tiny amplitude at the pole of largest modulus dominates x[n]
            "(z-2.9999999999999)/((z-3)*(z-0.5))",
            "(z-1.9999999999999)/((z-1)*(z-2))",
            "((-2.07)*z^0+(0.09)*z^1+(-0.82)*z^2)/((((((0.6 z-1))*((2z+1)^3))^3) ((z+0.95)^2))"
            "*(0.21*z-2.8253884818973027))",
            # and one at a smaller pole still counts at the first n
            "(z-0.5000000000001)/((z-1)*(z-0.5))",
        ],
    )
    def test_small_amplitude_kept(self, text):
        x, f = parse_rational_expr(text)
        e = invert(x, factored=f)
        assert min(abs(a) for t in e.terms for a in _amps(t)) < 1e-12
        got = eval_sequence(e, 60).values
        want = longdiv_series(x, 60).values
        scale = max(1.0, *map(abs, want))
        assert all(abs(g - w) <= 1e-12 * scale for g, w in zip(got, want))

    @pytest.mark.parametrize(
        "text, num, den, factored",
        [
            # z^2-10 divides both, and no float is a root of it
            ("(z^2-10)/(z^3-0.5*z^2-10*z+5)", [-10, 0, 1], [5, -10, -0.5, 1], None),
            # written factored: z^2+10 cancels, and the written z-0.5 is kept
            (
                "(z^2+10)/((z^2+10)*(z-0.5))",
                [10, 0, 1],
                [-5, 10, -0.5, 1],
                FactoredDenominator(0, (LinearFactor(0.5, 1),), ()),
            ),
            # z(z^2-2)/(z^2-2)^2: one power of z^2-2 cancels
            ("(z^3-2*z)/(z^4-4*z^2+4)", [0, -2, 0, 1], [4, 0, -4, 0, 1], None),
        ],
    )
    def test_common_factor_leaves_no_term(self, text, num, den, factored):
        # a shared root found only to rounding would leave a ~1e-16 amplitude
        # at a pole of modulus above 1; the exact cancellation leaves none
        x, f = parse_rational_expr(text)
        assert x.den.degree < len(den) - 1 and f == factored
        got = eval_sequence(invert(x, factored=f), 60).values
        want = _exact_series(SimpleNamespace(num=Polynomial(num), den=Polynomial(den)), 60)
        scale = max(1.0, *map(abs, want))
        assert all(abs(g - w) <= 1e-12 * scale for g, w in zip(got, want))
        assert compare_methods(x, n_max=60, factored=f).passed

    def test_small_scale_amplitudes_kept(self):
        # every amplitude is far below 1, and no nonzero term is dropped,
        # so all six terms stay
        x, f = parse_rational_expr("1/((z-123456.789)^3*(z-1e-5)^3)")
        e = invert(x, factored=f)
        assert len(e.terms) == 6
        got = eval_sequence(e, 8).values
        want = longdiv_series(x, 8).values
        assert want[6] == 1.0
        scale = max(map(abs, want))
        assert all(abs(g - w) <= 1e-9 * scale for g, w in zip(got, want))


def _in_term_order(values):
    """0 + v1 + v2 + ..., left to right from an int 0: the additions of
    sum() up to Python 3.11 (3.12 compensates the rounding of float sums)."""
    return functools.reduce(operator.add, values, 0)


def _bits(values):
    """Each value's repr: equal lists are equal bit for bit, down to the sign
    of a zero, which == does not see and JSON prints."""
    return list(map(repr, values))


def _expansion(rng, pairs, reals):
    """Shuffled terms of every multiplicity up to k for each (a, b, k) pair
    and (pole, k) real pole; some amplitudes zero."""

    def amp():
        return rng.choice((0.0, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))

    terms = [Impulse(rng.uniform(-2.0, 2.0), rng.randint(0, 3))]
    for a, b, k in pairs:
        terms += [QuadPole(amp(), amp(), a, b, j) for j in range(1, k + 1)]
    for pole, k in reals:
        terms += [RealPole(rng.uniform(-2.0, 2.0), pole, j) for j in range(1, k + 1)]
    rng.shuffle(terms)
    return ClosedFormExpr(tuple(terms))


def _exact_fractions(num, den, n_max):
    """x[0..n_max] of num/den, exact: ascending coefficients of a proper
    fraction with a monic denominator, floats or other rationals.

    Every float is a rational. With m and f the common denominators of the
    denominator's and the numerator's coefficients, y[n] = x[n] * f * m**n
    is an integer, so long division runs on the y[n] without a gcd.
    """
    num = [Fraction(v) for v in num]
    den = [Fraction(v) for v in den]
    assert den[-1] == 1
    q = len(den) - 1
    m = math.lcm(*(v.denominator for v in den))
    f = math.lcm(*(v.denominator for v in num))
    d = [int(v * m) for v in den]
    c = [int(v * f) for v in num]
    ys = []
    for n in range(n_max + 1):
        y = (c[q - n] if 0 <= q - n < len(c) else 0) * m**n
        y -= sum(d[q - i] * ys[n - i] * m ** (i - 1) for i in range(1, min(n, q) + 1))
        ys.append(y)
    return [Fraction(y, f * m**n) for n, y in enumerate(ys)]


def _exact_series(x, n_max):
    """x[0..n_max] of a proper x with a monic denominator, exact, then rounded."""
    return list(map(float, _exact_fractions(x.num.coeffs, x.den.coeffs, n_max)))


def _times(*factors):
    """Ascending coefficients of the product of ascending coefficient lists."""
    out = [Fraction(1)]
    for g in factors:
        prod = [Fraction(0)] * (len(out) + len(g) - 1)
        for i, u in enumerate(out):
            for j, v in enumerate(g):
                prod[i + j] += u * v
        out = prod
    return out


def _pair_den(a, b, k):
    """Ascending coefficients of (z^2 - 2az + a^2 + b^2)^k."""
    return _times(*[[a * a + b * b, -2 * a, 1]] * k)


class TestNearOriginPole:
    """A pole 1e-9 from the origin is a pole, not an impulse: numeric factoring
    sends only exact zero roots to the origin."""

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("1/(z^2-0.000000001*z)", "-1e+09*δ[n-1] + 1e+09*1e-09^(n-1)*u[n-1]"),
            # (z - 1e-9)(z - 0.5)
            ("1/(z^2-0.500000001*z+0.0000000005)", "-2*1e-09^(n-1)*u[n-1] + 2*0.5^(n-1)*u[n-1]"),
        ],
        ids=["origin-and-1e-9", "1e-9-and-0.5"],
    )
    def test_kept_and_tabulated(self, text, printed):
        x, factored = parse_rational_expr(text)
        assert factored is None  # a reducible quadratic: numeric factoring
        expr = invert(x)
        assert render(expr) == printed
        want = _exact_series(x, 8)
        assert want[3] != round(want[3], 8)  # the 1e-9 pole shows from x[3] on
        got = eval_sequence(expr, 8).values
        assert all(abs(g - w) <= 1e-12 * abs(w) for g, w in zip(got, want))

    @pytest.mark.parametrize("text", ["1/(z^3+1e-18*z)", "1/(z^3+z^2+1e-30)"])
    def test_tiny_roots_off_the_real_axis(self, text):
        # z (z^2 + 1e-18): the pair ±1e-9i lies within 1e-8 of the real axis,
        # but nearer the imaginary one, so it stays a pair. z^2 (z + 1) + 1e-30:
        # the roots ±1e-15i cluster as a double root at 5e-31, whose refinement
        # on d' lands on the origin and is dropped. Neither is a real factor at 0.
        x, _ = parse_rational_expr(text)
        got = eval_sequence(invert(x), 12).values
        assert max(abs(g - w) for g, w in zip(got, _exact_series(x, 12))) <= 1e-12


class TestNearRealPair:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="s0's j-sum cancels its first 2k-2 orders in the pair's angle, so a "
        "near-real pair loses about (2k-2)log10(1/theta) digits in floats; the "
        "condition estimate (1.0 here) bounds only the amplitudes' cancellation "
        "and nothing warns (ROADMAP item 1)",
    )
    def test_table_is_right_or_warns(self, capsys):
        # x[6] = 1, and table prints -2.25e15 there with exit 0 and no warning
        text = "1/(z^2-2*z+1.0000000000000002)^3"
        assert main(["table", text, "--n", "9", "--format", "json"]) == 0
        out, err = capsys.readouterr()
        doc = json.loads(out)
        want = _exact_series(parse_rational_expr(text)[0], 9)
        scale = max(1.0, *map(abs, want))
        close = all(abs(g - w) <= 1e-9 * scale for g, w in zip(doc["values"], want))
        assert close or "warning" in err or doc.get("warnings")


class TestStressAccuracy:
    """The closed form against exact long division at close, repeated poles.

    Each term is the exact expansion over the factor floats rounded once, so
    the error stays near rounding even where the expansion is ill-conditioned.
    """

    @pytest.mark.parametrize(
        "separation, max_mult",
        [(0.05, 4), (corpus.MIN_SEPARATION, 5)],
        ids=["stress-close", "stress-mult"],
    )
    def test_scaled_error_within_1e_8(self, separation, max_mult, monkeypatch):
        monkeypatch.setattr(corpus, "MIN_SEPARATION", separation)
        rng = random.Random(7)
        for case in range(200):
            x, f = random_rational(rng, max_degree=12, max_mult=max_mult)
            exact = _exact_series(x, 50)
            got = eval_sequence(invert(x, f), 50)
            worst = max(abs(a - b) for a, b in zip(got, exact))
            assert worst <= 1e-8 * max(1.0, *map(abs, exact)), case


class TestTablePath:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("a,b", [(0, 1), (1, 1), (1, 2)])
    def test_integer_poles_bit_identical(self, a, b, k):
        rng = random.Random(100 * k + 10 * a + b)
        for reals in ((), ((1, 2),), ((-1, 1), (2, 2)), ((2, 1),)):
            expr = _expansion(rng, [(a, b, k)], reals)
            n_max = rng.randint(2 * k, 300)
            assert _bits(eval_sequence(expr, n_max).values) == _bits(_table_per_n(expr, n_max))

    def test_inverted_integer_fixture_bit_identical(self):
        e = invert_expression("(3z^3-2z+7)/((z^2+1)^3 (z-1)^2 (z+1) (z^2+2z+2)^2)")
        assert _bits(eval_sequence(e, 300).values) == _bits(_table_per_n(e, 300))

    def test_float_poles_within_tolerance(self):
        # the table's running product against binary-exponentiation powers;
        # tolerance set before the running-power table was written
        rng = random.Random(2000)
        for _ in range(3):
            pairs = []
            for _ in range(2):
                w = cmath.rect(rng.uniform(0.9, 1.05), rng.uniform(0.2, math.pi - 0.2))
                pairs.append((w.real, w.imag, rng.randint(1, 3)))
            reals = [(rng.choice((-1, 1)) * rng.uniform(0.9, 1.05), rng.randint(1, 2))]
            expr = _expansion(rng, pairs, reals)
            got = eval_sequence(expr, 2000).values
            ref = _table_per_n(expr, 2000, identities._gauss_pow)
            tol = 1e-10 * max(1.0, max(abs(v) for v in ref))
            assert max(abs(g - r) for g, r in zip(got, ref)) <= tol

    def test_short_tables(self):
        # n_max = 0 and every n_max below the 2k = 8 support start
        expr = _expansion(random.Random(8), [(1, 1, 4), (0, 1, 2)], [(2, 2)])
        for n_max in range(10):
            got = eval_sequence(expr, n_max).values
            assert len(got) == n_max + 1
            assert _bits(got) == _bits(_table_per_n(expr, n_max))

    @pytest.mark.parametrize("text", ["1/(z^2-4z+8)", "1/(z^2-4.5z+8.5)"])
    def test_overflow_raises_on_int_and_float_pairs(self, text):
        e = invert_expression(text)
        (t,) = e.terms
        with pytest.raises(OverflowError, match="overflows a float"):
            eval_sequence(e, 2200)
        # the z-numerator piece alone overflows too, on the same pair
        with pytest.raises(OverflowError, match="^quadratic-pole sequence overflows a float"):
            _pair_table(1.0, 0.0, t.a, t.b, t.mult, 2200)

    def test_sum_of_finite_terms_overflow_raises(self):
        # both real-pole terms are finite at n = 1106; only their sum is not
        e = invert_expression("(2z-3.8000001)/((z-1.9)*(z-1.9000001))")
        assert [type(t) for t in e.terms] == [RealPole, RealPole]
        assert all(math.isfinite(_real_pole_table(t.amp, t.pole, t.mult, 1106)[-1]) for t in e.terms)
        assert all(map(math.isfinite, eval_sequence(e, 1105).values))
        with pytest.raises(OverflowError, match="^closed-form sum overflows a float at n=1106$"):
            eval_sequence(e, 1106)


def _s0_per_n(a, b, k, n, im_pow):
    """s0[n] value by value: the formula body the column passes replaced."""
    if n < 2 * k:
        return 0.0
    s2 = a * a + b * b
    total = 0
    for j in range(k):
        c = math.comb(n - 1, j) * math.comb(n - k - 1 - j, k - 1 - j)
        total += (-1) ** j * c * im_pow(n - 2 * j - 1) * s2**j
    den = (2 * b) ** (2 * k - 1)
    if den < sys.float_info.min:  # subnormal or 0.0: too few bits to divide by
        return math.inf
    return total / den * (2 * (-1) ** (k - 1))


def _table_per_n(expr, n_max, gauss_pow=None):
    """Reference for eval_sequence's values: for each pole pair one running
    product walked n by n, keeping the last 2K-1 imaginary parts (or, given
    gauss_pow, Im(gauss_pow(a, b, m)) for each power on its own), and s0[n]
    from _s0_per_n (inf past an int too large for a float or below a
    subnormal divisor); real poles from _real_pole_per_n; term values added
    in term order."""
    mults = {}
    for t in expr.terms:
        if isinstance(t, QuadPole):
            mults.setdefault((t.a, t.b), set()).add(t.mult)
    s0 = {}
    for (a, b), ks in mults.items():
        if a == int(a) and b == int(b):
            a, b = int(a), int(b)
        window = deque(maxlen=2 * max(ks) - 1)
        cols = s0[a, b] = {k: [] for k in ks}
        re, im = 1, 0
        for n in range(n_max + 2):
            for k, col in cols.items():
                try:
                    if gauss_pow is None:
                        col.append(_s0_per_n(a, b, k, n, lambda m: window[m - n]))
                    else:
                        col.append(_s0_per_n(a, b, k, n, lambda m: gauss_pow(a, b, m)[1]))
                except OverflowError:
                    col.append(math.inf)
            window.append(im)
            re, im = re * a - im * b, re * b + im * a

    def value(t, n):
        if isinstance(t, Impulse):
            return t.amp if n == t.index else 0.0
        if isinstance(t, RealPole):
            return _real_pole_per_n(t.amp, t.pole, t.mult, n)
        v = 0.0
        base = s0[t.a, t.b][t.mult]
        if t.z_amp:
            v = v + t.z_amp * base[n + 1]
        if t.const_amp:
            v = v + t.const_amp * base[n]
        return v

    return tuple(_in_term_order(value(t, n) for t in expr.terms) for n in range(n_max + 1))


class TestColumnTable:
    """eval_sequence's column passes against the n-by-n table, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "a,b,n_max",
        [
            (0, 1, 2000), (1, 1, 400), (1, 2, 300),  # int data
            (0.6, 0.8, 2000), (-0.93, 0.41, 2000), (0.3, 1.01, 600),  # float data
        ],
    )
    def test_one_pair_every_multiplicity(self, a, b, n_max, k):
        expr = _expansion(random.Random(f"{a},{b},{k}"), [(a, b, k)], ())
        for n in (0, 1, 2 * k - 1, 2 * k, 2 * k + 1, n_max):
            assert _bits(eval_sequence(expr, n).values) == _bits(_table_per_n(expr, n))

    @pytest.mark.parametrize("a,b", [(0, 1), (1, 1), (0.6, 0.8)])
    def test_one_sided_numerators(self, a, b):
        for k in (1, 2, 3, 4):
            for z_amp, const_amp in ((1.5, 0.0), (0.0, -0.7)):
                terms = tuple(QuadPole(z_amp, const_amp, a, b, j) for j in range(1, k + 1))
                expr = ClosedFormExpr(terms)
                for n_max in (0, 2 * k - 1, 2 * k, 333):
                    assert _bits(eval_sequence(expr, n_max).values) == _bits(
                        _table_per_n(expr, n_max)
                    )

    def test_simple_poles_only(self):
        # every term of multiplicity 1: the weight column of _s0 is all ones
        # and the real-pole column has no binomial
        rng = random.Random(11)
        pairs = [(0, 1, 1), (1, 1, 1), (0.6, 0.8, 1), (-0.93, 0.41, 1)]
        for n_max in (0, 1, 2, 3, 1500):
            expr = _expansion(rng, pairs, [(-1, 1), (0.5, 1), (1.01, 1)])
            assert _bits(eval_sequence(expr, n_max).values) == _bits(_table_per_n(expr, n_max))

    @pytest.mark.parametrize("a,b", [(0, 1), (0.6, 0.8), (-0.93, 0.41)])
    def test_one_sided_numerators_past_two_chunks(self, a, b):
        # n = 2100 crosses closedform.CHUNK = 1024 twice; a zero amplitude,
        # of either sign, adds no piece to the term's column
        for k in (1, 2, 3):
            for z_amp, const_amp in ((1.5, 0.0), (0.0, -0.7), (-0.0, 2.5), (0.0, 0.0)):
                terms = tuple(QuadPole(z_amp, const_amp, a, b, j) for j in range(1, k + 1))
                expr = ClosedFormExpr(terms)
                got = eval_sequence(expr, 2100).values
                assert _bits(got) == _bits(_table_per_n(expr, 2100))

    def test_float_data_past_two_chunks(self):
        # float data, where adding the terms rounds: each term must go into
        # the running sum in term order and with the float operations of the
        # n-by-n table, across both CHUNK boundaries below n = 2100
        rng = random.Random(17)
        pairs = [(0.6, 0.8, 3), (-0.93, 0.41, 2), (0.3, 0.9, 1)]
        expr = _expansion(rng, pairs, [(0.97, 2), (-1.01, 1)])  # and an impulse
        assert _bits(eval_sequence(expr, 2100).values) == _bits(_table_per_n(expr, 2100))

    def test_several_pairs(self):
        rng = random.Random(9)
        pairs = [(0, 1, 3), (1, 1, 2), (0.6, 0.8, 4), (-0.2, 0.97, 2), (0.9, 0.45, 1)]
        for n_max in (0, 5, 9, 1023, 1024, 1025, 2000):  # around closedform.CHUNK = 1024
            expr = _expansion(rng, pairs, ())
            assert _bits(eval_sequence(expr, n_max).values) == _bits(_table_per_n(expr, n_max))


class TestSignOfZero:
    """A zero's sign is part of a value (repr and JSON print it): on a pair
    with a = +/-0.0 every other s0[n] is a zero, and the per-n formula's
    totals start from an int 0, which turns a -0.0 summand into 0.0."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("a, b", [(0.0, 0.75), (-0.0, 0.5)])
    def test_eval_sequence_past_a_chunk(self, a, b, k):
        for z_amp, const_amp in ((0.0, 1.0), (1.5, 0.0), (-0.5, 2.0)):
            expr = ClosedFormExpr((QuadPole(z_amp, const_amp, a, b, k),))
            assert _bits(eval_sequence(expr, 1100).values) == _bits(_table_per_n(expr, 1100))


class TestIntegerRealPoles:
    """A real pole given as an int: the column against the per-n formula
    amp * C(n-1,k-1) * pole**(n-k), by repr, up to the first value that is
    not a finite float, across chunk boundaries."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("pole", [1, -1, 2, -2, 3])
    def test_column_matches_per_n(self, pole, k):
        amp, n_max = -1.3, 2100  # past two chunk boundaries
        ref = []
        for n in range(n_max + 1):
            v = _real_pole_per_n(amp, pole, k, n)
            if not math.isfinite(v):
                break
            ref.append(v)
        expr = ClosedFormExpr((RealPole(amp, pole, k),))
        for m in {len(ref) - 1, len(ref) // 2, closedform.CHUNK - 1, closedform.CHUNK}:
            if m < len(ref):
                assert _bits(eval_sequence(expr, m).values) == _bits(ref[: m + 1])
        if len(ref) <= n_max:
            msg = f"^real-pole sequence overflows a float at n={len(ref)}$"
            with pytest.raises(OverflowError, match=msg):
                eval_sequence(expr, n_max)
            with pytest.raises(OverflowError, match=msg):
                eval_sequence(expr, len(ref))


class TestFirstFailingN:
    """An overflow names the first n whose value is not a finite float,
    over all terms, and nothing past that n's chunk is evaluated."""

    CASES = [
        ("1/(z^2-4z+8)", "quadratic-pole sequence overflows a float at n=686"),
        ("1/(z^2-4.5z+8.5)", "quadratic-pole sequence overflows a float at n=665"),
        ("1/((z^2-4.5z+8.5)^2 (z^2-4z+8))", "quadratic-pole sequence overflows a float at n=658"),
        ("1/(z-1.9)^3", "real-pole sequence overflows a float at n=1089"),
        # int poles: exact int powers, first rounded where the amplitude multiplies them
        ("1/(z-2)^2", "real-pole sequence overflows a float at n=1017"),
        ("1/(z+3)", "real-pole sequence overflows a float at n=648"),
        ("1/((z^2+1)^3 (z^2-2z+2)^2)", "quadratic-pole sequence overflows a float at n=2032"),
        # a bare-z numerator reads s0[n+1], so x[n] fails one step earlier
        ("z/(z^2-4z+8)", "quadratic-pole sequence overflows a float at n=685"),
        ("(2z-3.8000001)/((z-1.9)*(z-1.9000001))", "closed-form sum overflows a float at n=1106"),
        # (2b)^(2k-1) underflows to 0.0 for b = 1e-150, to a subnormal for b = 1e-107
        ("1/(z^2+1e-300)^2", "quadratic-pole sequence overflows a float at n=4"),
        ("1/(z^2+1e-214)^2", "quadratic-pole sequence overflows a float at n=4"),
    ]

    @pytest.mark.parametrize("text, message", CASES)
    def test_message_names_first_failing_n(self, text, message):
        e = invert_expression(text)
        with pytest.raises(OverflowError) as long_table:
            eval_sequence(e, 100000)
        assert str(long_table.value) == message
        n = int(message.rsplit("=", 1)[1])
        eval_sequence(e, n - 1)
        with pytest.raises(OverflowError) as exact:
            eval_sequence(e, n)
        assert str(exact.value) == message

    @pytest.mark.parametrize("text, message", CASES)
    def test_values_up_to_the_failure(self, text, message):
        e = invert_expression(text)
        n = int(message.rsplit("=", 1)[1])
        assert _bits(eval_sequence(e, n - 1).values) == _bits(_table_per_n(e, n - 1))

    def test_no_chunk_past_the_failing_one(self, monkeypatch):
        starts = []
        s0 = closedform._s0

        def counted(a, b, k, ns, im, off):
            starts.append(ns.start)
            return s0(a, b, k, ns, im, off)

        monkeypatch.setattr(closedform, "_s0", counted)
        e = invert_expression("1/((z^2+1)^3 (z^2-2z+2)^2)")
        with pytest.raises(OverflowError, match="at n=2032$"):
            eval_sequence(e, 100000)
        assert max(starts) // closedform.CHUNK == 2032 // closedform.CHUNK

    def test_weight_pass_overflow_is_named(self):
        # |a+ib| = 1e100: s2 = 1e200, and s2**2 in the j = 2 weight pass leaves
        # the float range before any division
        with pytest.raises(OverflowError, match="^quadratic-pole sequence overflows a float at n=6$"):
            _pair_table(0.0, 1.0, 0.5, 1e100, 3, 10)


class TestExactData:
    """Terms with exact rational data are evaluated exactly and each value is
    rounded once: eval_sequence gives float() of the exact series."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("theta", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_near_real_pair_is_correctly_rounded(self, theta, k):
        # the pair parsed from c1 = -2cos(theta) written to 17 digits; its float
        # data lose about (2k-2)log10(1/theta) digits (TestNearRealPair)
        _, f = parse_rational_expr(f"1/(z^2{-2 * math.cos(theta):+.17g}*z+1)^{k}")
        (q,) = f.quadratics
        a, b = Fraction(q.a), Fraction(q.b)
        want = _exact_fractions([1], _pair_den(a, b, k), 60)
        assert _bits(_pair_table(0, 1, a, b, k, 60)) == _bits(map(float, want))

    def test_mixed_terms_past_a_chunk(self):
        # an impulse, a triple pair with both amplitudes and a double real pole
        a, b, p = Fraction(1, 2), Fraction(3, 4), Fraction(-9, 10)
        terms = (
            Impulse(Fraction(1, 3), 2),
            QuadPole(Fraction(2, 7), Fraction(-5, 3), a, b, 3),
            RealPole(Fraction(5, 3), p, 2),
        )
        n_max = closedform.CHUNK + 76
        pair = _exact_fractions([Fraction(-5, 3), Fraction(2, 7)], _pair_den(a, b, 3), n_max)
        real = _exact_fractions([Fraction(5, 3)], _times([-p, 1], [-p, 1]), n_max)
        want = [x + y + (Fraction(1, 3) if n == 2 else 0) for n, (x, y) in enumerate(zip(pair, real))]
        got = eval_sequence(ClosedFormExpr(terms), n_max).values
        assert _bits(got) == _bits(map(float, want))

    def test_tiny_pair_evaluates(self):
        # (2b)^3 = 8e-450 is out of the float range, but exactly it divides
        # like any other number; the same pair as floats still fails closed
        got = _pair_table(0, 1, 0, Fraction(1, 10**150), 2, 6)
        assert _bits(got) == _bits([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, -2e-300])
        with pytest.raises(OverflowError, match="^quadratic-pole sequence overflows a float at n=4$"):
            _pair_table(0.0, 1.0, 0.0, 1e-150, 2, 6)

    @pytest.mark.parametrize(
        "source, message",
        # the int-data cases: float pair data can overflow on the way a few n
        # before the value does (n = 665 for 1/(z^2-4.5z+8.5), exactly 666),
        # and exact powers of float-derived data are slow to n = 1000
        [c for c in TestFirstFailingN.CASES if "." not in c[0] and "e" not in c[0]] + [
            ((RealPole(1e300, 10.0, 1),), "real-pole sequence overflows a float at n=10"),
            ((RealPole(1e308, 1.0, 1),) * 2, "closed-form sum overflows a float at n=1"),
        ],
    )
    def test_overflow_is_named_at_the_same_n_as_for_floats(self, source, message):
        terms = invert_expression(source).terms if isinstance(source, str) else source
        exact = [
            dataclasses.replace(t, **{
                f.name: Fraction(getattr(t, f.name))
                for f in dataclasses.fields(t) if f.name not in ("mult", "index")
            })
            for t in terms
        ]
        for ts in (terms, exact):
            with pytest.raises(OverflowError) as raised:
                eval_sequence(ClosedFormExpr(tuple(ts)), 100000)
            assert str(raised.value) == message


class TestEvalInvariants:
    def test_oracle_equivalence_sample(self):
        rng = random.Random(1234)
        for _ in range(60):
            x, f = random_rational(rng)
            got = eval_sequence(invert(x, factored=f), 50).values
            ref = longdiv_series(x, 50).values
            tol = 1e-7 * max(1.0, max(abs(v) for v in ref))
            assert max(abs(a - b) for a, b in zip(got, ref)) <= tol

    def test_zero_prefix_and_first_coefficient(self):
        rng = random.Random(321)
        for _ in range(60):
            x, f = random_rational(rng)
            q, p = x.den.degree, x.num.degree
            ref = longdiv_series(x, q + 1).values
            for n in range(q - p):
                assert ref[n] == 0
            assert abs(ref[q - p] - x.num.leading) <= 1e-12

    def test_unit_numerator_prefix_on_random_denominators(self):
        # x = 1/D: the first q values vanish and x[q] = 1/leading(D)
        rng = random.Random(888)
        for _ in range(200):
            _, f = random_rational(rng)
            lead = rng.choice((-1, 1)) * rng.uniform(0.5, 3.0)
            den = f.expand() * lead
            x = RationalFunction(Polynomial([1]), den)
            q = den.degree
            ld = longdiv_series(x, q).values
            assert all(v == 0 for v in ld[:q])
            assert abs(ld[q] - 1 / lead) <= 1e-12
            prop = eval_sequence(invert(x, factored=f), q).values
            assert all(abs(v) <= 1e-8 for v in prop[:q])
            assert abs(prop[q] - 1 / lead) <= 1e-8

    def test_linearity(self):
        rng = random.Random(654)
        for _ in range(12):
            x, fx = random_rational(rng, max_degree=4)
            while True:
                y, fy = random_rational(rng, max_degree=4)
                xp = [z for z, _ in fx.pole_list()]
                yp = [z for z, _ in fy.pole_list()]
                if all(abs(a - b) >= 0.3 for a in xp for b in yp):
                    break
            alpha, beta = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            num = x.num * y.den * alpha + y.num * x.den * beta
            den = x.den * y.den
            combined = RationalFunction(num, den)
            got = eval_sequence(invert(combined), 20).values
            vx = eval_sequence(invert(x, factored=fx), 20).values
            vy = eval_sequence(invert(y, factored=fy), 20).values
            want = [alpha * a + beta * b for a, b in zip(vx, vy)]
            scale = max(1.0, max(abs(v) for v in want))
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9 * scale


# every input is written factored, so no pinned render depends on np.roots
RENDER_PIN = Path(__file__).parent / "golden" / "render.txt"
RENDER_INPUTS = [
    "1/(z-3)",
    "5/z^2",
    "(z^3+2)/(z-0.5)",
    "1/(z+1.5)^3",
    "(2z+3)/((z^2-2z+2)^3)",
    "z/(z^2+1)^2",
    "1/((z-0.5)^2 (z^2-z+0.5))",
    "(z^2-0.3)/((z^2+0.6z+0.25)^4)",
    "-(z+1)/((z-0.25)*(z^2+z+1))",
    "1/(z^2-2*z+1.0000000000000002)^20",
    "3",
    "z^2+3z",
]


class TestRender:
    def test_matches_pin(self, monkeypatch):
        """Each pin line is input, text render and latex render, tab-separated."""

        def no_roots(*args, **kwargs):
            raise AssertionError("numeric root finding reached")

        monkeypatch.setattr(np, "roots", no_roots)
        lines = RENDER_PIN.read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[0] for line in lines] == RENDER_INPUTS
        for line in lines:
            text, plain, latex = line.split("\t")
            e = invert_expression(text)
            assert (render(e), render(e, fmt="latex")) == (plain, latex), text

    @pytest.mark.parametrize("k", [21, 22, 23])
    def test_prefactor_out_of_float_range_fails_closed(self, k):
        # (2 sin th)^(2k-1) is below the smallest normal float (0.0 for k >= 22),
        # or the prefactor overflows (k = 21)
        e = invert_expression(f"1/(z^2-2*z+1.0000000000000002)^{k}")
        msg = rf"quadratic-pole formula prefactor out of the float range \(multiplicity {k}\)"
        for fmt in ("text", "latex"):
            with pytest.raises(OverflowError, match=msg):
                render(e, fmt=fmt)

    def test_largest_prefactor_renders(self):
        e = invert_expression("1/(z^2-2*z+1.0000000000000002)^20")
        assert render(e).startswith("-6.3867e+293*(C(n-21,19)*sin(1.4901e-08*(n-1))")

    def test_unit_quadratic_text(self):
        text = render(invert_expression("1/(z^2+1)"))
        assert "u[n-2]" in text
        assert "sin(1.5708*(n-1))" in text

    def test_impulse(self):
        assert render(ClosedFormExpr((Impulse(5.0, 2),))) == "5*δ[n-2]"

    def test_simple_real_pole(self):
        assert (
            render(ClosedFormExpr((RealPole(1.0, 3.0, 1),)))
            == "3^(n-1)*u[n-1]"
        )

    def test_multiple_real_pole(self):
        text = render(ClosedFormExpr((RealPole(2.0, -1.5, 3),)))
        assert "C(n-1,2)" in text
        assert "(-1.5)^(n-3)" in text
        assert "u[n-3]" in text

    def test_latex(self):
        text = render(invert_expression("1/(z^2+1)"), fmt="latex")
        assert r"\sin" in text and "u[n-2]" in text
        assert (
            render(ClosedFormExpr((Impulse(5.0, 2),)), fmt="latex")
            == r"5 \delta[n-2]"
        )

    def test_empty(self):
        assert render(ClosedFormExpr(())) == "0"

    def test_negative_amplitude_sign_folding(self):
        text = render(
            ClosedFormExpr((Impulse(1.0, 0), RealPole(-0.5, 2.0, 1)))
        )
        assert text == "δ[n] - 0.5*2^(n-1)*u[n-1]"

    def test_deterministic(self):
        e = invert_expression("(2*z+3)/((z^2-2*z+2)^3)")
        assert render(e) == render(e)
        assert "u[n-6]" in render(e)  # const-numerator piece gate
        assert "u[n-5]" in render(e)  # z-numerator piece gate
