import cmath
import math
import random

import pytest

from zinv.closedform import (
    ClosedFormExpr,
    Impulse,
    QuadPole,
    RealPole,
    eval_sequence,
    invert,
    invert_expression,
    quad_seq0,
    quad_seq1,
    real_pole_seq,
    render,
)
from zinv.corpus import random_rational
from zinv.factorize import FactoredDenominator
from zinv.oracles import longdiv_series
from zinv.parser import parse_rational_expr
from zinv.pfe import RationalFunction
from zinv.polynomial import Polynomial


class TestQuadSeq0:
    def test_unit_pair_alternates(self):
        # pure rotation pair: 0,0 then 1,0,-1,0,1,... (cosine pattern, lag 2)
        vals = [quad_seq0(0, 1, 1, n) for n in range(9)]
        assert vals == [0.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0]

    def test_multiplicity_two_frozen(self):
        # frozen from the long-division oracle on 1/(z^2+1)^2:
        # series z^-4 - 2 z^-6 + 3 z^-8 - ...
        assert quad_seq0(0, 1, 2, 4) == 1.0
        assert quad_seq0(0, 1, 2, 6) == -2.0
        assert quad_seq0(0, 1, 2, 8) == 3.0

    def test_matches_longdiv_oracle(self):
        den = Polynomial.from_factors(quadratic=[(0, 1, 2)])
        ref = longdiv_series(RationalFunction(Polynomial([1]), den), 20).values
        got = [quad_seq0(0, 1, 2, n) for n in range(21)]
        assert got == pytest.approx(ref, abs=1e-12)

    def test_zero_prefix(self):
        for k in range(1, 5):
            for n in range(2 * k):
                assert quad_seq0(1.0, 2.0, k, n) == 0.0
            assert quad_seq0(0.3, 0.7, k, 2 * k - 1) == 0.0

    def test_rejects_non_pair(self):
        with pytest.raises(ValueError, match="not a complex pair"):
            quad_seq0(1.0, 0.0, 1, 5)
        with pytest.raises(ValueError, match="not a complex pair"):
            quad_seq0(1.0, -1.0, 1, 5)

    def test_float_pair_against_longdiv(self):
        a, b, k = 0.4, 0.8, 2
        den = Polynomial.from_factors(quadratic=[(a, b, k)])
        ref = longdiv_series(RationalFunction(Polynomial([1]), den), 30).values
        for n in range(31):
            assert quad_seq0(a, b, k, n) == pytest.approx(ref[n], abs=1e-10)


class TestQuadSeq1:
    def test_shift_of_seq0(self):
        assert quad_seq1(0, 1, 1, 1) == quad_seq0(0, 1, 1, 2) == 1.0

    def test_multiplicity_two_frozen(self):
        # long-division oracle on z/(z^2+1)^2 puts the first 1 at n = 3
        assert quad_seq1(0, 1, 2, 3) == 1.0

    def test_support_boundary(self):
        for k in range(1, 5):
            assert quad_seq1(1.0, 1.0, k, 2 * k - 2) == 0.0

    def test_bit_identical_shift(self):
        rng = random.Random(4)
        for _ in range(200):
            a = rng.uniform(-1.2, 1.2)
            b = rng.uniform(0.1, 1.4)
            k = rng.randint(1, 4)
            n = rng.randint(0, 45)
            assert quad_seq1(a, b, k, n) == quad_seq0(a, b, k, n + 1)


class TestRealPoleSeq:
    def test_simple_pole(self):
        assert real_pole_seq(1.0, 3.0, 1, 0) == 0.0
        assert real_pole_seq(1.0, 3.0, 1, 4) == 27.0

    def test_triple_pole_frozen(self):
        # long-division oracle on 1/(z-2)^3 gives C(4,2)*2^2 = 24 at n = 5
        assert real_pole_seq(1.0, 2.0, 3, 5) == 24.0
        den = Polynomial.from_factors(linear=[(2, 3)])
        ref = longdiv_series(RationalFunction(Polynomial([1]), den), 12).values
        got = [real_pole_seq(1.0, 2.0, 3, n) for n in range(13)]
        assert got == pytest.approx(ref, abs=1e-9)

    def test_zero_before_support(self):
        for k in range(1, 6):
            assert real_pole_seq(2.5, -1.3, k, k - 1) == 0.0

    def test_origin_pole_rejected(self):
        with pytest.raises(ValueError, match="origin pole must be an impulse"):
            real_pole_seq(1.0, 0.0, 1, 3)


class TestInvert:
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

    def test_polynomial_input(self):
        e = invert_expression("3 + 2*z")
        assert set(e.terms) == {Impulse(3.0, 0), Impulse(2.0, -1)}
        assert eval_sequence(e, 2).values == (3.0, 0.0, 0.0)


def _per_n(expr, n_max):
    """Reference for eval_sequence: each x[n] from the random-access API,
    term values added in term order."""

    def value(t, n):
        if isinstance(t, Impulse):
            return t.amp if n == t.index else 0.0
        if isinstance(t, RealPole):
            return real_pole_seq(t.amp, t.pole, t.mult, n)
        val = 0.0
        if t.z_amp:
            val += t.z_amp * quad_seq1(t.a, t.b, t.mult, n)
        if t.const_amp:
            val += t.const_amp * quad_seq0(t.a, t.b, t.mult, n)
        return val

    return tuple(sum(value(t, n) for t in expr.terms) for n in range(n_max + 1))


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
    return ClosedFormExpr(tuple(terms), None)


class TestTablePath:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("a,b", [(0, 1), (1, 1), (1, 2)])
    def test_integer_poles_bit_identical(self, a, b, k):
        rng = random.Random(100 * k + 10 * a + b)
        for reals in ((), ((1, 2),), ((-1, 1), (2, 2)), ((2, 1),)):
            expr = _expansion(rng, [(a, b, k)], reals)
            n_max = rng.randint(2 * k, 300)
            assert eval_sequence(expr, n_max).values == _per_n(expr, n_max)

    def test_inverted_integer_fixture_bit_identical(self):
        e = invert_expression("(3z^3-2z+7)/((z^2+1)^3 (z-1)^2 (z+1) (z^2+2z+2)^2)")
        assert eval_sequence(e, 300).values == _per_n(e, 300)

    def test_float_poles_within_tolerance(self):
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
            ref = _per_n(expr, 2000)
            tol = 1e-10 * max(1.0, max(abs(v) for v in ref))
            assert max(abs(g - r) for g, r in zip(got, ref)) <= tol

    def test_short_tables(self):
        # n_max = 0 and every n_max below the 2k = 8 support start
        expr = _expansion(random.Random(8), [(1, 1, 4), (0, 1, 2)], [(2, 2)])
        for n_max in range(10):
            got = eval_sequence(expr, n_max).values
            assert len(got) == n_max + 1
            assert got == _per_n(expr, n_max)

    @pytest.mark.parametrize("text", ["1/(z^2-4z+8)", "1/(z^2-4.5z+8.5)"])
    def test_overflow_raises_on_int_and_float_pairs(self, text):
        e = invert_expression(text)
        (t,) = e.terms
        with pytest.raises(OverflowError, match="overflows a float"):
            eval_sequence(e, 2200)
        with pytest.raises(OverflowError, match="overflows a float"):
            quad_seq0(t.a, t.b, t.mult, 2200)


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
            scaled_f = FactoredDenominator(
                f.origin_mult, f.linears, f.quadratics, lead
            )
            prop = eval_sequence(invert(x, factored=scaled_f), q).values
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


class TestRender:
    def test_unit_quadratic_text(self):
        text = render(invert_expression("1/(z^2+1)"))
        assert "u[n-2]" in text
        assert "sin(1.5708*(n-1))" in text

    def test_impulse(self):
        assert render(ClosedFormExpr((Impulse(5.0, 2),), None)) == "5*δ[n-2]"

    def test_simple_real_pole(self):
        assert (
            render(ClosedFormExpr((RealPole(1.0, 3.0, 1),), None))
            == "3^(n-1)*u[n-1]"
        )

    def test_multiple_real_pole(self):
        text = render(ClosedFormExpr((RealPole(2.0, -1.5, 3),), None))
        assert "C(n-1,2)" in text
        assert "(-1.5)^(n-3)" in text
        assert "u[n-3]" in text

    def test_latex(self):
        text = render(invert_expression("1/(z^2+1)"), fmt="latex")
        assert r"\sin" in text and "u[n-2]" in text
        assert (
            render(ClosedFormExpr((Impulse(5.0, 2),), None), fmt="latex")
            == r"5 \delta[n-2]"
        )

    def test_empty(self):
        assert render(ClosedFormExpr((), None)) == "0"

    def test_negative_amplitude_sign_folding(self):
        text = render(
            ClosedFormExpr((Impulse(1.0, 0), RealPole(-0.5, 2.0, 1)), None)
        )
        assert text == "δ[n] - 0.5*2^(n-1)*u[n-1]"

    def test_deterministic(self):
        e = invert_expression("(2*z+3)/((z^2-2*z+2)^3)")
        assert render(e) == render(e)
        assert "u[n-6]" in render(e)  # const-numerator piece gate
        assert "u[n-5]" in render(e)  # z-numerator piece gate
