import functools
import math
import operator
import random

import pytest

from zinv import pfe
from zinv.closedform import invert_expression
from zinv.corpus import random_rational
from zinv.errors import FactorizationError
from zinv.factorize import (
    FactoredDenominator,
    LinearFactor,
    QuadraticFactor,
    factor_denominator,
)
from zinv.parser import parse_rational_expr
from zinv.pfe import (
    Impulse,
    QuadPole,
    RationalFunction,
    RealPole,
    _P,
    _amps,
    _divided_by_z,
    _taylor,
    complex_pfe_over_z,
    principal_parts,
    real_pfe,
)
from zinv.polynomial import ONE, Z, Polynomial


def rf(num, den):
    return RationalFunction(Polynomial(num), Polynomial(den))


def poly_close(p, q, tol):
    hi = max(p.degree, q.degree)
    return all(abs(p.coeff(i) - q.coeff(i)) <= tol for i in range(hi + 1))


def term_factor(t):
    """(phi, j) of a term amps/phi**j: phi = z, z - r or z**2 - 2az + (a**2+b**2)."""
    if isinstance(t, Impulse):
        return Z, t.index
    if isinstance(t, RealPole):
        return Polynomial((-t.pole, 1)), t.mult
    return Polynomial((t.a * t.a + t.b * t.b, -2 * t.a, 1)), t.mult


def factor_powers(terms):
    """{factor's coefficient tuple: highest power} over the terms' factors."""
    powers = {}
    for t in terms:
        phi, j = term_factor(t)
        powers[phi.coeffs] = max(powers.get(phi.coeffs, 0), j)
    return powers


def recombine(pf):
    """Sum a real expansion back over the common denominator.

    Self-check oracle for real_pfe: the result must equal the source
    rational function coefficient-wise after normalization. It multiplies
    the terms' own factors out in floats, sharing nothing with real_pfe's
    integer expansion. A polynomial part's c z**i is Impulse(c, -i), a power
    -i of the factor z.
    """
    powers = factor_powers(pf.terms)

    def cofactor(target, j):
        """Product of all factors, target's power lowered by j."""
        return math.prod(
            (Polynomial(phi) ** (k - j if phi == target else k) for phi, k in powers.items()),
            start=ONE,
        )

    den = cofactor(None, 0)
    num = Polynomial(())
    for t in pf.terms:
        phi, j = term_factor(t)
        base = cofactor(phi.coeffs, j)
        for i, amp in enumerate(reversed(_amps(t))):
            num = num + base.shift(i) * amp
    return RationalFunction(num, den)


def table_over_z(x):
    """complex_pfe_over_z at the poles of X(z)/z's denominator, as the oracles call it."""
    return complex_pfe_over_z(x, factor_denominator(_divided_by_z(x)[1]).pole_list())


def assert_exact_conjugates(table):
    """Each lower-half pole's part is its partner's, conjugated exactly."""
    upper = [pole for pole in table if pole.imag > 0]
    assert {p.conjugate() for p in upper} == {p for p in table if p.imag < 0}
    for pole in upper:
        part = table[pole]
        assert table[pole.conjugate()] == {j: a.conjugate() for j, a in part.items()}


class TestRealPfe:
    def test_single_quadratic(self):
        x = rf([1], [1, 0, 1])
        f = FactoredDenominator(0, (), (QuadraticFactor(0.0, 1.0, 1),))
        pf = real_pfe(x, f)
        (t,) = pf.terms
        assert type(t) is QuadPole
        assert (t.a, t.b, t.mult) == (0.0, 1.0, 1)
        assert t.z_amp == 0.0 and t.const_amp == 1.0

    def test_linear_times_quadratic(self):
        # 1/((z-1)(z^2+1)): A = 1/2 on the pole, (-z/2 - 1/2) on the pair;
        # frozen from recombining over the common denominator by hand
        den = FactoredDenominator(0, (LinearFactor(1, 1),), (QuadraticFactor(0, 1, 1),)).expand()
        x = RationalFunction(Polynomial([1]), den)
        f = FactoredDenominator(0, (LinearFactor(1.0, 1),), (QuadraticFactor(0.0, 1.0, 1),))
        pf = real_pfe(x, f)
        lt, qt = pf.terms
        assert type(lt) is RealPole and type(qt) is QuadPole
        assert (lt.pole, lt.mult) == (1.0, 1)
        assert lt.amp == 0.5
        assert qt.z_amp == -0.5 and qt.const_amp == -0.5

    def test_amplitude_out_of_float_range_named(self):
        # the amplitudes are about +-1e312: the exact int quotient overflows a float
        x, f = parse_rational_expr("1/((z-1e-300)*(z-1.000000000001e-300))")
        with pytest.raises(OverflowError, match="^partial-fraction amplitude out of the float range$"):
            real_pfe(x, f)

    def test_improper_gets_polynomial_part(self):
        x = rf([1, 0, 0, 1], [1, 0, 1])  # (z^3+1)/(z^2+1)
        f = FactoredDenominator(0, (), (QuadraticFactor(0.0, 1.0, 1),))
        pf = real_pfe(x, f)
        imp, qt = pf.terms
        assert imp == Impulse(1.0, -1)  # z
        assert qt.z_amp == -1.0 and qt.const_amp == 1.0
        assert pf.warnings == ("non-causal polynomial part: delta[n+k] terms vanish for n >= 0",)

    def test_repeated_pair_structure_exact(self):
        den = FactoredDenominator(0, (), (QuadraticFactor(1, 1, 3),)).expand()
        x = RationalFunction(Polynomial([3, 2]), den)
        f = FactoredDenominator(0, (), (QuadraticFactor(1.0, 1.0, 3),))
        pf = real_pfe(x, f)
        # the j = 1 and j = 2 amplitudes are exactly 0.0, so those terms drop
        assert pf.terms == (QuadPole(2.0, 3.0, 1.0, 1.0, 3),)

    def test_mismatched_factorization_rejected(self):
        x = rf([1], [1, 0, 1])
        wrong = FactoredDenominator(0, (LinearFactor(1.0, 2),), ())
        with pytest.raises(FactorizationError, match="inconsistent factorization"):
            real_pfe(x, wrong)

    @pytest.mark.parametrize(
        "x, f",
        [
            # (z + 3163)(z - 3162) = z^2 + z - 10001406 agrees with z - 10001406
            # to 1e-7 of its norm, but not in degree
            (
                rf([1], [-10001406, 1]),
                FactoredDenominator(0, (LinearFactor(-3163.0, 1), LinearFactor(3162.0, 1)), ()),
            ),
            (rf([1], [1, 0, 1]), FactoredDenominator(0, (LinearFactor(1.0, 1),), ())),
            (rf([1, 2], [1]), FactoredDenominator(0, (LinearFactor(0.5, 1),), ())),
            # the product's constant coefficient, 1e600, is beyond the float range
            (rf([1], [1, 0, 1]), FactoredDenominator(0, (LinearFactor(1e300, 2),), ())),
        ],
        ids=["higher-degree", "lower-degree", "constant-denominator", "out-of-float-range"],
    )
    def test_structure_of_another_denominator_rejected(self, x, f):
        with pytest.raises(FactorizationError, match="inconsistent factorization"):
            real_pfe(x, f)

    @pytest.mark.parametrize(
        "text, calls",
        [
            # expanded: factor_denominator checks its candidate once, real_pfe
            # checks the exact product it inverts
            ("(z^2+1)/(z^6 - 1.5*z^5 + 1.5*z^4 - z^3 + 0.75*z^2 - 0.375*z + 0.125)", 1),
            # factored by the parser: nothing multiplies the factors out in floats
            ("1/((z-0.5)^2*(z^2+1))", 0),
        ],
        ids=["expanded", "factored"],
    )
    def test_invert_expands_only_a_numeric_factoring(self, monkeypatch, text, calls):
        expanded = []
        expand = FactoredDenominator.expand
        monkeypatch.setattr(
            FactoredDenominator, "expand", lambda f: expanded.append(f) or expand(f)
        )
        invert_expression(text)
        assert len(expanded) == calls

    @pytest.mark.parametrize(
        "linears, quads",
        [
            ((LinearFactor(1.0, 1), LinearFactor(1.0, 1)), ()),
            ((), (QuadraticFactor(0.5, 0.5, 1), QuadraticFactor(0.5, 0.5, 1))),
        ],
        ids=["linear", "quadratic"],
    )
    def test_duplicated_factor_rejected(self, linears, quads):
        # the factors expand to the denominator, but no expansion exists
        f = FactoredDenominator(0, linears, quads)
        x = RationalFunction(Polynomial([1]), f.expand())
        with pytest.raises(FactorizationError, match="inconsistent factorization"):
            real_pfe(x, f)

    def test_condition_estimate_attached(self):
        x = rf([1], [1, 0, 1])
        f = FactoredDenominator(0, (), (QuadraticFactor(0.0, 1.0, 1),))
        pf = real_pfe(x, f)
        assert pf.condition >= 1.0
        assert pf.warnings == ()

    def test_ill_conditioned_system_warns(self):
        # nearly coincident poles make the coefficient system near-singular
        f = FactoredDenominator(0, (LinearFactor(1.0, 1), LinearFactor(1.0 + 1e-12, 1)), ())
        x = RationalFunction(Polynomial([1]), f.expand())
        pf = real_pfe(x, f)
        assert pf.condition > 1e12
        assert any("ill-conditioned" in w for w in pf.warnings)

    def test_far_apart_triple_poles_do_not_warn(self):
        # amplitudes ~1e-16..1e-25 against poles 1e5 apart: the terms sum to
        # the numerator without cancellation, so there is nothing to flag
        text = "1/((z-123456.789)^3*(z-1e-5)^3)"
        x, f = parse_rational_expr(text)
        pf = real_pfe(x, f)
        assert pf.condition < 2.0
        assert pf.warnings == ()
        assert invert_expression(text).warnings == ()


class TestComplexPfeOverZ:
    def test_unit_quadratic(self):
        # 1/(z^2+1): Y = 1/(z(z^2+1)) -> 1 at the origin, -1/2 at +/-i
        table = table_over_z(rf([1], [1, 0, 1]))
        assert table == {-1j: {1: -0.5}, 0j: {1: 1.0}, 1j: {1: -0.5}}
        assert_exact_conjugates(table)

    def test_shared_z_cancels(self):
        # z/(z-1): Y = 1/(z-1), one simple pole with unit coefficient
        assert table_over_z(rf([0, 1], [-1, 1])) == {1.0: {1: 1.0}}

    def test_constant_denominator_has_no_parts(self):
        # z: Y = 1 has no pole, and its denominator the empty factor structure
        assert table_over_z(rf([0, 1], [1])) == {}

    def test_origin_coefficient_of_multiple_pair(self):
        # (2z+3)/((z^2-2z+2)^3): coefficient at the origin of Y is 3/r^6 = 3/8
        den = FactoredDenominator(0, (), (QuadraticFactor(1, 1, 3),)).expand()
        table = table_over_z(RationalFunction(Polynomial([3, 2]), den))
        assert table[0j][1] == pytest.approx(0.375, abs=1e-12)

    def test_keys_follow_the_pole_order_and_powers_ascend(self):
        # moreira and juric sum the table in its order, so their bits rest on it
        x, _ = parse_rational_expr("(z+2)/((z-0.5)^3 (z^2+0.25)^2 (z+0.75))")
        poles = factor_denominator(_divided_by_z(x)[1]).pole_list()
        assert poles == sorted(poles, key=lambda pm: (pm[0].real, pm[0].imag))
        for order in (poles, poles[::-1], poles[1::2] + poles[::2]):
            table = complex_pfe_over_z(x, order)
            assert list(table) == [z for z, _ in order]
            for z, m in order:
                assert list(table[z]) == list(range(1, m + 1))

    def test_conjugate_closure_exact(self):
        rng = random.Random(31)
        for _ in range(20):
            x, _ = random_rational(rng)
            table = table_over_z(x)
            assert_exact_conjugates(table)
            assert all(
                a.imag == 0.0 for z, part in table.items() if z.imag == 0 for a in part.values()
            )


def _parts_in_term_order(num, poles):
    """principal_parts written out, each sum of the power series division
    added left to right from an int 0 (sum() up to Python 3.11)."""
    parts = {}
    for zk, m in poles:
        if zk.imag < 0:
            continue
        dk = ONE
        for z, mult in poles:
            if z == zk or z.imag < 0 and z != zk.conjugate():
                continue
            if z.imag > 0:
                dk *= Polynomial((z.real * z.real + z.imag * z.imag, -2 * z.real, 1)) ** mult
            else:
                dk *= Polynomial((-z if z.imag else -z.real, 1)) ** mult
        z0 = zk if zk.imag else zk.real
        p, q = _taylor(num, z0, m), _taylor(dk, z0, m)
        g = []
        for i in range(m):
            terms = (g[l] * q[i - l] for l in range(i))
            g.append((p[i] - functools.reduce(operator.add, terms, 0)) / q[0])
        parts[zk] = {j: g[m - j] for j in range(1, m + 1)}
    for zk, _ in poles:
        if zk.imag < 0:
            parts[zk] = {j: a.conjugate() for j, a in parts[zk.conjugate()].items()}
    return {zk: parts[zk] for zk, _ in poles}


class TestPrincipalParts:
    def test_sums_in_term_order_on_every_python(self, monkeypatch, compensated_sum):
        # the tables must not hang on how the running Python's sum() rounds
        monkeypatch.setattr(pfe, "sum", compensated_sum, raising=False)
        rng = random.Random(0)
        for _ in range(100):
            x, f = random_rational(rng, max_degree=12, max_mult=5)
            num, poles = x.num % x.den, f.pole_list()
            assert repr(principal_parts(num, poles)) == repr(_parts_in_term_order(num, poles))


class TestRecombine:
    def test_round_trip_single_quadratic(self):
        x = rf([1], [1, 0, 1])
        f = FactoredDenominator(0, (), (QuadraticFactor(0.0, 1.0, 1),))
        back = recombine(real_pfe(x, f))
        assert poly_close(back.num, x.num, 1e-12)
        assert poly_close(back.den, x.den, 1e-12)

    def test_poly_part_only(self):
        pf = real_pfe(
            rf([0, 1], [1]),
            FactoredDenominator(0, (), ()),
        )
        back = recombine(pf)
        assert back.num == Polynomial([0, 1])
        assert back.den == Polynomial([1])

    def test_hand_checked_expansion(self):
        den = FactoredDenominator(0, (LinearFactor(1, 1),), (QuadraticFactor(0, 1, 1),)).expand()
        x = RationalFunction(Polynomial([1]), den)
        f = FactoredDenominator(0, (LinearFactor(1.0, 1),), (QuadraticFactor(0.0, 1.0, 1),))
        back = recombine(real_pfe(x, f))
        assert poly_close(back.num, x.num, 1e-10)
        assert poly_close(back.den, x.den, 1e-10)

    def test_round_trip_with_origin_poles(self):
        x, f = parse_rational_expr("(z^3+2)/(z^2*(z-0.5)^2*(z^2-z+0.5)^2)")
        assert f.origin_mult == 2
        pf = real_pfe(x, f)
        assert sum(isinstance(t, Impulse) for t in pf.terms) == 2
        back = recombine(pf)
        assert poly_close(back.num, x.num, 1e-10)
        assert poly_close(back.den, x.den, 1e-10)

    def test_round_trip_random_corpus(self):
        rng = random.Random(500)
        for _ in range(500):
            x, f = random_rational(rng)
            pf = real_pfe(x, f)
            back = recombine(pf)
            scale = max(1.0, x.num.norm_inf, x.den.norm_inf)
            assert poly_close(back.num, x.num, 1e-8 * scale)
            assert poly_close(back.den, x.den, 1e-8 * scale)


class TestUniqueness:
    def test_permuted_factor_order_same_coefficients(self):
        rng = random.Random(77)
        for _ in range(25):
            x, f = random_rational(rng)
            pf1 = real_pfe(x, f)
            perm = FactoredDenominator(
                f.origin_mult,
                tuple(reversed(f.linears)),
                tuple(reversed(f.quadratics)),
            )
            pf2 = real_pfe(x, perm)
            key1 = {(t.pole, t.mult): t.amp for t in pf1.terms if type(t) is RealPole}
            key2 = {(t.pole, t.mult): t.amp for t in pf2.terms if type(t) is RealPole}
            assert key1.keys() == key2.keys()
            for k in key1:
                assert abs(key1[k] - key2[k]) <= 1e-10 * max(1.0, abs(key1[k]))
            q1 = {(t.a, t.b, t.mult): (t.z_amp, t.const_amp) for t in pf1.terms if type(t) is QuadPole}
            q2 = {(t.a, t.b, t.mult): (t.z_amp, t.const_amp) for t in pf2.terms if type(t) is QuadPole}
            assert q1.keys() == q2.keys()
            for k in q1:
                for v1, v2 in zip(q1[k], q2[k]):
                    assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))


class TestRationalFunction:
    def test_monic_normalization(self):
        x = rf([2], [-4, 2])
        assert x.den == Polynomial([-2.0, 1.0])
        assert x.num == Polynomial([1.0])

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            rf([1], [])

    def test_common_factor_cancelled_exactly(self):
        # (z^2-10)(z-0.5): no float is a root of z^2-10
        x = rf([-10.0, 0, 1.0], [5.0, -10.0, -0.5, 1.0])
        assert (x.num.coeffs, x.den.coeffs) == ((1.0,), (-0.5, 1.0))
        x = rf([0, -2.0, 0, 1.0], [4.0, 0, -4.0, 0, 1.0])
        assert (x.num.coeffs, x.den.coeffs) == ((0, 1.0), (-2.0, 0, 1.0))

    def test_int_input_reduces_to_ints(self):
        x = rf([-1, 0, 1], [2, -3, 1])  # (z-1)(z+1) / ((z-1)(z-2))
        assert (x.num.coeffs, x.den.coeffs) == ((1, 1), (-2, 1))
        assert all(isinstance(c, int) for c in x.num.coeffs + x.den.coeffs)

    def test_common_factor_mod_p_only_is_kept(self):
        # z + P and z share the factor z mod P but not over the rationals
        x = rf([_P, 1], [0, 1])
        assert (x.num.coeffs, x.den.coeffs) == ((_P, 1), (0, 1))

    def test_zero_numerator_kept(self):
        assert rf([], [-1, 1]).den == Polynomial([-1, 1])

    def test_integer_coefficients_survive_when_monic(self):
        x = rf([3, 2], [2, -2, 1])
        assert all(isinstance(c, int) for c in x.num.coeffs)
        assert all(isinstance(c, int) for c in x.den.coeffs)
