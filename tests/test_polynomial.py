import math
import random

import pytest

from zinv.factorize import FactoredDenominator, LinearFactor, QuadraticFactor
from zinv.polynomial import Polynomial


def close(p, q, tol=1e-12):
    hi = max(p.degree, q.degree)
    return all(abs(p.coeff(i) - q.coeff(i)) <= tol for i in range(hi + 1))


class TestDivRem:
    def test_cubic_by_quadratic(self):
        num = Polynomial([1, 0, 0, 1])  # z^3 + 1
        den = Polynomial([1, 0, 1])  # z^2 + 1
        q, r = divmod(num, den)
        assert q == Polynomial([0, 1])
        assert r == Polynomial([1, -1])

    def test_lower_degree_numerator(self):
        q, r = divmod(Polynomial([2, 1]), Polynomial([1, 0, 1]))
        assert q.is_zero
        assert r == Polynomial([2, 1])

    def test_identity_case(self):
        q, r = divmod(Polynomial([1, 0, 1]), Polynomial([1, 0, 1]))
        assert q == Polynomial([1])
        assert r.is_zero

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDivisionError, match="zero denominator"):
            divmod(Polynomial([1, 1]), Polynomial([]))

    def test_reconstruction_random(self):
        # tolerance scales with the quotient magnitude: a divisor drawn with a
        # tiny leading coefficient blows the quotient up, and reconstruction
        # is backward stable relative to that scale, not to p's
        rng = random.Random(7)
        for _ in range(300):
            p = Polynomial([rng.uniform(-5, 5) for _ in range(rng.randint(1, 9))])
            d = Polynomial([rng.uniform(-5, 5) for _ in range(rng.randint(1, 9))])
            if d.is_zero:
                continue
            q, r = divmod(p, d)
            scale = max(1.0, q.norm_inf * d.norm_inf * (d.degree + 1))
            assert close(q * d + r, p, 1e-12 * scale)
            assert r.degree < d.degree

    def test_reconstruction_exact_for_ints(self):
        rng = random.Random(8)
        for _ in range(200):
            p = Polynomial([rng.randint(-5, 5) for _ in range(rng.randint(1, 9))])
            d = Polynomial([rng.randint(-5, 5) for _ in range(rng.randint(1, 9))])
            if d.is_zero or abs(d.leading) != 1:
                continue
            q, r = divmod(p, d)
            assert q * d + r == p


class TestDerivative:
    def test_power_rule(self):
        p = Polynomial([-8, 12, -6, 1])
        assert p.derivative() == Polynomial([12, -12, 3])

    def test_order_zero_is_identity(self):
        p = Polynomial([1.5, 0, 2])
        assert p.derivative(0) == p

    def test_second_derivative(self):
        assert Polynomial([1, 0, 1]).derivative(2) == Polynomial([2])

    def test_linearity_exact(self):
        rng = random.Random(3)
        for _ in range(100):
            p = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 8))])
            q = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 8))])
            assert (p + q).derivative() == p.derivative() + q.derivative()


class TestEval:
    def test_simple(self):
        assert Polynomial([1, 0, 1])(1) == 2

    def test_complex_root(self):
        assert Polynomial([1, 0, 1])(1j) == 0

    def test_zero_polynomial(self):
        assert Polynomial([])(3.7) == 0

    def test_int_preserved(self):
        assert isinstance(Polynomial([1, 2, 3])(2), int)


class TestFromFactors:
    """FactoredDenominator.expand builds the product; the factors check their fields."""

    def test_linear_cube(self):
        p = FactoredDenominator(0, (LinearFactor(2, 3),), ()).expand()
        assert p == Polynomial([-8, 12, -6, 1])

    def test_unit_quadratic(self):
        p = FactoredDenominator(0, (), (QuadraticFactor(0, 1, 1),)).expand()
        assert p == Polynomial([1, 0, 1])

    def test_general_quadratic(self):
        p = FactoredDenominator(0, (), (QuadraticFactor(1, 2, 1),)).expand()
        assert p == Polynomial([5, -2, 1])

    def test_degenerate_quadratic_rejected(self):
        with pytest.raises(ValueError, match="quadratic factor requires b > 0"):
            QuadraticFactor(1, 0, 1)

    def test_bad_multiplicity_rejected(self):
        with pytest.raises(ValueError, match="multiplicity must be >= 1"):
            LinearFactor(2, 0)


class TestHousekeeping:
    def test_trim_and_degree(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1
        assert Polynomial([0, 0]).degree == -1
        assert Polynomial([]).is_zero

    def test_float_trim_eps(self):
        # only exact zeros are trimmed: a float is the rational it denotes
        assert Polynomial([1.0, 5e-13]).degree == 1
        assert Polynomial([1e-200]).degree == 0
        assert Polynomial([1.0, 0.0, -0.0, 0j]).degree == 0

    def test_int_coeffs_survive_monic_division(self):
        num = Polynomial([3, 0, 0, 2, 1])
        den = Polynomial([1, 1])
        q, r = divmod(num, den)
        assert all(isinstance(c, int) for c in q.coeffs)
        assert all(isinstance(c, int) for c in r.coeffs)

    def test_shift(self):
        assert Polynomial([1, 2]).shift(2) == Polynomial([0, 0, 1, 2])

    def test_power(self):
        assert Polynomial([1, 1]) ** 3 == Polynomial([1, 3, 3, 1])
        assert Polynomial([2, 1]) ** 0 == Polynomial([1])

    def test_str_readable(self):
        assert str(Polynomial([-8, 12, -6, 1])) == "z^3 - 6*z^2 + 12*z - 8"
        assert str(Polynomial([])) == "0"
        assert str(Polynomial([0, 1])) == "z"


# The ring operations as they were, on coefficient tuples: the references the
# current bodies must match bit for bit (values, types and signs of zeros).
def _init_reference(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _coeff_reference(cs, i):
    return cs[i] if 0 <= i < len(cs) else 0


def _add_reference(a, b):
    n = max(len(a), len(b))
    return _init_reference(tuple(_coeff_reference(a, i) + _coeff_reference(b, i) for i in range(n)))


def _mul_reference(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _init_reference(out)


def _divmod_reference(num, den):
    dq = len(den) - 1
    if len(num) - 1 < dq:
        return (), num
    lead = den[-1]
    rem = list(num)
    quo = [0] * (len(num) - dq)
    for i in range(len(num) - 1 - dq, -1, -1):
        c = rem[i + dq]
        if c == 0:
            continue
        if lead == 1:
            pass
        elif lead == -1:
            c = -c
        else:
            c = c / lead
        quo[i] = c
        for k in range(dq + 1):
            rem[i + k] -= c * den[k]
    return _init_reference(quo), _init_reference(rem[:dq])


def assert_bit_identical(got, want):
    assert len(got) == len(want), (got, want)
    for g, w in zip(got, want):
        assert type(g) is type(w), (got, want)
        for x, y in zip(*((c.real, c.imag) if isinstance(c, complex) else (c,) for c in (g, w))):
            assert x == y and math.copysign(1, x) == math.copysign(1, y), (got, want)


_MIXES = (("int",), ("float",), ("complex",), ("int", "float"), ("int", "float", "complex"))


def _scalar(rng, kind):
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "float":
        return rng.choice((0.0, -0.0, float(rng.randint(-3, 3)), rng.uniform(-5, 5)))
    return complex(_scalar(rng, "float"), _scalar(rng, "float"))


def _coeffs(rng, kinds, n):
    """n coefficients of the given kinds, then up to two trailing zeros."""
    cs = [_scalar(rng, rng.choice(kinds)) for _ in range(n)]
    return cs + [rng.choice((0, 0.0, -0.0, 0j, complex(-0.0, -0.0))) for _ in range(rng.randint(0, 2))]


class TestBitIdenticalToReference:
    """+, * and divmod and the constructor give the reference's exact scalars."""

    def test_constructor(self):
        rng = random.Random(21)
        for _ in range(500):
            cs = _coeffs(rng, rng.choice(_MIXES), rng.randint(0, 8))
            want = _init_reference(cs)
            for arg in (cs, tuple(cs), iter(cs)):
                assert_bit_identical(Polynomial(arg).coeffs, want)

    def test_add_and_mul(self):
        rng = random.Random(22)
        for _ in range(1000):
            a, b = (_init_reference(_coeffs(rng, rng.choice(_MIXES), rng.randint(0, 8))) for _ in "ab")
            p, q = Polynomial(a), Polynomial(b)
            assert_bit_identical((p + q).coeffs, _add_reference(a, b))
            assert_bit_identical((p * q).coeffs, _mul_reference(a, b))

    @pytest.mark.parametrize("lead", ["monic", "minus_one", "other"])
    def test_divmod(self, lead):
        rng = random.Random(23)
        for _ in range(1000):
            kinds = rng.choice(_MIXES)
            num = _init_reference(_coeffs(rng, kinds, rng.randint(0, 12)))
            den = _coeffs(rng, kinds, rng.randint(0, 4))
            if lead == "monic":
                den.append(rng.choice((1, 1.0, 1 + 0j)))
            elif lead == "minus_one":
                den.append(rng.choice((-1, -1.0, -1 + 0j)))
            else:
                den.append(rng.choice((2, -3, 0.5, -1.5e-3, rng.uniform(0.1, 5), complex(0.5, -2))))
            den = _init_reference(den)
            q, r = divmod(Polynomial(num), Polynomial(den))
            want_q, want_r = _divmod_reference(num, den)
            assert_bit_identical(q.coeffs, want_q)
            assert_bit_identical(r.coeffs, want_r)
