import math
import random

import pytest

from zinv import oracles
from zinv.closedform import SequenceTable
from zinv.corpus import random_rational
from zinv.oracles import (
    compare_methods,
    juric_coefficients,
    juric_series,
    longdiv_series,
    moreira_series,
    residue_value,
)
from zinv.pfe import RationalFunction, _deflate, _divided_by_z
from zinv.polynomial import Polynomial


def rf(num, den):
    return RationalFunction(Polynomial(num), Polynomial(den))


class TestLongDivision:
    def test_geometric(self):
        assert longdiv_series(rf([0, 1], [-1, 1]), 4).values == (1, 1, 1, 1, 1)

    def test_unit_quadratic(self):
        got = longdiv_series(rf([1], [1, 0, 1]), 8).values
        assert got == (0, 0, 1, 0, -1, 0, 1, 0, -1)

    def test_squared_quadratic(self):
        den = Polynomial.from_factors(quadratic=[(0, 1, 2)])
        got = longdiv_series(RationalFunction(Polynomial([1]), den), 8).values
        assert got == (0, 0, 0, 0, 1, 0, -2, 0, 3)

    def test_improper_rejected(self):
        with pytest.raises(ValueError, match="non-causal"):
            longdiv_series(rf([0, 0, 1], [-1, 1]), 5)

    def test_zero_prefix_exact(self):
        rng = random.Random(42)
        for _ in range(100):
            x, _ = random_rational(rng)
            q, p = x.den.degree, x.num.degree
            vals = longdiv_series(x, q).values
            for n in range(q - p):
                assert vals[n] == 0
            # first nonzero term equals the (monic-normalized) leading
            # numerator coefficient
            assert abs(vals[q - p] - x.num.leading) <= 1e-12


class TestMoreira:
    def test_unit_quadratic(self):
        got = moreira_series(rf([1], [1, 0, 1]), 8).values
        assert got == pytest.approx((0, 0, 1, 0, -1, 0, 1, 0, -1), abs=1e-12)

    def test_geometric(self):
        got = moreira_series(rf([0, 1], [-1, 1]), 4).values
        assert got == pytest.approx((1, 1, 1, 1, 1), abs=1e-12)

    def test_origin_poles(self):
        got = moreira_series(rf([5], [0, 0, 1]), 4).values
        assert got == pytest.approx((0, 0, 5, 0, 0), abs=1e-15)

    def test_multiple_real_pole_row(self):
        # 1/(z-2)^3 through the divide-by-z route must match long division
        den = Polynomial.from_factors(linear=[(2, 3)])
        x = RationalFunction(Polynomial([1]), den)
        ld = longdiv_series(x, 15).values
        got = moreira_series(x, 15).values
        assert got == pytest.approx(ld, rel=1e-9, abs=1e-9)


class TestJuricCoefficients:
    def test_unit_quadratic_values(self):
        table = juric_coefficients(rf([1], [1, 0, 1]))
        by_pole = {p.pole: p.coeffs for p in table.poles}
        assert by_pole[0j] == (1.0,)
        assert by_pole[1j][0] == pytest.approx(-0.5)
        assert by_pole[-1j][0] == pytest.approx(-0.5)

    def test_single_simple_pole(self):
        table = juric_coefficients(rf([0, 1], [-1, 1]))  # Y = 1/(z-1)
        (entry,) = table.poles
        assert entry.pole == 1.0 and entry.coeffs == (1.0,)

    def test_double_pole_values(self):
        # X = 1/(z-2)^2, so Y = 1/(z(z-2)^2); deflated denominator at the
        # double pole is z, giving c0 = 1/2, c1 = -1/4 (checked by hand and
        # against long division)
        x = rf([1], [4, -4, 1])
        table = juric_coefficients(x)
        at2 = next(p for p in table.poles if abs(p.pole - 2) < 1e-9)
        assert at2.mult == 2
        assert at2.coeffs[0] == pytest.approx(0.5, abs=1e-12)
        assert at2.coeffs[1] == pytest.approx(-0.25, abs=1e-12)

    def test_recursion_matches_direct_low_order_formulas(self):
        # j = 0,1,2 of the recursion against the unrolled closed forms
        rng = random.Random(9)
        checked = 0
        while checked < 12:
            x, f = random_rational(rng)
            if not any(m >= 3 for _, m in f.pole_list()):
                continue
            num, den = _divided_by_z(x)
            table = juric_coefficients(x)
            for entry in table.poles:
                if entry.mult < 3:
                    continue
                zk = entry.pole
                dk = _deflate(den, zk, entry.mult)
                d0 = dk(zk)
                c0 = num(zk) / d0
                c1 = (num.derivative()(zk) - c0 * dk.derivative()(zk)) / d0
                c2 = (
                    num.derivative(2)(zk)
                    - c0 * dk.derivative(2)(zk)
                    - 2 * c1 * dk.derivative()(zk)
                ) / (2 * d0)
                for got, want in zip(entry.coeffs[:3], (c0, c1, c2)):
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
                checked += 1


class TestJuricSeries:
    def test_unit_quadratic(self):
        got = juric_series(rf([1], [1, 0, 1]), 8).values
        assert got == pytest.approx((0, 0, 1, 0, -1, 0, 1, 0, -1), abs=1e-12)

    def test_simple_pole_cancellation_at_zero(self):
        got = juric_series(rf([1], [-3, 1]), 5).values
        assert got[0] == pytest.approx(0.0, abs=1e-15)
        assert got[1:] == pytest.approx((1, 3, 9, 27, 81), rel=1e-12)

    def test_origin_poles(self):
        got = juric_series(rf([5], [0, 0, 1]), 4).values
        assert got == pytest.approx((0, 0, 5, 0, 0), abs=1e-15)


class TestResidue:
    def test_unit_quadratic(self):
        assert residue_value(rf([1], [1, 0, 1]), 2) == pytest.approx(1.0, abs=1e-12)

    def test_simple_pole(self):
        assert residue_value(rf([1], [-3, 1]), 4) == pytest.approx(27.0, abs=1e-10)

    def test_multiplicity_two_pair(self):
        den = Polynomial.from_factors(quadratic=[(0, 1, 2)])
        x = RationalFunction(Polynomial([1]), den)
        assert residue_value(x, 4) == pytest.approx(1.0, abs=1e-10)
        assert residue_value(x, 6) == pytest.approx(-2.0, abs=1e-10)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            residue_value(rf([1], [1, 0, 1]), 0)

    def test_origin_pole_via_residue(self):
        # 5/z^2: the shifted numerator cancels or exposes the origin pole
        x = rf([5], [0, 0, 1])
        assert residue_value(x, 2) == pytest.approx(5.0, abs=1e-15)
        assert residue_value(x, 3) == pytest.approx(0.0, abs=1e-15)


class TestCompareMethods:
    def test_unit_quadratic_tight(self):
        report = compare_methods(rf([1], [1, 0, 1]), n_max=20, tol=1e-10)
        assert report.passed
        assert report.worst_pair_deviation() <= 1e-10

    def test_growing_pair_instance(self):
        den = Polynomial.from_factors(quadratic=[(1, 1, 3)])
        x = RationalFunction(Polynomial([3, 2]), den)
        report = compare_methods(x, n_max=40, tol=1e-7)
        assert report.passed

    def test_identical_series_zero_deviation(self):
        report = compare_methods(rf([0, 1], [-1, 1]), n_max=10, tol=1e-12)
        dev = next(d for a, b, d in report.pairs if {a, b} == {"proposed", "longdiv"})
        assert dev == 0.0

    def test_method_error_captured_not_fatal(self):
        # improper rational: long division refuses, the others agree
        x = rf([1, 0, 0, 1], [1, 0, 1])
        report = compare_methods(x, n_max=15, tol=1e-9)
        assert report.methods["longdiv"].error is not None
        assert report.methods["proposed"].values is not None
        assert report.passed

    def test_nan_deviation_fails(self, monkeypatch):
        # a NaN after the first index is skipped by a plain max()
        x = rf([1], [1, 0, 1])
        vals = list(longdiv_series(x, 10).values)
        vals[5] = math.nan
        monkeypatch.setattr(
            oracles, "eval_sequence", lambda e, n: SequenceTable(tuple(vals), "proposed")
        )
        report = compare_methods(x, n_max=10, tol=1e-9)
        assert not report.passed
        assert all(d == math.inf for a, b, d in report.pairs if "proposed" in (a, b))

    def test_timings_recorded(self):
        report = compare_methods(rf([1], [1, 0, 1]), n_max=10)
        for run in report.methods.values():
            assert run.seconds >= 0.0
