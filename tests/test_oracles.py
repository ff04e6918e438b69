import dataclasses
import math
import random

import pytest

from zinv import corpus, oracles, pfe
from zinv.cli import main
from zinv.closedform import SequenceTable, eval_sequence, invert
from zinv.corpus import random_rational
from zinv.errors import FactorizationError
from zinv.factorize import FactoredDenominator, LinearFactor, QuadraticFactor, factor_denominator
from zinv.oracles import (
    OraclePoles,
    compare_methods,
    juric_series,
    longdiv_series,
    moreira_series,
    residue_value,
)
from zinv.parser import parse_rational_expr
from zinv.pfe import RationalFunction, _divided_by_z
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
        den = FactoredDenominator(0, (), (QuadraticFactor(0, 1, 2),)).expand()
        got = longdiv_series(RationalFunction(Polynomial([1]), den), 8).values
        assert got == (0, 0, 0, 0, 1, 0, -2, 0, 3)

    def test_improper_drops_polynomial_part(self):
        # z^2/(z-1) = z + 1 + 1/z + ...: the z term is x[-1], never output
        assert longdiv_series(rf([0, 0, 1], [-1, 1]), 5).values == (1,) * 6
        assert longdiv_series(rf([-1, 0, 3], [1]), 4).values == (-1, 0, 0, 0, 0)
        for text in ("3*z^2 - 1", "(z^4+1)/(z^2+1)", "(z^6-2z+1)/((z-0.5)^2 (z^2+z+1))"):
            x, f = parse_rational_expr(text)
            want = eval_sequence(invert(x, factored=f), 60).values
            assert longdiv_series(x, 60).values == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_overflow_inside_the_recurrence_is_reported(self, capsys):
        # x[3] = 0.5 + 10^320: the float 0.5 plus an int beyond the float range
        # raises inside the recurrence, and the CLI names the method and index
        text = f"({10**120}*z^2+0.5)/(z^3-{10**200}*z)"
        with pytest.raises(OverflowError, match=r"^longdiv sequence overflows a float at n=3$"):
            longdiv_series(parse_rational_expr(text)[0], 4)
        assert main(["table", text, "--method", "longdiv", "--n", "4"]) == 1
        assert capsys.readouterr().err == "error: longdiv sequence overflows a float at n=3\n"

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
        den = FactoredDenominator(0, (LinearFactor(2, 3),), ()).expand()
        x = RationalFunction(Polynomial([1]), den)
        ld = longdiv_series(x, 15).values
        got = moreira_series(x, 15).values
        assert got == pytest.approx(ld, rel=1e-9, abs=1e-9)

    def test_sums_in_floats_with_no_imaginary_part(self, monkeypatch):
        # moreira reads only real parts at the origin and at real poles and
        # folds each pair into a cosine, so it has no imaginary residue for
        # _discard_imag to check: forbidding the check changes no value
        rng = random.Random(3)
        cases = [random_rational(rng)[0] for _ in range(60)]
        cases += [
            parse_rational_expr(text)[0]
            for text in (
                "(2z+3)/((z^2-2z+2)^3)",
                "(z^6+2z-1)/((z^2+1)^2 (z-1)^2)",
                "(z^3+2)/(z^2*(z-0.5)^2*(z^2-z+0.5)^2)",
                "(0.5z^2-1.25z+2)/((z^2-1.1015625z+0.94140625)^3 (z+0.98046875))",
            )
        ]
        want = [repr(moreira_series(x, 80).values) for x in cases]

        def refuse(value, where):
            raise AssertionError(f"{where} formed an imaginary part")

        monkeypatch.setattr(oracles, "_discard_imag", refuse)
        got = [moreira_series(x, 80).values for x in cases]
        assert list(map(repr, got)) == want
        assert all(type(v) is float for vals in got for v in vals)


def over_z_table(x):
    """X(z)/z's principal-part table at the oracles' poles: juric's c_j = A_{m-j}."""
    return OraclePoles(x).pfe_over_z()


def pole_product_cofactor(poles, zk):
    """D_k = prod_{z_i != z_k} (z - z_i)^m_i, a pair without z_k as its real quadratic."""
    dk = Polynomial([1])
    for z, m in poles:
        if z == zk:
            continue
        if z == zk.conjugate():
            dk = dk * Polynomial([-z, 1]) ** m
        elif z.imag == 0:
            dk = dk * Polynomial([-z.real, 1]) ** m
        elif z.imag > 0:
            dk = dk * Polynomial([z.real * z.real + z.imag * z.imag, -2 * z.real, 1]) ** m
    return dk


class TestJuricCoefficients:
    """juric's coefficients c_j = A_{m-j}, read off X(z)/z's principal-part table."""

    def test_unit_quadratic_values(self):
        table = over_z_table(rf([1], [1, 0, 1]))
        assert table[0j] == {1: 1.0}
        assert table[1j][1] == pytest.approx(-0.5)
        assert table[-1j][1] == pytest.approx(-0.5)

    def test_single_simple_pole(self):
        table = over_z_table(rf([0, 1], [-1, 1]))  # Y = 1/(z-1)
        assert table == {1.0: {1: 1.0}}

    def test_double_pole_values(self):
        # X = 1/(z-2)^2, so Y = 1/(z(z-2)^2); the cofactor at the double
        # pole is z, giving c0 = A_2 = 1/2, c1 = A_1 = -1/4 (checked by hand
        # and against long division)
        x = rf([1], [4, -4, 1])
        table = over_z_table(x)
        at2 = next(part for z, part in table.items() if abs(z - 2) < 1e-9)
        assert len(at2) == 2
        assert at2[2] == pytest.approx(0.5, abs=1e-12)
        assert at2[1] == pytest.approx(-0.25, abs=1e-12)

    def test_recursion_matches_direct_low_order_formulas(self):
        # c_0..c_2 of the Taylor quotient against the derivative formulas
        # c_j = (N^(j) - sum_{l<j} (j)_l c_l D_k^(j-l)) / (j! D_k) at z_k,
        # (j)_l the falling factorial, with the same pole-product cofactor D_k
        rng = random.Random(9)
        checked = 0
        while checked < 12:
            x, f = random_rational(rng)
            if not any(m >= 3 for _, m in f.pole_list()):
                continue
            num = _divided_by_z(x)[0]
            poles = OraclePoles(x).over_z()
            table = over_z_table(x)
            for zk, m in poles:
                if m < 3:
                    continue
                dk = pole_product_cofactor(poles, zk)
                d0 = dk(zk)
                c0 = num(zk) / d0
                c1 = (num.derivative()(zk) - c0 * dk.derivative()(zk)) / d0
                c2 = (
                    num.derivative(2)(zk)
                    - c0 * dk.derivative(2)(zk)
                    - 2 * c1 * dk.derivative()(zk)
                ) / (2 * d0)
                for j, want in enumerate((c0, c1, c2)):
                    got = table[zk][m - j]
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
        den = FactoredDenominator(0, (), (QuadraticFactor(0, 1, 2),)).expand()
        x = RationalFunction(Polynomial([1]), den)
        assert residue_value(x, 4) == pytest.approx(1.0, abs=1e-10)
        assert residue_value(x, 6) == pytest.approx(-2.0, abs=1e-10)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            residue_value(rf([1], [1, 0, 1]), 0)

    def test_constant_denominator_has_no_residue(self):
        x = rf([1, 0, 1], [1])  # z^2 + 1
        assert residue_value(x, 3) == 0.0
        assert residue_value(x, 3, poles=OraclePoles(x)) == 0.0

    def test_origin_pole_via_residue(self):
        # 5/z^2: the shifted numerator cancels or exposes the origin pole
        x = rf([5], [0, 0, 1])
        assert residue_value(x, 2) == pytest.approx(5.0, abs=1e-15)
        assert residue_value(x, 3) == pytest.approx(0.0, abs=1e-15)


    def test_origin_pole_terms_past_n_skipped(self):
        # 1/z^3 at n = 1, 2: C(n-1, l) = 0 for l > n-1, where 0^(n-1-l)
        # would divide by zero
        x = rf([1], [0, 0, 0, 1])
        assert [residue_value(x, n) for n in (1, 2, 3, 4)] == [0.0, 0.0, 1.0, 0.0]

    def test_repeated_pole_at_high_index(self):
        # 1/(z-0.5)^3 with exact poles: x[n] = C(n-1, 2) 0.5^(n-3)
        x = rf([1], [-0.125, 0.75, -1.5, 1])
        poles = OraclePoles(x)
        assert poles.of_x() == [(0.5 + 0j, 3)]
        for n in (1, 2, 3, 50, 1000):
            want = math.comb(n - 1, 2) * 0.5 ** (n - 3)
            assert residue_value(x, n, poles=poles) == pytest.approx(want, rel=1e-12)

class TestCompareMethods:
    def test_unit_quadratic_tight(self):
        report = compare_methods(rf([1], [1, 0, 1]), n_max=20, tol=1e-10)
        assert report.passed
        assert report.worst_pair_deviation() <= 1e-10

    def test_growing_pair_instance(self):
        den = FactoredDenominator(0, (), (QuadraticFactor(1, 1, 3),)).expand()
        x = RationalFunction(Polynomial([3, 2]), den)
        report = compare_methods(x, n_max=40, tol=1e-7)
        assert report.passed

    def test_identical_series_zero_deviation(self):
        report = compare_methods(rf([0, 1], [-1, 1]), n_max=10, tol=1e-12)
        dev = next(d for a, b, d in report.pairs if {a, b} == {"proposed", "longdiv"})
        assert dev == 0.0

    def test_method_error_captured_not_fatal(self):
        # numeric factoring of the expanded triple poles 0.01 apart fails: the
        # oracles that factor error, the others still run, and the case fails
        x, f = parse_rational_expr("1/((z-1)^3 (z-1.01)^3)")
        report = compare_methods(x, n_max=15, tol=1e-9, factored=f)
        assert report.methods["moreira"].error is not None
        assert report.methods["proposed"].values is not None
        assert report.methods["longdiv"].values is not None
        assert not report.passed

    def test_improper_input_passes_with_every_method(self):
        x, _ = parse_rational_expr("(z^4+1)/(z^2+1)")
        report = compare_methods(x, n_max=30, tol=1e-9)
        assert all(run.error is None for run in report.methods.values())
        assert report.passed

    def test_report_is_immutable(self):
        report = compare_methods(rf([1], [1, 0, 1]), n_max=10)
        assert isinstance(report.pairs, tuple) and isinstance(report.residue_checks, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.passed = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.methods["longdiv"].error = "x"

    def test_nan_deviation_fails(self, monkeypatch):
        # a NaN after the first index is skipped by a plain max()
        x = rf([1], [1, 0, 1])
        vals = list(longdiv_series(x, 10).values)
        vals[5] = math.nan
        monkeypatch.setattr(
            oracles, "eval_sequence", lambda e, n: SequenceTable(tuple(vals))
        )
        report = compare_methods(x, n_max=10, tol=1e-9)
        assert not report.passed
        assert all(d == math.inf for a, b, d in report.pairs if "proposed" in (a, b))

    def test_timings_recorded(self):
        report = compare_methods(rf([1], [1, 0, 1]), n_max=10)
        for run in report.methods.values():
            assert run.seconds >= 0.0


class TestSharedPoleLists:
    """The oracles factor one denominator, X(z)/z's, once per request."""

    def test_compare_factors_once_with_exact_factors(self, factor_calls):
        x, factored = random_rational(random.Random(42))
        compare_methods(x, n_max=50, tol=1e-7, factored=factored)
        assert len(factor_calls) == 1

    def test_corpus_values_match_standalone_oracles(self):
        # the standalone calls factor for themselves and never see the
        # parser's factors, so equality also shows where compare's oracle
        # poles come from
        rng = random.Random(42)
        standalone = {"longdiv": longdiv_series, "moreira": moreira_series, "juric": juric_series}
        for _ in range(100):
            x, factored = random_rational(rng)
            report = compare_methods(x, n_max=50, tol=1e-7, factored=factored)
            for name, series in standalone.items():
                assert report.methods[name].values == series(x, 50).values
            assert len(report.residue_checks) == 5
            for n, val, _, err in report.residue_checks:
                assert err is None and val == residue_value(x, n)

    def test_compare_builds_each_principal_part_once(self, monkeypatch):
        # moreira and juric share one X(z)/z table, and the 5 residue checks
        # one X table: two principal_parts calls per request
        calls = []
        real = pfe.principal_parts

        def counted(num, poles):
            calls.append((num, list(poles)))
            return real(num, poles)

        monkeypatch.setattr(pfe, "principal_parts", counted)
        monkeypatch.setattr(oracles, "principal_parts", counted)
        x, factored = random_rational(random.Random(42))
        report = compare_methods(x, n_max=50, tol=1e-7, factored=factored)
        assert len(report.residue_checks) == 5
        num, den = _divided_by_z(x)
        poles = OraclePoles(x)
        assert calls == [(num % den, poles.over_z()), (x.num, poles.of_x())]
        assert len(poles.of_x()) >= 2

    def test_factoring_error_stays_per_method(self, factor_calls):
        # the closed form uses the exact factors; numeric factoring of the
        # expanded triple poles 0.01 apart fails for every oracle that needs poles
        x, factored = parse_rational_expr("1/((z-1)^3 (z-1.01)^3)")
        alone = {}
        for name, call in (
            ("moreira", lambda: moreira_series(x, 50)),
            ("juric", lambda: juric_series(x, 50)),
            ("residue", lambda: residue_value(x, 1)),
        ):
            with pytest.raises(FactorizationError) as exc:
                call()
            alone[name] = str(exc.value)
        del factor_calls[:]
        report = compare_methods(x, n_max=50, tol=1e-7, factored=factored)
        assert len(factor_calls) == 1
        assert report.methods["proposed"].values is not None
        assert report.methods["longdiv"].values is not None
        assert report.methods["moreira"].error == alone["moreira"]
        assert report.methods["juric"].error == alone["juric"]
        assert [err for *_, err in report.residue_checks] == [alone["residue"]] * 5

    def test_stress_mult_case_29_poles(self):
        # stress-mult case 29 (max_degree=12, max_mult=5): two 5-fold real
        # poles, which fixed cluster widths split into two simple reals and
        # four spurious near-real pairs
        rng = random.Random(7)
        for _ in range(30):
            x, f = random_rational(rng, max_degree=12, max_mult=5)
        assert f.quadratics == () and [lf.u for lf in f.linears] == [5, 5]
        poles = OraclePoles(x).over_z()
        assert [m for _, m in poles] == [5, 5, 1] and poles[2][0] == 0
        want = sorted(lf.r for lf in f.linears)
        assert all(abs(z - r) <= 1e-8 for (z, _), r in zip(poles, want))


class TestStressCompare:
    """compare on the stress profiles of test_closedform's TestStressAccuracy.

    The closed form is within 1.2e-9 of exact on every case, so a FAIL is an
    oracle's. Cases 32 and 82 of stress-close fail with the true poles too:
    that is float conditioning of the complex amplitudes.
    """

    @pytest.mark.parametrize(
        "separation, max_mult, allowed",
        [(0.05, 4, {32, 82}), (corpus.MIN_SEPARATION, 5, set())],
        ids=["stress-close", "stress-mult"],
    )
    def test_failures_within_known_set(self, separation, max_mult, allowed, monkeypatch):
        monkeypatch.setattr(corpus, "MIN_SEPARATION", separation)
        rng = random.Random(7)
        failed = set()
        for case in range(200):
            x, f = random_rational(rng, max_degree=12, max_mult=max_mult)
            if not compare_methods(x, 50, 1e-7, factored=f).passed:
                failed.add(case)
        assert failed <= allowed


class TestPolesOfX:
    """of_x() is read off X(z)/z's factoring, and equals factoring X's denominator."""

    EDGE = (
        "z/(z-0.5)",
        "1/(z^2 (z-0.5))",
        "z^2/(z (z-0.5)^2)",
        "z^3/(z^2 (z^2-z+0.5))",
        "z^2+1",
        "3",
        "1/z^3",
        # poles this close to the origin, beside z*D's exact z factor
        "1/(z-0.0000001)",
        "1/((z-0.0000001)*(z-0.5))",
        "1/(z^2-0.0000001*z)",
    )

    @staticmethod
    def assert_same_poles(x):
        want = factor_denominator(x.den).pole_list()
        got = OraclePoles(x).of_x()
        assert [m for _, m in got] == [m for _, m in want]
        assert all(abs(g - w) <= 1e-9 for (g, _), (w, _) in zip(got, want))

    def test_default_corpus(self):
        rng = random.Random(42)
        for _ in range(300):
            self.assert_same_poles(random_rational(rng)[0])

    @pytest.mark.parametrize("expr", EDGE)
    def test_edge_cases(self, expr):
        self.assert_same_poles(parse_rational_expr(expr)[0])

    @pytest.mark.parametrize("expr", ["z^2/(z (z-0.5)^2)", "1/(z-0.0000001)"])
    def test_one_factoring_per_request(self, expr, factor_calls):
        # a pole this close to the origin stays apart from z*D's exact z factor
        x, factored = parse_rational_expr(expr)
        report = compare_methods(x, n_max=50, tol=1e-7, factored=factored)
        assert report.passed
        assert len(factor_calls) == 1


class TestOverflow:
    """Each oracle names itself and the first n whose value is not a finite float."""

    SERIES = {"longdiv": longdiv_series, "moreira": moreira_series, "juric": juric_series}

    @pytest.mark.parametrize(
        "expr,method,n",
        [
            # integer data: long division keeps exact ints while they fit a float
            ("1/(z^2-4z+8)", "longdiv", 686),
            ("1/(z^2-4z+8)", "moreira", 683),
            ("1/(z^2-4z+8)", "juric", 683),
            ("1/(z-1.9)^3", "longdiv", 1087),
            ("1/(z-1.9)^3", "moreira", 1089),
            ("1/(z-1.9)^3", "juric", 1089),
        ],
    )
    def test_series_names_first_n(self, expr, method, n):
        x, _ = parse_rational_expr(expr)
        vals = self.SERIES[method](x, n - 1).values
        assert all(map(math.isfinite, vals))
        with pytest.raises(OverflowError, match=f"^{method} sequence overflows a float at n={n}$"):
            self.SERIES[method](x, n + 50)

    def test_longdiv_ints_stay_exact_in_range(self):
        x, _ = parse_rational_expr("1/(z^2-4z+8)")
        assert all(type(v) is int for v in longdiv_series(x, 685).values)

    @pytest.mark.parametrize("expr,n", [("1/(z^2-4z+8)", 684), ("1/(z-1.9)^3", 1089)])
    def test_residue_names_n(self, expr, n):
        x, _ = parse_rational_expr(expr)
        assert math.isfinite(residue_value(x, n - 1))
        with pytest.raises(OverflowError, match=f"^residue sequence overflows a float at n={n}$"):
            residue_value(x, n)
