import random

import pytest

from zinv.corpus import random_rational
from zinv.errors import ParseError
from zinv.factorize import FactoredDenominator, LinearFactor, QuadraticFactor
from zinv.oracles import compare_methods
from zinv.parser import batch_expressions, parse_rational_expr, tokenize
from zinv.polynomial import Polynomial


class TestBasicParsing:
    def test_unit_quadratic(self):
        x, f = parse_rational_expr("1/(z^2+1)")
        assert x.num == Polynomial([1])
        assert x.den == Polynomial([1, 0, 1])
        assert f.quadratics == (QuadraticFactor(0.0, 1.0, 1),)

    def test_repeated_quadratic(self):
        x, f = parse_rational_expr("(2*z+3)/((z^2-2*z+2)^3)")
        assert x.num == Polynomial([3, 2])
        (q,) = f.quadratics
        assert (q.a, q.b, q.k) == (1.0, 1.0, 3)

    def test_improper(self):
        x, f = parse_rational_expr("(z^3+1)/(z^2+1)")
        assert x.num.degree == 3
        assert f is not None and f.quadratics[0].b == 1.0

    def test_no_denominator(self):
        x, f = parse_rational_expr("3*z^2 - 1")
        assert x.den == Polynomial([1])
        assert f == FactoredDenominator(0, (), ())

    def test_implicit_multiplication(self):
        x, _ = parse_rational_expr("2z/(z-1)")
        assert x.num == Polynomial([0, 2])
        y, _ = parse_rational_expr("(z-1)(z+1)")
        assert y.num == Polynomial([-1, 0, 1])

    def test_whitespace_insignificant(self):
        a, _ = parse_rational_expr(" 1 / ( z ^ 2 + 1 ) ")
        b, _ = parse_rational_expr("1/(z^2+1)")
        assert a.num == b.num and a.den == b.den

    def test_long_trailing_whitespace_scans_once(self):
        # a scan that retried the pattern at each trailing blank would take
        # time quadratic in their number, here minutes
        pad = " \n\t" * 20000
        x, _ = parse_rational_expr("1/(z-1)" + pad)
        assert x.den == Polynomial([-1, 1])
        with pytest.raises(ParseError, match=r"^unexpected end of input at line 20001, column 2 "):
            parse_rational_expr("z+" + pad)

    def test_scientific_notation(self):
        x, _ = parse_rational_expr("1e-2*z + 2.5E3")
        assert x.num == Polynomial([2500.0, 0.01])

    @pytest.mark.parametrize(
        "text,value",
        [("7", 7), ("07", 7), ("7.", 7.0), (".5", 0.5), ("1e3", 1000.0), ("1E3", 1000.0),
         ("1e-2", 0.01), ("2.5E+3", 2500.0)],
    )
    def test_number_literal_types(self, text, value):
        # an int exactly when the literal has no "." and no exponent
        kinds, values = tokenize(text)
        assert kinds == ["number", "end"]
        assert (values[0], type(values[0])) == (value, type(value))
        assert values[1] is None

    def test_unary_minus_precedence(self):
        x, _ = parse_rational_expr("-z^2")
        assert x.num == Polynomial([0, 0, -1])


class TestFactoredExtraction:
    def test_origin_power(self):
        _, f = parse_rational_expr("5/z^2")
        assert f.origin_mult == 2 and f.linears == () and f.quadratics == ()

    def test_linear_product(self):
        _, f = parse_rational_expr("1/((z-1)*(z-2)^2)")
        assert f.linears == (LinearFactor(1, 1), LinearFactor(2, 2))

    @pytest.mark.parametrize("text", ["(z^2+1)/2", "z/(-0.5)", "1/(2*3)^2"])
    def test_constant_denominator_has_the_empty_structure(self, text):
        assert parse_rational_expr(text)[1] == FactoredDenominator(0, (), ())

    def test_constant_divided_out(self):
        x, f = parse_rational_expr("1/(2*z-4)")
        assert f.linears == (LinearFactor(2, 1),)
        assert f.expand() == x.den

    def test_exact_expansion(self):
        text = "1/((z-1)^2*(z^2+z+1))"
        x, f = parse_rational_expr(text)
        e = f.expand()
        den_raw = FactoredDenominator(0, (LinearFactor(1, 2),), ()).expand() * Polynomial([1, 1, 1])
        assert all(
            abs(e.coeff(i) - den_raw.coeff(i)) <= 1e-12 for i in range(e.degree + 1)
        )

    def test_repeated_same_factor_merges(self):
        _, f = parse_rational_expr("1/((z-1)*(z-1))")
        assert f.linears == (LinearFactor(1, 2),)

    def test_bare_reducible_quadratic_falls_back(self):
        x, f = parse_rational_expr("1/(z^2-3*z+2)")
        assert f is None
        assert x.den == Polynomial([2, -3, 1])

    def test_explicit_reducible_quadratic_falls_back(self):
        # written powered or next to another factor, as bare: numeric factoring
        for text, den in (
            ("1/((z^2-3*z+2)^2)", Polynomial([2, -3, 1]) ** 2),
            ("1/((z-5)*(z^2-3*z+2))", Polynomial([-5, 1]) * Polynomial([2, -3, 1])),
        ):
            x, f = parse_rational_expr(text)
            assert f is None
            assert x.den == den

    @pytest.mark.parametrize(
        "text, flat",
        [
            ("1/((z-1)*(z+2))^2", "1/((z-1)^2*(z+2)^2)"),
            ("1/((z-1)^2)^3", "1/((z-1)^6)"),
            ("1/(z*(z-1))^2", "1/(z^2*(z-1)^2)"),
            ("1/((z-1)^2*(z+2))^2", "1/((z-1)^4*(z+2)^2)"),
            ("1/(-2*(z^2+z+1)*(z-3))^3", "1/(-8*(z^2+z+1)^3*(z-3)^3)"),
            ("1/((1-z)*(z+2))^2", "1/((z-1)^2*(z+2)^2)"),
        ],
    )
    def test_power_of_a_product_powers_each_multiplicand(self, text, flat):
        # (A*B)^k is A^k*B^k: every base keeps its own factor
        x, f = parse_rational_expr(text)
        y, g = parse_rational_expr(flat)
        assert f is not None and f == g
        assert x == y
        assert compare_methods(x, 50, 1e-7, factored=f).passed

    @pytest.mark.parametrize(
        "text",
        [
            "1/((1e-200*z^2+1e-200*z+1e-200)*(z-1))",  # the discriminant underflows to 0
            "1/(1e200*z^2+1e200*z+1e200)",  # inf - inf: a NaN discriminant
            "1/((1e-200*z^2+1e-200)*(z-1))",  # 4*c2*c0 underflows to 0
            "1/((10^200*z^2+10^200)*(z-3))",  # an int discriminant beyond the float range
        ],
    )
    def test_discriminant_out_of_float_range_falls_back(self, text):
        x, f = parse_rational_expr(text)
        assert f is None
        assert compare_methods(x, 50, 1e-7).passed

    def test_cubic_factor_falls_back(self):
        _, f = parse_rational_expr("1/(z^3+2*z+5)")
        assert f is None

    def test_linear_factor_led_by_minus_one_keeps_an_int_root(self):
        # 1 - z is -(z - 1): r is read off c0 with no division to make it a float
        _, f = parse_rational_expr("1/(1-z)^2")
        (lf,) = f.linears
        assert lf == LinearFactor(1, 2) and type(lf.r) is int

    def test_negated_denominator(self):
        x, f = parse_rational_expr("1/(-(z-2))")
        assert f.linears == (LinearFactor(2, 1),)
        assert f.expand() == x.den

    @pytest.mark.parametrize(
        "text",
        [
            "1/((z-5)*((z^2-3*z+2)))",
            "1/(-(z^2-3*z+2)^2)",
            "1/((z^2-1)*(z-3))^2",  # (A*B)^k is read as A^k*B^k
            "1/((z^2-2*z+1)^6)",  # a double real root written as a quadratic
        ],
    )
    def test_reducible_factor_falls_back(self, text):
        x, f = parse_rational_expr(text)
        assert f is None
        assert compare_methods(x, 50, 1e-7).passed

    @pytest.mark.parametrize(
        "text, flat",
        [
            ("(2z-1)/((z-0.5)^2 (z^2-z+0.5))", "2/((z-0.5)*(z^2-z+0.5))"),
            ("(z^2+10)/((z^2+10)*(z-0.5))", "1/(z-0.5)"),
            ("z^2 (z-1)/(z^3 (z-1)^2 (z+2))", "1/(z*(z-1)*(z+2))"),
            ("(z-1)^3/((z-1)^2 (z+2))", "(z-1)/(z+2)"),
            ("(z^3+2)/((z-1)^2 (z^3+2))", "1/((z-1)^2)"),  # a cancelled cubic
        ],
    )
    def test_cancelled_written_factors_keep_the_rest(self, text, flat):
        # each written base that divides the numerator exactly loses one power per division
        x, f = parse_rational_expr(text)
        y, g = parse_rational_expr(flat)
        assert f is not None and f == g
        assert f.expand() == x.den == y.den

    def test_partly_cancelled_cubic_falls_back(self):
        x, f = parse_rational_expr("(z-1)/((z-1)^2 (z^3+2))")
        assert x.den.degree == 4 and f is None

    def test_sign_and_constants_through_nested_products(self):
        x, f = parse_rational_expr("1/(2*((z-1)*(-(z+3))))")
        assert f.linears == (LinearFactor(-3, 1), LinearFactor(1, 1))
        assert f.expand() == x.den

    @pytest.mark.parametrize(
        "text, num",
        [
            ("-1.5*z^3 + 2*z", "(0.0, 2.0, 0.0, -1.5)"),
            ("(1.0*z)^3/(z-1)", "(0, 0, 0.0, 1.0)"),
            ("z^5", "(0, 0, 0, 0, 0, 1)"),
        ],
    )
    def test_coefficient_types(self, text, num):
        # int and float coefficients print differently in JSON
        x, _ = parse_rational_expr(text)
        assert repr(x.num.coeffs) == num


_EXPECTED_ATOM = " (expected NUMBER or 'z' or '(' or '-')"


class TestErrors:
    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as e:
            parse_rational_expr("1/(z^2+)")
        assert e.value.line == 1
        assert e.value.column == 8

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse_rational_expr("z^-1")

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError, match="non-integer exponent"):
            parse_rational_expr("z^2.5")

    def test_two_divisions(self):
        with pytest.raises(ParseError, match="more than one top-level '/'"):
            parse_rational_expr("1/z/2")

    def test_nested_division(self):
        with pytest.raises(ParseError, match="top level"):
            parse_rational_expr("1/(1/(z+1))")
        with pytest.raises(ParseError, match="top level"):
            parse_rational_expr("(1/z)")

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="only variable 'z'"):
            parse_rational_expr("1/(s^2+1)")

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_rational_expr("z$2")

    def test_empty(self):
        with pytest.raises(ParseError, match="empty expression"):
            parse_rational_expr("   ")

    def test_missing_denominator(self):
        with pytest.raises(ParseError, match="missing denominator"):
            parse_rational_expr("z/")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1+/z", f"unexpected token '/' at line 1, column 3{_EXPECTED_ATOM}"),
            (")", f"unexpected token ')' at line 1, column 1{_EXPECTED_ATOM}"),
            # whitespace or a newline before the failing token
            ("1 +\n  / z", f"unexpected token '/' at line 2, column 3{_EXPECTED_ATOM}"),
            ("z +  $", "unexpected character '$' at line 1, column 6"),
            ("1/(s + 1)", "only variable 'z' is allowed, got 's' at line 1, column 4"),
            ("1/\n  ", "missing denominator after '/' at line 2, column 3"),
            ("1\n  /(z-z)", "denominator is identically zero at line 2, column 3"),
        ],
    )
    def test_error_names_the_first_token_the_grammar_cannot_take(self, text, message):
        with pytest.raises(ParseError) as e:
            parse_rational_expr(text)
        assert str(e.value) == message

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError, match=r"^missing closing parenthesis at line 1, column 5 "):
            parse_rational_expr("(z+1")

    @pytest.mark.parametrize(
        "text, name",
        [
            ("1/(1e100*z^2+1e100)^4", "denominator"),  # 1e400 overflows to inf
            ("1/(1e200*z^2+1e200*z+1e200)^2", "denominator"),
            ("1/(z^2*1e308*10+1)", "denominator"),  # inf/inf is NaN
            ("z/(1e-320*z^2+1)", "numerator"),  # dividing by a subnormal gives inf
            ("10^400/(2*z+1)", "numerator"),  # an int quotient beyond the float range
            ("1/((z^2+10^400*z+10^800)*(z-1))", "denominator"),  # an int beyond it
        ],
    )
    def test_out_of_float_range(self, text, name):
        with pytest.raises(ValueError, match=f"^{name} out of the float range"):
            parse_rational_expr(text)


class TestRoundTrip:
    def test_generated_corpus(self):
        rng = random.Random(2718)
        for _ in range(200):
            x, _ = random_rational(rng)
            y, _ = parse_rational_expr(str(x))
            assert y.num.coeffs == pytest.approx(x.num.coeffs)
            assert y.den.coeffs == pytest.approx(x.den.coeffs)
            assert y.num.degree == x.num.degree
            assert y.den.degree == x.den.degree

    def test_integer_round_trip_exact(self):
        x, _ = parse_rational_expr("(2*z+3)/(z^2-2*z+2)")
        y, _ = parse_rational_expr(str(x))
        assert y.num == x.num
        assert y.den == x.den


class TestBatch:
    def test_comments_and_blanks(self):
        text = "# header\n1/(z^2+1)\n\n z/(z-1) # trailing\n#only comment\n"
        entries = batch_expressions(text)
        assert entries == [(2, "1/(z^2+1)"), (4, "z/(z-1)")]
