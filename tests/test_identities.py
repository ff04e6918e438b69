import math

import pytest

from zinv.closedform import ClosedFormExpr, QuadPole, eval_sequence
from zinv.identities import (
    binomial_general,
    falling_factorial,
    internal_summation_holds,
    pair_convolution_series,
    surjection_count,
)


class TestFallingFactorial:
    def test_basic(self):
        assert falling_factorial(5, 3) == 60

    def test_empty_product(self):
        for x in (-7, 0, 3, 10**12):
            assert falling_factorial(x, 0) == 1

    def test_crosses_zero(self):
        assert falling_factorial(3, 5) == 0

    def test_negative_argument(self):
        assert falling_factorial(-1, 3) == -6  # (-1)(-2)(-3)


class TestBinomialGeneral:
    def test_ordinary(self):
        assert binomial_general(5, 2) == 10

    def test_vanishes_above_diagonal(self):
        assert binomial_general(3, 7) == 0

    def test_negative_upper_empty(self):
        assert binomial_general(-1, 0) == 1

    def test_negative_upper_signed(self):
        assert binomial_general(-1, 3) == -1
        assert binomial_general(-2, 2) == 3

    def test_consistent_with_factorial_form(self):
        for nu in range(0, 31):
            for kappa in range(0, nu + 1):
                assert binomial_general(nu, kappa) == math.comb(nu, kappa)


class TestInternalSummation:
    def test_hand_computed_case(self):
        # k=2, j=0, n=5: LHS = 2 - 4 = -2, RHS = -(5-3) = -2
        assert internal_summation_holds(2, 0, 5)

    def test_single_term_sum(self):
        for n in range(-5, 20):
            assert internal_summation_holds(1, 0, n)

    def test_three_one_ten(self):
        assert internal_summation_holds(3, 1, 10)

    def test_full_grid_exact(self):
        for k in range(1, 7):
            for j in range(k):
                for n in range(0, 41):
                    assert internal_summation_holds(k, j, n), (k, j, n)

    def test_invalid_j_rejected(self):
        with pytest.raises(ValueError):
            internal_summation_holds(2, 2, 5)


class TestSurjectionCount:
    def test_underfilled_is_zero(self):
        assert surjection_count(3, 2) == 0

    def test_equal_counts(self):
        assert surjection_count(2, 2) == 2

    def test_zero_balls_one_box(self):
        # 0^0 = 1 makes the w=sigma corner behave: 1 - 1 = 0
        assert surjection_count(1, 0) == 0

    def test_identity_sweep(self):
        for sigma in range(1, 11):
            for p in range(sigma):
                assert surjection_count(sigma, p) == 0

    def test_factorial_at_diagonal(self):
        for sigma in range(1, 11):
            assert surjection_count(sigma, sigma) == math.factorial(sigma)


def _closed_form_s0(a, b, k, n_max):
    """s0[0..n_max] of the pair a +/- ib, as eval_sequence tabulates it."""
    return eval_sequence(ClosedFormExpr((QuadPole(0.0, 1.0, a, b, k),)), n_max).values


class TestPairConvolution:
    def test_single_summand(self):
        series = pair_convolution_series(0, 1, 1, 2)
        assert series.values[2] == 1.0

    def test_multiplicity_two_matches_longdiv_pattern(self):
        series = pair_convolution_series(0, 1, 2, 8)
        assert series.values == (0, 0, 0, 0, 1, 0, -2, 0, 3)

    def test_zero_prefix(self):
        for k in range(1, 5):
            series = pair_convolution_series(1, 2, k, 2 * k)
            for n in range(2 * k):
                assert series.values[n] == 0.0

    def test_matches_closed_form_on_grid(self):
        for a, b in ((0, 1), (1, 1), (1, 2), (0.5, 0.8)):
            for k in range(1, 5):
                series = pair_convolution_series(a, b, k, 40)
                s0 = _closed_form_s0(a, b, k, 40)
                for n in range(41):
                    assert abs(series.values[n] - s0[n]) <= 1e-9

    def test_integer_pairs_bit_exact(self):
        for a, b in ((0, 1), (1, 1), (1, 2)):
            for k in range(1, 5):
                series = pair_convolution_series(a, b, k, 40)
                assert series.values == _closed_form_s0(a, b, k, 40)

    def test_rejects_non_pair(self):
        with pytest.raises(ValueError, match="not a complex pair"):
            pair_convolution_series(1, 0, 1, 5)
        with pytest.raises(ValueError, match="multiplicity must be >= 1"):
            pair_convolution_series(1, 1, 0, 5)
