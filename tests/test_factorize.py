import math
import random

import numpy as np
import pytest

from zinv import factorize
from zinv.corpus import random_rational
from zinv.errors import FactorizationError
from zinv.factorize import (
    FactoredDenominator,
    LinearFactor,
    QuadraticFactor,
    cluster_and_pair,
    factor_denominator,
    find_roots,
)
from zinv.polynomial import Polynomial


class TestFindRoots:
    def test_unit_quadratic(self):
        roots = [z for z, _ in find_roots(Polynomial([1, 0, 1]))]
        assert sorted(roots, key=lambda z: z.imag) == pytest.approx([-1j, 1j])

    def test_triple_root(self):
        roots = find_roots(Polynomial([-8, 12, -6, 1]))
        assert len(roots) == 3
        for z, res in roots:
            assert abs(z - 2) < 1e-4  # triple roots are ill-conditioned
            assert res <= 1e-6

    def test_conjugate_pair(self):
        roots = sorted(
            (z for z, _ in find_roots(Polynomial([5, -2, 1]))), key=lambda z: z.imag
        )
        assert roots[0] == pytest.approx(1 - 2j)
        assert roots[1] == pytest.approx(1 + 2j)

    def test_residuals_small_for_separated_roots(self):
        lins = (LinearFactor(0.5, 1), LinearFactor(-1.25, 1), LinearFactor(2, 1))
        p = FactoredDenominator(0, lins, ()).expand()
        for z, res in find_roots(p):
            assert res <= 1e-9 * max(1.0, p.norm_inf)

    def test_constant_has_no_roots(self):
        assert find_roots(Polynomial([3])) == []

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            find_roots(Polynomial([]))

    def test_far_root_residual_is_rounding(self):
        # |p(z)| at z = -5e11 is 3.3e-5, far above 1e-6 but within what
        # rounding in p(z) leaves at that |z|
        roots = [z for z, _ in find_roots(Polynomial([1.0, 1.0, 2e-12]))]
        assert roots[0].real == pytest.approx(-5e11, rel=1e-9)
        assert roots[1] == pytest.approx(-1.0, abs=1e-9)


class TestClusterAndPair:
    def test_single_conjugate_pair(self):
        f = cluster_and_pair(Polynomial([1, 0, 1]), [1j, -1j])
        assert f.origin_mult == 0
        assert f.linears == ()
        assert f.quadratics == (QuadraticFactor(0.0, 1.0, 1),)

    def test_repeated_real_root(self):
        f = cluster_and_pair(Polynomial([-8, 12, -6, 1]), [2.0 + 0j, 2.0 + 0j, 2.0 + 0j])
        assert f.linears == (LinearFactor(2.0, 3),)
        assert f.quadratics == ()

    def test_origin_plus_pair(self):
        f = cluster_and_pair(Polynomial([0, 1, 0, 1]), [0j, 1j, -1j])
        assert f.origin_mult == 1
        assert f.quadratics == (QuadraticFactor(0.0, 1.0, 1),)

    def test_no_roots_give_the_empty_structure(self):
        assert cluster_and_pair(Polynomial([3]), []) == FactoredDenominator(0, (), ())

    def test_unpaired_complex_root_raises(self):
        with pytest.raises(FactorizationError, match="conjugate pairing failed"):
            cluster_and_pair(Polynomial([3 + 1j, -3, 1]), [1 + 1j, 2 - 1j])

    def test_multiplicity_mismatch_raises(self):
        p = FactoredDenominator(0, (), (QuadraticFactor(1, 1, 2),)).expand()
        msg = r"^conjugate pairing failed: multiplicity mismatch at \(1\+1j\) \(2 vs 1\)$"
        with pytest.raises(FactorizationError, match=msg):
            cluster_and_pair(p, [1 + 1j, 1 + 1j, 1 - 1j])

    def test_unpaired_lower_half_root_raises(self):
        p = FactoredDenominator(0, (), (QuadraticFactor(1, 1, 1),)).expand()
        with pytest.raises(FactorizationError) as exc:
            cluster_and_pair(p, [1 - 1j])
        assert str(exc.value) == "conjugate pairing failed: unpaired root (1-1j)"

    def test_centroids_add_left_to_right_on_every_python(self, monkeypatch, compensated_sum):
        # the structure must not hang on how the running Python's sum() rounds
        dens = [
            random_rational(rng, max_degree=12, max_mult=5)[0].den
            for rng in map(random.Random, range(3))
            for _ in range(300)
        ]
        plain = [repr(factor_denominator(d)) for d in dens]
        monkeypatch.setattr(factorize, "sum", compensated_sum, raising=False)
        assert [repr(factor_denominator(d)) for d in dens] == plain

    def test_never_negative_b(self):
        rng = random.Random(11)
        for _ in range(50):
            a = rng.uniform(-1.5, 1.5)
            b = rng.uniform(0.1, 1.5)
            p = FactoredDenominator(0, (), (QuadraticFactor(a, b, 1),)).expand()
            f = cluster_and_pair(p, [complex(a, b), complex(a, -b)])
            assert all(q.b > 0 for q in f.quadratics)


class TestFactorDenominator:
    def test_unit_quadratic(self):
        f = factor_denominator(Polynomial([1, 0, 1]))
        assert f.origin_mult == 0 and f.linears == ()
        (q,) = f.quadratics
        assert (q.a, q.b, q.k) == pytest.approx((0.0, 1.0, 1))
        assert f.expand() == Polynomial([1, 0, 1])

    def test_repeated_quadratic_roundtrip(self):
        src = FactoredDenominator(0, (), (QuadraticFactor(1, 2, 3),)).expand()
        f = factor_denominator(src)
        (q,) = f.quadratics
        assert q.k == 3
        assert (q.a, q.b) == pytest.approx((1.0, 2.0), abs=1e-8)
        back = f.expand()
        assert all(
            abs(back.coeff(i) - src.coeff(i)) <= 1e-8 * src.norm_inf
            for i in range(src.degree + 1)
        )

    def test_non_monic_linear(self):
        # the structure of d / d.leading
        f = factor_denominator(Polynomial([-4, 2]))
        assert f.linears == (LinearFactor(2.0, 1),)
        assert f.expand() == Polynomial([-2, 1])

    @pytest.mark.parametrize("c", [3, -0.5])
    def test_constant_has_the_empty_structure(self, c):
        assert factor_denominator(Polynomial([c])) == FactoredDenominator(0, (), ())

    @pytest.mark.xfail(
        strict=True,
        raises=FactorizationError,
        reason="the pair -1±i clusters first and its centroid -1 is the real root, where "
        "d'' is 5e-15, so the pair's scatter radius is 19 and it merges as a double real root",
    )
    def test_expanded_cubic_with_a_real_root_at_its_pair_centroid(self):
        # (z+1)(z^2+2z+2): -1 is also the mean of all three roots
        f = factor_denominator(Polynomial([2, 4, 3, 1]))
        (lin,), (q,) = f.linears, f.quadratics
        assert (lin.r, lin.u) == pytest.approx((-1, 1))
        assert (q.a, q.b, q.k) == pytest.approx((-1, 1, 1))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            factor_denominator(Polynomial([]))

    def test_triple_real_root(self):
        f = factor_denominator(Polynomial([-8, 12, -6, 1]))
        assert len(f.linears) == 1 and f.quadratics == ()
        assert f.linears[0].u == 3
        assert f.linears[0].r == pytest.approx(2.0, abs=1e-8)

    def test_close_distinct_roots_not_merged(self):
        p = FactoredDenominator(0, (LinearFactor(1.0, 1), LinearFactor(1.0001, 1)), ()).expand()
        f = factor_denominator(p)
        assert sorted(lf.u for lf in f.linears) == [1, 1]

    def test_double_real_root_not_mistaken_for_pair(self):
        # eigenvalues of a double real root scatter into a conjugate pair with
        # tiny imaginary part; the recovered shape must still be (z-r)^2
        p = FactoredDenominator(
            0,
            (LinearFactor(0.8067629849820397, 2), LinearFactor(1.1112532634273389, 2)),
            (QuadraticFactor(0.9658422762864873, 0.6852045899044704, 2),),
        ).expand()
        f = factor_denominator(p)
        assert sorted(lf.u for lf in f.linears) == [2, 2]
        assert [q.k for q in f.quadratics] == [2]
        assert min(q.b for q in f.quadratics) > 0.5


def random_factored(rng):
    """<=3 distinct linears (u<=3), <=2 quadratics (k<=3), moduli in [0.5,2],
    separated by >= 0.3."""
    while True:
        n_lin = rng.randint(0, 3)
        n_quad = rng.randint(0, 2)
        if n_lin + n_quad:
            break
    spots = []

    def sep(c):
        return all(
            abs(c - w) >= 0.3 and abs(c - w.conjugate()) >= 0.3 for w in spots
        )

    linears = []
    for _ in range(n_lin):
        for _ in range(100):
            r = rng.choice((-1, 1)) * rng.uniform(0.5, 2.0)
            if sep(complex(r, 0)):
                spots.append(complex(r, 0))
                linears.append(LinearFactor(r, rng.randint(1, 3)))
                break
    quads = []
    for _ in range(n_quad):
        for _ in range(100):
            mod = rng.uniform(0.5, 2.0)
            ang = rng.uniform(0.25, math.pi - 0.25)
            c = complex(mod * math.cos(ang), mod * math.sin(ang))
            if sep(c):
                spots.append(c)
                quads.append(QuadraticFactor(c.real, c.imag, rng.randint(1, 3)))
                break
    if not linears and not quads:
        return random_factored(rng)
    return FactoredDenominator(0, tuple(linears), tuple(quads))


class TestRoundTrip:
    def test_random_factored_inputs(self):
        rng = random.Random(2024)
        for _ in range(60):
            src = random_factored(rng)
            p = src.expand()
            rec = factor_denominator(p)
            assert rec.origin_mult == src.origin_mult
            assert len(rec.linears) == len(src.linears)
            assert len(rec.quadratics) == len(src.quadratics)
            for got, want in zip(
                sorted(rec.linears, key=lambda f: f.r),
                sorted(src.linears, key=lambda f: f.r),
            ):
                assert got.u == want.u
                assert abs(got.r - want.r) <= 1e-6
            for got, want in zip(
                sorted(rec.quadratics, key=lambda f: (f.a, f.b)),
                sorted(src.quadratics, key=lambda f: (f.a, f.b)),
            ):
                assert got.k == want.k
                assert abs(complex(got.a, got.b) - complex(want.a, want.b)) <= 1e-6

    def test_simple_root_recovery_tight(self):
        # expand then find_roots: well-separated roots within 1e-8
        rng = random.Random(5)
        for _ in range(40):
            spots = []
            while len(spots) < 3:
                r = rng.choice((-1, 1)) * rng.uniform(0.5, 2.0)
                if all(abs(r - s) >= 0.3 for s in spots):
                    spots.append(r)
            p = FactoredDenominator(0, tuple(LinearFactor(r, 1) for r in spots), ()).expand()
            got = sorted(z.real for z, _ in find_roots(p))
            for g, w in zip(got, sorted(spots)):
                assert abs(g - w) <= 1e-8

    def test_multiplicity_conservation(self):
        rng = random.Random(99)
        for _ in range(40):
            src = random_factored(rng)
            p = src.expand()
            f = factor_denominator(p)
            total = (
                f.origin_mult
                + sum(lf.u for lf in f.linears)
                + 2 * sum(q.k for q in f.quadratics)
            )
            assert total == p.degree


class TestPoleMultiplicities:
    def test_conjugate_closed(self):
        p = FactoredDenominator(0, (), (QuadraticFactor(1, 1, 2),)).expand()
        poles = factor_denominator(p).pole_list()
        assert poles == [(1 - 1j, 2), (1 + 1j, 2)]

    def test_origin_and_real(self):
        p = FactoredDenominator(2, (LinearFactor(1.5, 1),), ()).expand()
        poles = factor_denominator(p).pole_list()
        assert (0j, 2) in poles
        assert any(abs(z - 1.5) < 1e-9 and m == 1 for z, m in poles)


def _factoring_corpus():
    rng = random.Random(11)
    dens = [FactoredDenominator(0, (LinearFactor(0.5, k),), ()).expand() for k in range(1, 12)]
    dens.append(FactoredDenominator(0, (LinearFactor(1.3, 8),), ()).expand())
    for pairs in (4, 6):  # expanded degree-16 and degree-24 double pairs
        for _ in range(3):
            quads = []
            for _ in range(pairs):
                r, t = rng.uniform(0.3, 1.2), rng.uniform(0.2, 2.9)
                quads.append(QuadraticFactor(r * math.cos(t), r * math.sin(t), 2))
            dens.append(FactoredDenominator(0, (), tuple(quads)).expand())
    for _ in range(100):  # D and z*D of default-fuzz cases
        x, _ = random_rational(rng)
        dens += [x.den, x.den.shift(1)]
    return dens


class TestRecoveryMessage:
    """The error names the test that rejected the candidate."""

    def test_residual_test_rejection_says_so(self, monkeypatch):
        monkeypatch.setattr(factorize, "_structure_ok", lambda d, f: False)
        with pytest.raises(FactorizationError) as exc:
            factor_denominator(FactoredDenominator(0, (LinearFactor(0.5, 2),), ()).expand())
        msg = str(exc.value)
        head = "factor recovery failed: a candidate re-expands to relative error "
        tail = " but fails the multiple-root residual test"
        assert msg.startswith(head) and msg.endswith(tail)
        assert float(msg[len(head) : -len(tail)]) <= factorize.EXPAND_RTOL

    def test_expansion_failure_keeps_its_message(self):
        # two triple roots 0.01 apart: rounding of the expanded coefficients
        # splits them into roots that neither cluster nor re-expand
        with pytest.raises(FactorizationError) as exc:
            lins = (LinearFactor(1.0, 3), LinearFactor(1.01, 3))
            factor_denominator(FactoredDenominator(0, lins, ()).expand())
        head = "factor recovery failed: best relative expansion error "
        assert str(exc.value).startswith(head)
        assert float(str(exc.value)[len(head) :]) > factorize.EXPAND_RTOL

    def test_close_roots_are_no_double_root(self):
        # the two roots merged into a double root at 1.0005 leave
        # |d(1.0005)| = 2.5e-7, far above evaluation noise
        d = FactoredDenominator(0, (LinearFactor(1, 1), LinearFactor(1.001, 1)), ()).expand()
        merged = FactoredDenominator(0, (LinearFactor(1.0005, 2),), ())
        assert not factorize._is_m_fold_root(d, 1.0005, 2)
        assert not factorize._structure_ok(d, merged)

    def test_pairing_failure_keeps_its_message(self, monkeypatch):
        # roots that cannot pair: cluster_and_pair's error, not an expansion error
        monkeypatch.setattr(factorize, "find_roots", lambda p: [(1 + 1j, 0.0), (2 - 1j, 0.0)])
        with pytest.raises(FactorizationError) as exc:
            factor_denominator(Polynomial([5, -2, 1]))
        assert str(exc.value) == "conjugate pairing failed: unpaired root (1+1j)"


class TestMultiplicitySweep:
    """One expanded power of one factor comes back as that factor and power.

    The cluster width is the scatter radius of the multiple root, so it grows
    with the multiplicity and the size of the coefficients as the eigenvalue
    scatter does.
    """

    @pytest.mark.parametrize("r", [s * i / 10 for i in range(1, 21) for s in (1, -1)])
    def test_real_pole_powers(self, r):
        for k in range(1, 12):
            f = factor_denominator(FactoredDenominator(0, (LinearFactor(r, k),), ()).expand())
            assert f.origin_mult == 0 and f.quadratics == (), k
            (lf,) = f.linears
            assert lf.u == k and abs(lf.r - r) <= 1e-6, k

    @pytest.mark.parametrize("a", [-1.2, -0.5, 0, 0.5, 1])
    @pytest.mark.parametrize("b", [0.3, 0.7, 1, 1.4])
    def test_quadratic_powers(self, a, b):
        for k in range(1, 7):
            p = FactoredDenominator(0, (), (QuadraticFactor(a, b, k),)).expand()
            f = factor_denominator(p)
            assert f.origin_mult == 0 and f.linears == (), k
            (q,) = f.quadratics
            assert q.k == k and abs(complex(q.a - a, q.b - b)) <= 1e-6, k


def _newton_two_evaluations(p, z, iters=40, stop=0.0):
    """_newton as it was, evaluating p again for each step."""
    dp = p.derivative()
    best, best_res = z, abs(p(z))
    for _ in range(iters):
        if best_res <= stop:
            break
        d = dp(z)
        if d == 0:
            break
        z = z - p(z) / d
        res = abs(p(z))
        if res < best_res:
            best, best_res = z, res
    return best


class _Counted(Polynomial):
    """A polynomial that counts its evaluations."""

    __slots__ = ("calls",)

    def __init__(self, p):
        super().__init__(p.coeffs)
        self.calls = 0

    def __call__(self, z):
        self.calls += 1
        return super().__call__(z)


class TestNewton:
    def test_same_iterates_as_two_evaluations_per_step(self):
        # find_roots' calls from the raw eigenvalues, and _polish's calls on
        # the first two derivatives from the polished roots
        for d in _factoring_corpus():
            p = Polynomial(d.coeffs[next(i for i, c in enumerate(d.coeffs) if c != 0) :])
            dp = p.derivative()
            tiny = 1e-15 * max(1.0, p.norm_inf)
            for z0 in np.roots(np.array(p.coeffs[::-1])):
                z0 = complex(z0)
                want = _newton_two_evaluations(p, z0, iters=30, stop=tiny)
                assert factorize._newton(p, dp, z0, iters=30, stop=tiny) == want
            for z, _ in find_roots(p):
                for m in (1, 2):
                    q = p.derivative(m)
                    assert factorize._newton(q, q.derivative(), z) == _newton_two_evaluations(q, z)

    def test_polish_calls_stop_at_a_repeated_iterate(self):
        # _polish's calls: derivatives 1-3 at the centroids of clustered
        # multiple roots. Stopping at a repeated iterate returns what all 40
        # steps return, and cuts most calls short (the step is a function of z,
        # so past a repeat only visited residuals come back); running all 40
        # steps, only a call whose derivative vanishes stops early.
        calls = short = 0
        for d in _factoring_corpus():
            if d.leading != 1:
                d = Polynomial(tuple(c / d.leading for c in d.coeffs))
            roots = [z for z, _ in find_roots(d)]
            for c, m in factorize._cluster(d, roots):
                if m < 2 or c == 0:
                    continue
                for order in (1, 2, 3):
                    q = _Counted(d.derivative(order))
                    got = factorize._newton(q, q.derivative(), c)
                    evaluations = q.calls
                    assert got == _newton_two_evaluations(q, c)
                    calls += 1
                    short += evaluations < 41 and abs(q(got)) > 0
        assert calls > 100 and short > calls / 2
