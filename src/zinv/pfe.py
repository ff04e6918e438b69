"""Partial fraction expansion: over the reals for X(z), over C for X(z)/z.

The real expansion reads each factor's terms off locally, with no global
linear system: Taylor coefficients at a real pole (the generalized cover-up
rule) and F-adic digits at a quadratic power F**k. It is exact over the
rationals of the factor floats (every float is a rational) and runs on ints,
so structurally zero coefficients come out exactly zero. Each real partial
fraction is read off as one closed-form term (Impulse, RealPole, QuadPole;
closedform holds their sequence formulas); the condition estimate is a
cancellation bound read off the terms alone.
The complex expansion of X(z)/z uses the classical residue/limit formulas,
implemented as repeated derivatives of the deflated rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FactorizationError
from .factorize import _expand_error, factor_denominator
from .polynomial import ONE, Z, Polynomial

COND_WARN = 1e12
_MATCH_RTOL = 1e-6


@dataclass(frozen=True)
class RationalFunction:
    """num/den with real coefficients, stored with den normalized monic."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        if self.den.is_zero:
            raise ZeroDivisionError("zero denominator")
        lead = self.den.leading
        if lead != 1:
            object.__setattr__(
                self, "num", Polynomial(tuple(c / lead for c in self.num.coeffs))
            )
            object.__setattr__(
                self, "den", Polynomial(tuple(c / lead for c in self.den.coeffs))
            )

    @property
    def is_proper(self):
        """True when deg(num) <= deg(den), i.e. the inverse is causal."""
        return self.num.degree <= self.den.degree

    def __str__(self):
        return f"({self.num})/({self.den})"


@dataclass(frozen=True)
class Impulse:
    """amp / z**index -> amp * delta[n - index]; a negative index never fires on n >= 0."""

    amp: float
    index: int


@dataclass(frozen=True)
class RealPole:
    """amp / (z - pole)**mult -> amp * C(n-1, mult-1) * pole**(n-mult), n >= mult."""

    amp: float
    pole: float
    mult: int

    def __post_init__(self):
        if self.pole == 0:
            raise ValueError("origin pole must be an impulse")
        if self.mult < 1:
            raise ValueError("multiplicity must be >= 1")


@dataclass(frozen=True)
class QuadPole:
    """(z_amp*z + const_amp) / (z**2 - 2az + (a**2+b**2))**mult.

    -> z_amp * s1[n] + const_amp * s0[n] for the pole pair a +/- ib.
    """

    z_amp: float
    const_amp: float
    a: float
    b: float
    mult: int

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("not a complex pair")
        if self.mult < 1:
            raise ValueError("multiplicity must be >= 1")


@dataclass(frozen=True)
class RealPartialFraction:
    """poly_part + the sum of terms, each an Impulse, RealPole or QuadPole."""

    poly_part: Polynomial
    terms: tuple
    condition: float = 0.0
    warnings: tuple = ()


@dataclass(frozen=True)
class ComplexTerm:
    """coeff / (z - pole)**j"""

    pole: complex
    j: int
    coeff: complex


@dataclass(frozen=True)
class ComplexPartialFraction:
    terms: tuple
    poly_part: Polynomial
    # worst conjugate-closure violation seen before enforcement, relative
    max_asymmetry: float = 0.0


def _factor(t):
    """(phi, j) of a term amps/phi**j: phi = z, z - r or z**2 - 2az + (a**2+b**2)."""
    if isinstance(t, Impulse):
        return Z, t.index
    if isinstance(t, RealPole):
        return Polynomial((-t.pole, 1)), t.mult
    return Polynomial((t.a * t.a + t.b * t.b, -2 * t.a, 1)), t.mult


def _amps(t):
    """A term's amplitudes, the z coefficient first."""
    return (t.z_amp, t.const_amp) if isinstance(t, QuadPole) else (t.amp,)


def _factor_powers(terms):
    """{factor: highest power} over the terms' factors."""
    powers = {}
    for t in terms:
        phi, j = _factor(t)
        powers[phi] = max(powers.get(phi, 0), j)
    return powers


def _condition(terms, rem):
    """Cancellation bound of rem = sum_t amps_t * cofactor_t, with its warning.

    sum_t |amps_t|_1 |cofactor_t|_1 / |rem|_inf, each cofactor's norm bounded
    by prod |phi|_1**k / |phi_t|_1**j_t (the 1-norm is submultiplicative), so
    no product is formed. By the triangle inequality it is at least 1; it is
    1 when rem is zero.
    """
    powers = _factor_powers(terms)
    norms = {phi: sum(map(abs, phi.coeffs)) for phi in powers}
    total = 0.0
    for t in terms:
        phi_t, j = _factor(t)
        bound = sum(map(abs, _amps(t)))
        for phi, k in powers.items():
            for _ in range(k - j if phi == phi_t else k):
                bound *= norms[phi]  # saturates at inf, where ** would raise
        total += bound
    condition = max(1.0, total / rem.norm_inf) if rem.coeffs else 1.0
    if not math.isfinite(condition) or condition > COND_WARN:
        return condition, (
            f"ill-conditioned coefficient system (condition estimate {condition:.3g})",
        )
    return condition, ()


def _common_den(values):
    """Least common denominator of ints, floats and Fractions (2**e for floats)."""
    return math.lcm(*(v.as_integer_ratio()[1] for v in values))


def _scaled(v, s):
    """s*v as an int, for s a multiple of v's denominator."""
    n, d = v.as_integer_ratio()
    return n * (s // d)


def _local_digits(num, den, phi, k):
    """phi-adic digits of num/den's principal part at phi**k, over the integers.

    phi is monic of degree 1 or 2 and divides den exactly k times. Returns
    (digits, c) with the principal part sum_j digits[j] / (c * phi**(k-j)),
    each digit of degree < deg phi. The inverse of G = den/phi**k mod phi is
    the closed form (g0 - g1 f1 - g1 w)/norm (g0/g0**2 for a linear phi),
    lifted to phi**k by Newton's v <- v(2 - Gv) with the denominator carried
    as one integer.
    """
    top = phi**k
    g = den // top
    low = g % phi
    g0, g1 = low.coeff(0), low.coeff(1)
    f0, f1 = phi.coeff(0), phi.coeff(1)
    c = g0 * g0 - g0 * g1 * f1 + g1 * g1 * f0
    if c == 0:  # G shares a root with phi: f lists a factor twice
        raise FactorizationError("inconsistent factorization")
    v, m = Polynomial((g0 - g1 * f1, -g1)), 1
    while m < k:
        m = min(2 * m, k)
        mod = phi**m
        v = v * (2 * c - (g % mod) * v) % mod
        c *= c
    p = (num % top) * v % top
    digits = []
    for _ in range(k):
        p, d = divmod(p, phi)
        digits.append(d)
    return digits, c


def real_pfe(x, f):
    """Expand x over the reals along the factor structure f of its denominator.

    The polynomial part comes from division when the numerator degree is not
    smaller. The terms are read off factor by factor, exactly over the
    rationals of the factor floats: at (z-r)**u and z**o the amplitudes are
    the first u Taylor coefficients of N/G at r (G the rest of the
    denominator), at a quadratic power F**k the F-adic digits of
    N * G**-1 mod F**k. Substituting z = w/s, with s the common denominator
    of the factor values (a power of two for floats), makes every factor a
    monic integer polynomial, so all of this runs on ints and each amplitude
    is rounded once. Terms come in factor order (origin,
    f.linears, f.quadratics, each by power), zeros kept. The condition
    estimate bounds the cancellation when the terms are summed back to the
    remainder (see _condition), with a warning above 1e12.
    """
    if _expand_error(x.den * f.scale, f) > _MATCH_RTOL:
        raise FactorizationError(
            "inconsistent factorization: factors do not expand to the denominator"
        )

    if x.num.degree >= x.den.degree and x.den.degree >= 0:
        poly_part, rem = divmod(x.num, x.den)
    else:
        poly_part, rem = Polynomial(()), x.num

    q = x.den.degree
    if f.degree != q:
        raise FactorizationError("inconsistent factorization: degree mismatch")

    if q == 0:
        return RealPartialFraction(poly_part, (), 0.0, ())

    # z = w/s: rem(z)/D(z) = s * num(w) / (t * den(w)), num and den integer
    s = _common_den([g.r for g in f.linears] + [v for g in f.quadratics for v in (g.a, g.b)])
    t = _common_den(rem.coeffs)
    num = Polynomial([_scaled(c, t) * s ** (q - 1 - i) for i, c in enumerate(rem.coeffs)])
    # (term type, fields between the amplitudes and the power, w-factor, power)
    local = [(Impulse, (), Z, f.origin_mult)] if f.origin_mult else []
    for g in f.linears:
        local.append((RealPole, (g.r,), Polynomial((-_scaled(g.r, s), 1)), g.u))
    for g in f.quadratics:
        sa, sb = _scaled(g.a, s), _scaled(g.b, s)
        local.append((QuadPole, (g.a, g.b), Polynomial((sa * sa + sb * sb, -2 * sa, 1)), g.k))
    den = math.prod((phi**k for _, _, phi, k in local), start=ONE)

    terms = []
    for kind, fields, phi, k in local:
        digits, c = _local_digits(num, den, phi, k)
        deg = phi.degree
        for j in range(1, k + 1):
            d = digits[k - j]
            # w**i/phi(w)**j = s**(i - deg*j) z**i/phi(z)**j, all times s/t
            amps = [d.coeff(i) / (c * t * s ** (deg * j - 1 - i)) for i in reversed(range(deg))]
            terms.append(kind(*amps, *fields, j))
    condition, warnings = _condition(terms, rem)
    return RealPartialFraction(poly_part, tuple(terms), condition, warnings)


def _deflate(p, z0, m):
    """Divide p by (z - z0)**m, discarding remainders (synthetic division)."""
    cs = list(p.coeffs)
    for _ in range(m):
        out = [0] * (len(cs) - 1)
        acc = cs[-1]
        for i in range(len(cs) - 2, -1, -1):
            out[i] = acc
            acc = cs[i] + acc * z0
        cs = out
    return Polynomial(cs)


def _limit_coeffs(p, q, z0, m):
    """{j: A_j} of p / (q (z - z0)**m) at z0, q(z0) != 0, by the limit formulas.

    A_{m-i} = g^(i)(z0)/i! = P_i(z0) / q(z0)**(i+1) / i! with g = p/q; the
    quotient rule runs on g^(i) = P_i/q**(i+1) so degrees grow linearly.
    """
    coeffs = {}
    fact, e = 1, 1
    for i in range(m):
        if i:
            fact *= i
            p = p.derivative() * q - (p * q.derivative()) * e
            e += 1
        coeffs[m - i] = p(z0) / (q(z0) ** e) / fact
    return coeffs


def _divided_by_z(x):
    """Numerator/denominator of X(z)/z with shared z factors cancelled."""
    num, den = x.num, x.den.shift(1)
    while (
        not num.is_zero
        and den.degree > 0
        and num.coeffs[0] == 0
        and den.coeffs[0] == 0
    ):
        num = Polynomial(num.coeffs[1:])
        den = Polynomial(den.coeffs[1:])
    return num, den


def complex_pfe_over_z(x, poles=None):
    """Full complex partial fraction expansion of Y(z) = X(z)/z.

    Highest-multiplicity coefficients come from the limit formulas
    A_{m-i} = (1/i!) d^i/dz^i [(z - z_k)^m Y(z)] at z_k, evaluated by
    repeated quotient-rule differentiation of the deflated rational.
    Conjugate closure is enforced by averaging paired coefficients. poles
    is factor_denominator(_divided_by_z(x)[1]).pole_list(), found here if None.
    """
    num, den = _divided_by_z(x)
    poly_part, rem = divmod(num, den)

    if den.degree < 1:
        return ComplexPartialFraction((), poly_part, 0.0)

    if poles is None:
        poles = factor_denominator(den).pole_list()

    raw = {}
    for zk, m in poles:
        raw[zk] = (m, _limit_coeffs(rem, _deflate(den, zk, m), zk, m))

    # enforce conjugate closure: real poles get real coefficients, paired
    # poles get exactly conjugate ones
    asym = 0.0
    terms = []
    for zk in sorted(raw, key=lambda w: (w.real, w.imag)):
        m, coeffs = raw[zk]
        if zk.imag == 0:
            for j in range(1, m + 1):
                c = coeffs[j]
                asym = max(asym, abs(c.imag) / max(1.0, abs(c)))
                terms.append(ComplexTerm(zk, j, complex(c.real, 0.0)))
        elif zk.imag > 0:
            partner = raw[zk.conjugate()][1]
            for j in range(1, m + 1):
                c, cp = coeffs[j], partner[j]
                asym = max(asym, abs(c - cp.conjugate()) / max(1.0, abs(c)))
                avg = (c + cp.conjugate()) / 2
                terms.append(ComplexTerm(zk, j, avg))
                terms.append(ComplexTerm(zk.conjugate(), j, avg.conjugate()))

    terms.sort(key=lambda t: (t.pole.real, t.pole.imag, t.j))
    return ComplexPartialFraction(tuple(terms), poly_part, asym)


def recombine(pf):
    """Sum a real expansion back over the common denominator.

    Self-check oracle for real_pfe: the result must equal the source
    rational function coefficient-wise after normalization. It multiplies
    the terms' own factors out in floats, sharing nothing with real_pfe's
    integer expansion.
    """
    powers = _factor_powers(pf.terms)

    def cofactor(target, j):
        """Product of all factors, target's power lowered by j."""
        return math.prod(
            (phi ** (k - j if phi == target else k) for phi, k in powers.items()),
            start=ONE,
        )

    den = cofactor(None, 0)
    num = pf.poly_part * den
    for t in pf.terms:
        base = cofactor(*_factor(t))
        for i, amp in enumerate(reversed(_amps(t))):
            num = num + base.shift(i) * amp
    return RationalFunction(num, den)
