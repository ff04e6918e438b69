"""Partial fraction expansion: over the reals for X(z), over C for X(z)/z.

The real expansion reads each factor's terms off locally, with no global
linear system: Taylor coefficients at a real pole (the generalized cover-up
rule) and F-adic digits at a quadratic power F**k. It is exact over the
rationals of the factor floats (every float is a rational) and runs on ints,
so structurally zero coefficients come out exactly zero. Each real partial
fraction is read off as one closed-form term (Impulse, RealPole, QuadPole;
closedform holds their sequence formulas), and the expansion is the closed
form itself, a ClosedFormExpr; its condition estimate is a cancellation bound
read off the terms alone.
The complex expansion of X(z)/z (the oracles' route) is a plain table
{pole: {power: coefficient}}, each part read off the product of the given
poles as a quotient of Taylor series; X's own parts come from the same function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import FactorizationError
from .polynomial import ONE, Z, Polynomial

COND_WARN = 1e12
_MATCH_RTOL = 1e-6
# _lowest_terms screens coprimality mod this prime, the largest below 2**15: its
# residues multiply to single-digit (30-bit) ints, CPython's fast path
_P = 32749


@dataclass(frozen=True)
class RationalFunction:
    """num/den with real coefficients, stored with den normalized monic, in
    float range and in lowest terms (_lowest_terms)."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        if self.den.is_zero:
            raise ZeroDivisionError("zero denominator")
        lead = self.den.leading
        for name, label in (("num", "numerator"), ("den", "denominator")):
            p = getattr(self, name)
            try:  # the one range check; an int, or int quotient, too large for a float raises
                if lead != 1:
                    p = Polynomial(tuple(c / lead for c in p.coeffs))
                ok = all(map(math.isfinite, p.coeffs))
            except OverflowError:
                ok = False
            if not ok:
                raise ValueError(
                    f"{label} out of the float range (finite, magnitude up to 1.8e308) "
                    "once divided by the denominator's leading coefficient"
                )
            object.__setattr__(self, name, p)
        num, den = _lowest_terms(self.num, self.den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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
class ClosedFormExpr:
    """Sum of closed-form terms, each an Impulse, RealPole or QuadPole: the
    inverse transform as a formula in n, with real_pfe's warnings and
    condition estimate (1.0, nothing to cancel, for terms given by hand)."""

    terms: tuple
    warnings: tuple = ()
    condition: float = 1.0


def _amps(t):
    """A term's amplitudes, the z coefficient first."""
    return (t.z_amp, t.const_amp) if isinstance(t, QuadPole) else (t.amp,)


def _condition(terms, rem, f):
    """Cancellation bound of rem = sum_t amps_t * cofactor_t, with its warning.

    sum_t |amps_t|_1 |cofactor_t|_1 / |rem|_inf, each cofactor's norm bounded
    by prod |phi|_1**k / |phi_t|_1**j_t (the 1-norm is submultiplicative), so
    no product is formed. The factors phi**k are f's, in factor order, and
    terms holds j = 1..k for each in turn. By the triangle inequality it is
    at least 1; it is 1 when rem is zero.
    """
    factors = [(1, f.origin_mult)] if f.origin_mult else []  # (|phi|_1, k)
    factors += [(abs(g.r) + 1, g.u) for g in f.linears]
    factors += [(g.a * g.a + g.b * g.b + 2 * abs(g.a) + 1, g.k) for g in f.quadratics]
    owners = [(i, j) for i, (_, k) in enumerate(factors) for j in range(1, k + 1)]
    total = 0.0
    for t, (own, j) in zip(terms, owners):
        bound = sum(map(abs, _amps(t)))
        for i, (norm, k) in enumerate(factors):
            for _ in range(k - j if i == own else k):
                bound *= norm  # saturates at inf, where ** would raise
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


def _coprime_mod_p(a, b):
    """True when the int coefficient lists a and b are coprime mod _P, hence
    over the rationals if _P does not divide a's leading coefficient: a common
    factor would divide a with a leading coefficient that is a unit mod _P."""
    a, b = ([c % _P for c in p] for p in (a, b))
    while len(b) > 1 or b and not b[-1]:
        if not b[-1]:
            b.pop()
            continue
        inv = pow(b[-1], -1, _P)
        while len(a) >= len(b):
            k, q = len(a) - len(b), a[-1] * inv % _P
            a = a[:k] + [(u - q * v) % _P for u, v in zip(a[k:-1], b)]
        a, b = b, a
    return len(b) == 1


def _lowest_terms(num, den):
    """num and den (monic) with their common factor cancelled exactly.

    A shared root is found only to rounding, where the numerator leaves a
    spurious amplitude near 1e-16 that a pole of modulus above 1 blows up.
    A coprime pair, the usual case, comes back as given after a screen mod
    _P; otherwise the gcd is exact over the rationals, and each quotient
    coefficient (dyadic; an int for int input) is rounded at most once.
    """
    cs = num.coeffs + den.coeffs
    if num.degree < 1 or den.degree < 1:
        return num, den
    s = _common_den(cs)  # den is monic, so _P does not divide s * den.leading
    if _coprime_mod_p(*([_scaled(c, s) for c in p.coeffs] for p in (den, num))):
        return num, den
    num, den = (Polynomial([Fraction(c) for c in p.coeffs]) for p in (num, den))
    a, b = den, num
    while not b.is_zero:
        a, b = b, a % b
    kind = int if all(isinstance(c, int) for c in cs) else float
    g = a * (1 / a.leading)
    return tuple(Polynomial([kind(c) for c in (p // g).coeffs]) for p in (num, den))


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
    """x's closed form: its expansion over the reals along the factor
    structure f of its denominator, as a ClosedFormExpr.

    The polynomial part and the remainder N come from division (a nonzero
    constant denominator has the empty f). The terms are read off factor by
    factor, exactly over the rationals of the factor floats: at (z-r)**u and
    z**o the amplitudes are the first u Taylor coefficients of N/G at r (G
    the rest of the denominator), at a quadratic power F**k the F-adic digits
    of N * G**-1 mod F**k. Substituting z = w/s, with s the common
    denominator of the factor values (a power of two for floats), makes every
    factor a monic integer polynomial, so all of this runs on ints and each
    amplitude is rounded once; that exact product of the factors must match
    the denominator to a relative 1e-6. The polynomial part's nonzero
    coefficients come first, each c z**i as Impulse(c, -i); then the terms
    in factor order (origin, f.linears, f.quadratics, each by power), where
    only a term whose amplitudes are all exactly 0.0 is left out, however
    small the others. The condition estimate bounds the cancellation when
    all the terms are summed back to the remainder (see _condition), with a
    warning above 1e12; a z**i with i >= 1 never fires on n >= 0, and warns.
    """
    poly_part, rem = divmod(x.num, x.den)
    q = x.den.degree

    # z = w/s: rem(z)/D(z) = s * num(w) / (t * den(w)), num and den integer
    s = _common_den([g.r for g in f.linears] + [v for g in f.quadratics for v in (g.a, g.b)])
    # (term type, fields between the amplitudes and the power, w-factor, power)
    local = [(Impulse, (), Z, f.origin_mult)] if f.origin_mult else []
    for g in f.linears:
        local.append((RealPole, (g.r,), Polynomial((-_scaled(g.r, s), 1)), g.u))
    for g in f.quadratics:
        sa, sb = _scaled(g.a, s), _scaled(g.b, s)
        local.append((QuadPole, (g.a, g.b), Polynomial((sa * sa + sb * sb, -2 * sa, 1)), g.k))
    den = math.prod((phi**k for _, _, phi, k in local), start=ONE)
    p = den.degree
    try:  # coefficient i of the factors' product is den_i / s**(p-i), rounded once
        err = max(abs(c / s ** (p - i) - x.den.coeff(i)) for i, c in enumerate(den.coeffs))
    except OverflowError:  # a coefficient out of the float range matches nothing
        err = math.inf
    if p != q or err / max(x.den.norm_inf, 1e-300) > _MATCH_RTOL:
        raise FactorizationError(
            "inconsistent factorization: factors do not expand to the denominator"
        )
    t = _common_den(rem.coeffs)
    num = Polynomial([_scaled(c, t) * s ** (q - 1 - i) for i, c in enumerate(rem.coeffs)])

    terms = []
    for kind, fields, phi, k in local:
        digits, c = _local_digits(num, den, phi, k)
        deg = phi.degree
        for j in range(1, k + 1):
            d = digits[k - j]
            # w**i/phi(w)**j = s**(i - deg*j) z**i/phi(z)**j, all times s/t
            try:  # an int quotient too large for a float raises
                amps = [d.coeff(i) / (c * t * s ** (deg * j - 1 - i)) for i in reversed(range(deg))]
            except OverflowError:
                raise OverflowError("partial-fraction amplitude out of the float range") from None
            terms.append(kind(*amps, *fields, j))
    condition, warnings = _condition(terms, rem, f)
    if poly_part.degree >= 1:
        warnings += ("non-causal polynomial part: delta[n+k] terms vanish for n >= 0",)
    poly = [Impulse(float(c), -i) for i, c in enumerate(poly_part.coeffs) if c]
    return ClosedFormExpr(tuple(poly + [t for t in terms if any(_amps(t))]), warnings, condition)


def _divided_by_z(x):
    """Numerator/denominator of X(z)/z; a z dividing the numerator cancels the
    added z (x is in lowest terms, so the numerator shares no other z)."""
    if x.num.coeff(0) == 0 and not x.num.is_zero:
        return Polynomial(x.num.coeffs[1:]), x.den
    return x.num, x.den.shift(1)


def _taylor(p, z0, m):
    """p's first m Taylor coefficients at z0, by m rounds of synthetic division."""
    cs, out = p.coeffs, []
    for _ in range(m):
        acc, quo = 0, []
        for c in reversed(cs):
            acc = acc * z0 + c
            quo.append(acc)
        out.append(acc)  # the remainder; quo[:-1] is the quotient, highest first
        cs = quo[-2::-1]
    return out


def principal_parts(num, poles):
    """{z_k: {j: A_j}}: the principal part sum_j A_j/(z-z_k)^j of num/d at each pole.

    d = prod_i (z-z_i)^m_i is the product of poles, a conjugate-closed list
    of distinct (z_k, m_k), so the parts belong to the poles given, not to a
    (monic) denominator they only approximate. With D_k = d/(z-z_k)^m_k (a
    pair not holding z_k enters as its real quadratic z^2 - 2Re(z_i) z +
    |z_i|^2), A_{m-i} = g_i, the i-th Taylor coefficient of num/D_k at z_k:
    the power series division g_i = (p_i - sum_{l<i} g_l q_{i-l}) / q_0 of
    num's and D_k's Taylor coefficients, the sum added in l order from an
    int 0 on every Python version. Parts come in pole order, powers
    ascending; a real pole's part is real, a lower-half pole's the exact
    conjugate of its partner's.
    """
    parts = {}
    for zk, m in sorted(poles, key=lambda pm: -pm[0].imag):  # upper half first
        if zk.imag < 0:
            parts[zk] = {j: a.conjugate() for j, a in parts[zk.conjugate()].items()}
            continue
        dk = ONE
        for z, mult in poles:
            if z.imag == 0 and z != zk:
                dk *= Polynomial((-z.real, 1)) ** mult
            elif z.imag > 0 and z != zk:
                dk *= Polynomial((z.real * z.real + z.imag * z.imag, -2 * z.real, 1)) ** mult
            elif z.imag < 0 and z == zk.conjugate():
                dk *= Polynomial((-z, 1)) ** mult
        z0 = zk if zk.imag else zk.real
        p, q = _taylor(num, z0, m), _taylor(dk, z0, m)
        g = []
        for i in range(m):
            acc = 0  # left to right: builtin sum() compensates floats from Python 3.12 on
            for l in range(i):
                acc += g[l] * q[i - l]
            g.append((p[i] - acc) / q[0])
        parts[zk] = {j: g[m - j] for j in range(1, m + 1)}
    return {zk: parts[zk] for zk, _ in poles}


def complex_pfe_over_z(x, poles):
    """principal_parts of Y(z) = X(z)/z's remainder: {z_k: {j: A_j}}.

    poles is Y's pole list, OraclePoles.over_z() (X's, of_x(), is the same
    structure with its origin moved); a constant denominator has none: {}.
    """
    num, den = _divided_by_z(x)
    return principal_parts(num % den, poles)
