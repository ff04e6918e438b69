"""Partial fraction expansion: over the reals for X(z), over C for X(z)/z.

The real expansion determines coefficients by multiplying through by the
denominator and equating polynomial coefficients; the resulting square system
is solved exactly over rationals (every float is a rational), so structurally
zero coefficients come out exactly zero. Each real partial fraction is read
off as one closed-form term (Impulse, RealPole, QuadPole; closedform holds
their sequence formulas). The complex expansion of X(z)/z uses the classical
residue/limit formulas, implemented as repeated derivatives of the deflated
rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .errors import FactorizationError
from .factorize import complex_pole_multiplicities
from .polynomial import Polynomial

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


def _shape_lists(f):
    """Monic factor shape of a FactoredDenominator as plain lists."""
    linears = [(g.r, g.u) for g in f.linears]
    quads = [(g.a, g.b, g.k) for g in f.quadratics]
    return f.origin_mult, linears, quads


def _cofactor(origin, linears, quads, target, j):
    """Product of all factors with `target`'s exponent reduced by j.

    target is ("origin", None), ("lin", i) or ("quad", i).
    """
    kind, idx = target
    om = origin - j if kind == "origin" else origin
    p = Polynomial((1,)).shift(om)
    for i, (r, u) in enumerate(linears):
        e = u - j if (kind == "lin" and i == idx) else u
        for _ in range(e):
            p = p * Polynomial((-r, 1))
    for i, (a, b, k) in enumerate(quads):
        e = k - j if (kind == "quad" and i == idx) else k
        q = Polynomial((a * a + b * b, -2 * a, 1))
        for _ in range(e):
            p = p * q
    return p


def _solve_exact(rows, rhs):
    """Gaussian elimination with partial pivoting over exact rationals."""
    n = len(rhs)
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(rows, rhs)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            raise FactorizationError("inconsistent factorization")
        a[col], a[piv] = a[piv], a[col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            m = a[r][col] / a[col][col]
            for c in range(col, n + 1):
                a[r][c] -= m * a[col][c]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = a[r][n] - sum(a[r][c] * x[c] for c in range(r + 1, n))
        x[r] = acc / a[r][r]
    return x


def _rel_mismatch(p, q):
    norm = max(p.norm_inf, q.norm_inf, 1e-300)
    hi = max(p.degree, q.degree)
    return max(abs(p.coeff(i) - q.coeff(i)) for i in range(hi + 1)) / norm


def real_pfe(x, f):
    """Expand x over the reals along the factor structure f of its denominator.

    The polynomial part comes from division when the numerator degree is not
    smaller; the term amplitudes from one exact linear solve. Terms come in
    factor order (origin, f.linears, f.quadratics, each by power), zeros
    kept. The condition estimate of the float-cast system is attached, with a
    warning above 1e12.
    """
    expanded = f.expand()
    if _rel_mismatch(expanded, x.den * f.scale) > _MATCH_RTOL:
        raise FactorizationError(
            "inconsistent factorization: factors do not expand to the denominator"
        )

    if x.num.degree >= x.den.degree and x.den.degree >= 0:
        poly_part, rem = divmod(x.num, x.den)
    else:
        poly_part, rem = Polynomial(()), x.num

    origin, linears, quads = _shape_lists(f)
    q = x.den.degree
    if origin + sum(u for _, u in linears) + 2 * sum(k for _, _, k in quads) != q:
        raise FactorizationError("inconsistent factorization: degree mismatch")

    if q == 0:
        return RealPartialFraction(poly_part, (), 0.0, ())

    # one (term type, fields after the amplitudes) per term; a quadratic
    # takes its z column, then its constant column
    layout = []
    cols = []
    for j in range(1, origin + 1):
        layout.append((Impulse, (j,)))
        cols.append(_cofactor(origin, linears, quads, ("origin", None), j))
    for i, (r, u) in enumerate(linears):
        for j in range(1, u + 1):
            layout.append((RealPole, (r, j)))
            cols.append(_cofactor(origin, linears, quads, ("lin", i), j))
    for i, (a, b, k) in enumerate(quads):
        for j in range(1, k + 1):
            base = _cofactor(origin, linears, quads, ("quad", i), j)
            layout.append((QuadPole, (a, b, j)))
            cols += [base.shift(1), base]

    rows = [[col.coeff(i) for col in cols] for i in range(q)]
    rhs = [rem.coeff(i) for i in range(q)]

    mat = np.array([[float(v) for v in row] for row in rows], dtype=float)
    with np.errstate(all="ignore"):
        condition = float(np.linalg.cond(mat))
    warnings = ()
    if not math.isfinite(condition) or condition > COND_WARN:
        warnings = (
            f"ill-conditioned coefficient system (condition estimate {condition:.3g})",
        )

    sol = iter([float(v) for v in _solve_exact(rows, rhs)])
    terms = tuple(
        kind(*islice(sol, 2 if kind is QuadPole else 1), *fields)
        for kind, fields in layout
    )
    return RealPartialFraction(poly_part, terms, condition, warnings)


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
    is complex_pole_multiplicities(_divided_by_z(x)[1]), found here if None.
    """
    num, den = _divided_by_z(x)
    poly_part, rem = divmod(num, den)

    if den.degree < 1:
        return ComplexPartialFraction((), poly_part, 0.0)

    if poles is None:
        poles = complex_pole_multiplicities(den)

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
    rational function coefficient-wise after normalization.
    """
    origin = max((t.index for t in pf.terms if isinstance(t, Impulse)), default=0)
    lin_mult = {}
    quad_mult = {}
    for t in pf.terms:
        if isinstance(t, RealPole):
            lin_mult[t.pole] = max(lin_mult.get(t.pole, 0), t.mult)
        elif isinstance(t, QuadPole):
            quad_mult[(t.a, t.b)] = max(quad_mult.get((t.a, t.b), 0), t.mult)
    linears = sorted(lin_mult.items())
    quads = sorted((a, b, k) for (a, b), k in quad_mult.items())

    den = _cofactor(origin, linears, quads, ("none", None), 0)
    num = pf.poly_part * den
    for t in pf.terms:
        if isinstance(t, Impulse):
            num = num + _cofactor(origin, linears, quads, ("origin", None), t.index) * t.amp
        elif isinstance(t, RealPole):
            i = next(i for i, (r, _) in enumerate(linears) if r == t.pole)
            num = num + _cofactor(origin, linears, quads, ("lin", i), t.mult) * t.amp
        else:
            i = next(i for i, (a, b, _) in enumerate(quads) if (a, b) == (t.a, t.b))
            base = _cofactor(origin, linears, quads, ("quad", i), t.mult)
            num = num + base.shift(1) * t.z_amp + base * t.const_amp
    return RationalFunction(num, den)
