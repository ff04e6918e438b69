"""Independent inverse-transform implementations used for cross-validation.

Four routes that share no machinery with the closed-form path:

* long division of the power series in 1/z (the anchor: no root finding,
  no trigonometry);
* complex partial fractions of X(z)/z, inverted term by term;
* the recursive-coefficient scheme on X(z)/z (one coefficient table per
  distinct pole, no expansion);
* per-n residue sums of X(z) z^(n-1).
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field

from .closedform import SequenceTable, eval_sequence, invert
from .errors import ConjugateSymmetryError, ZinvError
from .factorize import complex_pole_multiplicities
from .pfe import _deflate, _divided_by_z, complex_pfe_over_z
from .polynomial import Polynomial

SYMMETRY_TOL = 1e-9


def _discard_imag(value, where):
    """Drop the imaginary residue of a conjugate-closed sum; error if large."""
    if abs(value.imag) > SYMMETRY_TOL * max(1.0, abs(value)):
        raise ConjugateSymmetryError(
            f"conjugate symmetry violated in {where}: residue {value.imag:.3g}"
        )
    return value.real


def longdiv_series(x, n_max):
    """Power-series coefficients of X(z) in 1/z by the division recurrence.

    With monic denominator z^q + a_1 z^(q-1) + ... + a_q and the numerator
    aligned to z^q, x[n] = num[z^(q-n)] - sum_{i=1}^{min(n,q)} a_i x[n-i].
    Exact when the coefficients are integers.
    """
    p, q = x.num.degree, x.den.degree
    if p > q:
        raise ValueError("non-causal: improper rational")
    vals = []
    for n in range(n_max + 1):
        acc = x.num.coeff(q - n)
        for i in range(1, min(n, q) + 1):
            acc -= x.den.coeff(q - i) * vals[n - i]
        vals.append(acc)
    return SequenceTable(tuple(vals), "longdiv", x)


def moreira_series(x, n_max):
    """Inverse transform via complex partial fractions of X(z)/z.

    Each expansion term of Y = X/z is multiplied back by z and inverted:
    poles at 0 give shifted impulses, a pole p of multiplicity q gives
    coeff * C(n, q-1) * p^(n-q+1); conjugate pairs combine into
    2|c| r^(n-q+1) C(n, q-1) cos((n-q+1)theta + phi) with phi = arg(c).
    """
    cpf = complex_pfe_over_z(x)
    vals = [0j] * (n_max + 1)
    for t in cpf.terms:
        pole, j, coeff = t.pole, t.j, t.coeff
        if pole == 0:
            idx = j - 1  # z * coeff/z^j = coeff * z^(1-j)
            if 0 <= idx <= n_max:
                vals[idx] += coeff
        elif pole.imag == 0:
            r = pole.real
            for n in range(n_max + 1):
                c = math.comb(n, j - 1)
                if c:
                    vals[n] += coeff * c * r ** (n - j + 1)
        elif pole.imag > 0:
            amp = abs(coeff)
            if amp == 0:
                continue
            phi = cmath.phase(coeff)
            r = abs(pole)
            theta = cmath.phase(pole)
            for n in range(n_max + 1):
                c = math.comb(n, j - 1)
                if c:
                    vals[n] += (
                        2.0
                        * amp
                        * c
                        * r ** (n - j + 1)
                        * math.cos((n - j + 1) * theta + phi)
                    )
        # pole.imag < 0: consumed by its conjugate partner
    out = tuple(_discard_imag(v, "moreira") for v in vals)
    return SequenceTable(out, "moreira", x)


@dataclass(frozen=True)
class PoleCoefficients:
    """Per-pole coefficient table of the recursive scheme on X(z)/z."""

    pole: complex
    mult: int
    coeffs: tuple  # c_0 .. c_{mult-1}


@dataclass(frozen=True)
class JuricCoefficients:
    poles: tuple
    num: Polynomial
    den: Polynomial


def _falling(x, l):
    out = 1
    for i in range(l):
        out *= x - i
    return out


def juric_coefficients(x):
    """Coefficient tables for the recursive scheme applied to Y = X(z)/z.

    For each distinct root z_k (multiplicity m) of Y's denominator, with
    D_k the denominator deflated by (z - z_k)^m:

        c_j = (N^(j)(z_k) - sum_{l<j} c_l (j)_l D_k^(j-l)(z_k)) / (j! D_k(z_k))

    where (j)_l is the falling factorial. Tables at conjugate poles are
    mirrored exactly.
    """
    num, den = _divided_by_z(x)
    if den.degree < 1:
        return JuricCoefficients((), num, den)
    poles = complex_pole_multiplicities(den)
    tables = {}
    # upper-half poles first so lower-half tables mirror them exactly
    for zk, m in sorted(poles, key=lambda pm: (pm[0].real, -pm[0].imag)):
        if zk.imag < 0 and zk.conjugate() in tables:
            src = tables[zk.conjugate()]
            tables[zk] = tuple(c.conjugate() for c in src)
            continue
        dk = _deflate(den, zk, m)
        dkz = dk(zk)
        if dkz == 0:
            raise ZinvError("deflation inconsistent")
        cs = []
        for j in range(m):
            acc = num.derivative(j)(zk)
            for l in range(j):
                acc -= cs[l] * _falling(j, l) * dk.derivative(j - l)(zk)
            cs.append(acc / (math.factorial(j) * dkz))
        tables[zk] = tuple(cs)
    ordered = tuple(
        PoleCoefficients(zk, m, tables[zk])
        for zk, m in sorted(poles, key=lambda pm: (pm[0].real, pm[0].imag))
    )
    return JuricCoefficients(ordered, num, den)


def juric_series(x, n_max):
    """Inverse transform from the recursive coefficient tables.

    x[n] = sum_k sum_{j=0}^{m_k-1} c_{k, m_k-1-j} C(n,j) z_k^(n-j), with the
    z_k = 0 term replaced by c_{k, m_k-1-j} delta[n-j].
    """
    table = juric_coefficients(x)
    vals = [0j] * (n_max + 1)
    for entry in table.poles:
        zk, m, cs = entry.pole, entry.mult, entry.coeffs
        for j in range(m):
            c = cs[m - 1 - j]
            if zk == 0:
                if 0 <= j <= n_max:
                    vals[j] += c
                continue
            for n in range(n_max + 1):
                binom = math.comb(n, j)
                if binom:
                    vals[n] += c * binom * zk ** (n - j)
    out = tuple(_discard_imag(v, "juric") for v in vals)
    return SequenceTable(out, "juric", x)


def residue_value(x, n):
    """x[n] as the sum of residues of X(z) z^(n-1) over the poles of X.

    For a pole of multiplicity m the residue is the (m-1)-th derivative of
    (z - z_k)^m X(z) z^(n-1) at z_k over (m-1)!; the derivative chain runs on
    the deflated rational via the quotient rule. n = 0 is excluded: z^(n-1)
    would add a pole at the origin outside X's pole set.
    """
    if n < 1:
        raise ValueError("use n >= 1 or an oracle that handles the origin pole")
    poles = complex_pole_multiplicities(x.den)
    shifted = x.num.shift(n - 1)
    total = 0j
    for zk, m in poles:
        dk = _deflate(x.den, zk, m)
        p_cur, q_pol, e = shifted, dk, 1
        for _ in range(m - 1):
            p_cur = p_cur.derivative() * q_pol - (p_cur * q_pol.derivative()) * e
            e += 1
        total += p_cur(zk) / (q_pol(zk) ** e) / math.factorial(m - 1)
    return _discard_imag(total, "residue")


def _worst(values):
    """Largest value, NaN counted as inf (max() would skip a NaN not first)."""
    return max((math.inf if math.isnan(v) else v for v in values), default=0.0)


def within_bound(dev, bound):
    """The comparison gate: fails closed on a NaN deviation or an infinite bound."""
    return math.isfinite(bound) and dev <= bound


METHODS = ("proposed", "longdiv", "moreira", "juric")
_RESIDUE_BASE = (1, 5, 17, 33, 50)


@dataclass
class MethodRun:
    values: tuple | None
    seconds: float
    error: str | None = None


@dataclass
class ComparisonReport:
    source: object
    n_max: int
    tolerance: float
    methods: dict
    pairs: list = field(default_factory=list)  # (name_a, name_b, max_dev)
    residue_checks: list = field(default_factory=list)  # (n, value, dev, error)
    scale: float = 1.0
    passed: bool = True

    def worst_pair_deviation(self):
        return max((d for _, _, d in self.pairs), default=0.0)


def compare_methods(x, n_max=50, tol=1e-7, factored=None):
    """Run every method on x and report pairwise deviations.

    Per-method failures are captured in the report rather than raised;
    `passed` reflects only the deviations of the methods that produced
    values, judged against tol * max(1, max |x[n]|) with the long-division
    series as the preferred scale anchor. A non-finite bound or deviation
    fails.
    """

    def run(fn):
        t0 = time.perf_counter()
        try:
            vals = fn()
            return MethodRun(tuple(vals), time.perf_counter() - t0)
        except (ZinvError, ValueError, ZeroDivisionError, OverflowError) as exc:
            return MethodRun(None, time.perf_counter() - t0, f"{exc}")

    methods = {
        "proposed": run(lambda: eval_sequence(invert(x, factored=factored), n_max).values),
        "longdiv": run(lambda: longdiv_series(x, n_max).values),
        "moreira": run(lambda: moreira_series(x, n_max).values),
        "juric": run(lambda: juric_series(x, n_max).values),
    }

    anchor = None
    for name in ("longdiv", "proposed", "moreira", "juric"):
        if methods[name].values is not None:
            anchor = name
            break

    report = ComparisonReport(x, n_max, tol, methods)
    if anchor is None:
        report.passed = False
        return report
    report.scale = max(1.0, _worst(abs(v) for v in methods[anchor].values))
    bound = tol * report.scale
    report.passed = math.isfinite(bound)

    names = [m for m in METHODS if methods[m].values is not None]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            dev = _worst(
                abs(va - vb)
                for va, vb in zip(methods[a].values, methods[b].values)
            )
            report.pairs.append((a, b, dev))
            if not within_bound(dev, bound):
                report.passed = False

    ref = methods[anchor].values
    for n in (i for i in _RESIDUE_BASE if 1 <= i <= n_max):
        try:
            val = residue_value(x, n)
            dev = abs(val - ref[n])
            report.residue_checks.append((n, val, dev, None))
            if not within_bound(dev, bound):
                report.passed = False
        except (ZinvError, ValueError, ZeroDivisionError, OverflowError) as exc:
            report.residue_checks.append((n, None, None, f"{exc}"))
    return report
