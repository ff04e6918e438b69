"""Independent inverse-transform implementations used for cross-validation.

Four routes that share no machinery with the closed-form path:

* long division of the power series in 1/z (the anchor: no root finding,
  no trigonometry);
* complex partial fractions of X(z)/z, inverted term by term in cosine form;
* the recursive-coefficient scheme on X(z)/z, inverted in complex powers;
* per-n residue sums of X(z) z^(n-1).

The last three read principal parts off one plain table each per request,
{pole: {power: A_j}} (pfe.principal_parts on the oracles' own pole
product): moreira and juric share X(z)/z's (pfe.complex_pfe_over_z), so they
differ only in how they evaluate it; residue reads X's.

SERIES_METHODS is the one method list: compare_methods, the CLI's table
columns and its --method choices all read it. The oracles factor one
denominator per request, X(z)/z's, and move its origin for X's (OraclePoles);
they never take the parser's factors or the closed form's.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, replace

from . import factorize
from .closedform import SequenceTable, eval_sequence, invert
from .errors import ZinvError
from .identities import _discard_imag
from .pfe import _divided_by_z, complex_pfe_over_z, principal_parts

# what a method may raise and have reported as its error, not propagated
METHOD_ERRORS = (ZinvError, ValueError, ZeroDivisionError, OverflowError)


def _finite(method, n, value):
    """value if it is a finite float (or an int within float range); else OverflowError."""
    try:
        if cmath.isfinite(value):
            return value
    except OverflowError:  # an int beyond float range
        pass
    raise OverflowError(f"{method} sequence overflows a float at n={n}")


def longdiv_series(x, n_max):
    """Power-series coefficients of X(z) in 1/z by the division recurrence.

    With monic denominator z^q + a_1 z^(q-1) + ... + a_q and the numerator
    aligned to z^q, x[n] = num[z^(q-n)] - sum_{i=1}^{q} a_i x[n-i], run from
    n0 = min(0, q-p) with x[n] = 0 before n0 (p the numerator's degree). An
    improper X's z^k terms, k >= 1, are its x[-k]: they pass through the
    recurrence and are dropped, as they never fire for n >= 0.
    Exact when the coefficients are integers (and the values within float range).
    """
    p, q = x.num.degree, x.den.degree
    n0 = min(0, q - p)
    vals = []
    for n in range(n0, n_max + 1):
        try:
            acc = x.num.coeff(q - n)
            for i in range(1, min(n - n0, q) + 1):
                acc -= x.den.coeff(q - i) * vals[n - n0 - i]
        except OverflowError:
            acc = math.nan
        vals.append(_finite("longdiv", n, acc))
    return SequenceTable(tuple(vals[-n0:]))


def moreira_series(x, n_max, poles=None):
    """Inverse transform via complex partial fractions of X(z)/z.

    Each principal-part term of Y = X/z is multiplied back by z and inverted:
    poles at 0 give shifted impulses, a pole p of multiplicity q gives
    coeff * C(n, q-1) * p^(n-q+1); conjugate pairs combine into
    2|c| r^(n-q+1) C(n, q-1) cos((n-q+1)theta + phi) with phi = arg(c).
    The table is poles.pfe_over_z(), poles the request's OraclePoles
    (OraclePoles(x) when None), summed pole by pole and power by power, in
    floats: it reads only the real parts at the origin and at real poles,
    and each pair's cosine, so no imaginary part is ever formed. A term
    overflowing at n makes x[n] NaN.
    """
    vals = [0.0] * (n_max + 1)
    for pole, part in (OraclePoles(x) if poles is None else poles).pfe_over_z().items():
        for j, coeff in part.items():
            try:
                if pole == 0:
                    if j - 1 <= n_max:  # z * coeff/z^j = coeff * z^(1-j)
                        vals[j - 1] += coeff
                elif pole.imag == 0:
                    for n in range(j - 1, n_max + 1):  # C(n, j-1) is 0 below
                        vals[n] += coeff * math.comb(n, j - 1) * pole.real ** (n - j + 1)
                elif pole.imag > 0:
                    amp, phi, r, theta = abs(coeff), cmath.phase(coeff), abs(pole), cmath.phase(pole)
                    if amp == 0:
                        continue
                    for n in range(j - 1, n_max + 1):
                        c = math.comb(n, j - 1)
                        vals[n] += 2.0 * amp * c * r ** (n - j + 1) * math.cos((n - j + 1) * theta + phi)
                # pole.imag < 0: consumed by its conjugate partner
            except OverflowError:  # only the n loops raise it: x[n] is not a finite float
                vals[n] = math.nan
    return SequenceTable(tuple(_finite("moreira", n, v) for n, v in enumerate(vals)))


def juric_series(x, n_max, poles=None):
    """Inverse transform by the recursive-coefficient scheme on X(z)/z.

    At a pole z_k of multiplicity m the scheme's coefficients are
    c_j = A_{m-j}, read off the same principal parts A_j/(z-z_k)^j as
    moreira_series (poles as there), and inverted in complex powers:
    x[n] = sum_k sum_{j=1}^{m} A_j C(n, j-1) z_k^(n-j+1), the z_k = 0 term
    being A_j delta[n-j+1]. Overflow is reported as in moreira_series.
    """
    vals = [0j] * (n_max + 1)
    for zk, part in (OraclePoles(x) if poles is None else poles).pfe_over_z().items():
        for j, a in part.items():
            if zk == 0:
                if j - 1 <= n_max:
                    vals[j - 1] += a
                continue
            for n in range(j - 1, n_max + 1):  # C(n, j-1) is 0 below
                try:
                    vals[n] += a * math.comb(n, j - 1) * zk ** (n - j + 1)
                except OverflowError:
                    vals[n] = math.nan
    out = tuple(_discard_imag(_finite("juric", n, v), "juric") for n, v in enumerate(vals))
    return SequenceTable(out)


def residue_value(x, n, poles=None):
    """x[n] as the sum of residues of X(z) z^(n-1) over the poles of X.

    At a pole z_k of multiplicity m, X has principal part sum_j A_j/(z-z_k)^j,
    and the residue is sum_l A_(l+1) C(n-1, l) z_k^(n-1-l) over l < min(m, n):
    the terms with l > n-1 vanish and are skipped, as z_k = 0 would divide by
    zero there. n = 0 is excluded: z^(n-1) would add a pole at the origin
    outside X's pole set. The parts are poles.residue_parts(), poles the
    request's OraclePoles (OraclePoles(x) when None), built once for every n.
    A constant denominator has none, and the sum is 0.
    """
    if n < 1:
        raise ValueError("use n >= 1 or an oracle that handles the origin pole")
    parts = (OraclePoles(x) if poles is None else poles).residue_parts()
    total = 0j
    try:
        for zk, coeffs in parts.items():
            for l in range(min(len(coeffs), n)):
                total += coeffs[l + 1] * math.comb(n - 1, l) * zk ** (n - 1 - l)
    except OverflowError:
        total = math.nan
    return _discard_imag(_finite("residue", n, total), "residue")


def _worst(values):
    """Largest value, NaN counted as inf (max() would skip a NaN not first)."""
    return max((math.inf if math.isnan(v) else v for v in values), default=0.0)


def within_bound(dev, bound):
    """The comparison gate: fails closed on a NaN deviation or an infinite bound."""
    return math.isfinite(bound) and dev <= bound


class OraclePoles:
    """The oracles' poles and principal-part tables for one input, from one factoring.

    factored() is the structure of X(z)/z's denominator, the one factored;
    over_z() is its pole list, pfe_over_z() X(z)/z's principal-part table at
    those poles (moreira, juric). of_x() is X's pole list, that structure with
    its origin moved: less the z the division added unless it cancelled (the
    factoring keeps exact z factors, so the origin stays >= 0). residue_parts()
    is X's principal parts at those poles (residue). A constant denominator
    has no poles. A factoring error is kept and raised at each use, where the
    oracle would have raised it.
    """

    def __init__(self, x):
        den = _divided_by_z(x)[1]
        moved = x.den.degree - den.degree  # -1 for the added z, 0 where it cancelled
        f = self.factored = _once(lambda: factorize.factor_denominator(den))
        self.over_z = _once(lambda: f().pole_list())
        self.pfe_over_z = _once(lambda: complex_pfe_over_z(x, self.over_z()))
        self.of_x = _once(lambda: replace(f(), origin_mult=f().origin_mult + moved).pole_list())
        self.residue_parts = _once(lambda: principal_parts(x.num, self.of_x()))


def _once(compute):
    memo = []

    def value():
        if not memo:
            try:
                memo.append(compute())
            except METHOD_ERRORS as exc:
                memo.append(exc)
        if isinstance(memo[0], Exception):
            raise memo[0]
        return memo[0]

    return value


# name -> series(x, n_max, factored, poles) giving x[0..n_max], poles an
# OraclePoles. Each entry looks its function up in this module when called,
# so a rebound module attribute (a test double, a tracer) is used.
SERIES_METHODS = {
    "proposed": lambda x, n, factored, poles: eval_sequence(invert(x, factored=factored), n).values,
    "longdiv": lambda x, n, factored, poles: longdiv_series(x, n).values,
    "moreira": lambda x, n, factored, poles: moreira_series(x, n, poles=poles).values,
    "juric": lambda x, n, factored, poles: juric_series(x, n, poles=poles).values,
}
_RESIDUE_BASE = (1, 5, 17, 33, 50)


@dataclass(frozen=True)
class MethodRun:
    values: tuple | None
    seconds: float
    error: str | None = None


@dataclass(frozen=True)
class ComparisonReport:
    n_max: int
    tolerance: float
    methods: dict
    pairs: tuple = ()  # (name_a, name_b, max_dev)
    residue_checks: tuple = ()  # (n, value, dev, error)
    scale: float = 1.0
    passed: bool = True

    def worst_pair_deviation(self):
        return max((d for _, _, d in self.pairs), default=0.0)


def compare_methods(x, n_max=50, tol=1e-7, factored=None):
    """Run every method on x and report pairwise deviations.

    Per-method failures are captured in the report rather than raised, and
    fail the case. Values are judged pairwise against tol * max(1, max |x[n]|),
    with the long-division series as the preferred scale anchor. A non-finite
    bound or deviation fails.
    """
    poles = OraclePoles(x)

    def run(series):
        t0 = time.perf_counter()
        try:
            vals = series(x, n_max, factored, poles)
            return MethodRun(tuple(vals), time.perf_counter() - t0)
        except METHOD_ERRORS as exc:
            return MethodRun(None, time.perf_counter() - t0, f"{exc}")

    methods = {name: run(series) for name, series in SERIES_METHODS.items()}
    anchor = next(
        (m for m in ("longdiv", *methods) if methods[m].values is not None), None
    )
    if anchor is None:
        return ComparisonReport(n_max, tol, methods, passed=False)
    ref = methods[anchor].values
    scale = max(1.0, _worst(abs(v) for v in ref))
    bound = tol * scale

    names = [m for m in methods if methods[m].values is not None]
    pairs = tuple(
        (a, b, _worst(abs(va - vb) for va, vb in zip(methods[a].values, methods[b].values)))
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    )

    def residue_check(n):
        try:
            val = residue_value(x, n, poles=poles)
            return n, val, abs(val - ref[n]), None
        except METHOD_ERRORS as exc:
            return n, None, None, f"{exc}"

    checks = tuple(residue_check(n) for n in _RESIDUE_BASE if 1 <= n <= n_max)
    passed = (
        math.isfinite(bound)
        and len(names) == len(methods)
        and all(within_bound(dev, bound) for *_, dev in pairs)
        and all(err is None and within_bound(dev, bound) for *_, dev, err in checks)
    )
    return ComparisonReport(n_max, tol, methods, pairs, checks, scale, passed)
