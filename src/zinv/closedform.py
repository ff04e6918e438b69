"""Build and evaluate closed-form inverse Z-transforms from real partial fractions.

The three term kinds and their sequences:

* ``Impulse(amp, index)``        -> amp * delta[n - index]
* ``RealPole(amp, pole, mult)``  -> amp * C(n-1, k-1) * pole**(n-k), n >= k
* ``QuadPole(z_amp, const_amp, a, b, mult)`` for the conjugate pair a +/- ib
  = r*e^(+/-i*theta), b > 0:

      z_amp * s1[n] + const_amp * s0[n]

  where s0 (supported on n >= 2k) is

      s0[n] = 2(-1)^(k-1) r^(n-2k) / (2 sin th)^(2k-1)
              * sum_{j=0}^{k-1} (-1)^j C(n-1,j) C(n-(k+1+j), k-1-j)
                                sin((n-2j-1) th)

  and s1[n] = s0[n+1] (supported on n >= 2k-1).

Evaluation regroups each trig factor as
r^(n-2k) sin(m th) / (2 sin th)^(2k-1) = Im((a+ib)^m) (a^2+b^2)^j / (2b)^(2k-1)
with m = n-2j-1: the same formula in Gaussian powers, so integer pole data
is evaluated in exact integers with one correctly rounded final division, and
non-integer data in floats. quad_seq0 takes each power by binary
exponentiation (random access); eval_sequence tabulates n = 0..N from one
running product (a+ib)^m per pole pair, shared by all its multiplicities and
by s1. That is still this sum, not the denominator's recurrence: the
recurrence is the long-division oracle, which must stay independent. A value
that is not a finite float raises OverflowError, for int and float data
alike. The supports are gated explicitly: without the gates the k=1 formula
is nonzero at small n where the true sequence must vanish.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .factorize import factor_denominator
from .pfe import RationalFunction, real_pfe

DROP_TOL = 1e-12


@dataclass(frozen=True)
class Impulse:
    """amp * delta[n - index]; negative index never fires for n >= 0."""

    amp: float
    index: int


@dataclass(frozen=True)
class RealPole:
    """amp * C(n-1, mult-1) * pole**(n-mult), zero for n < mult."""

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
    """z_amp * s1[n] + const_amp * s0[n] for the pole pair a +/- ib."""

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
    """Sum of closed-form terms; the inverse transform as a formula in n."""

    terms: tuple
    source: RationalFunction
    warnings: tuple = ()


@dataclass(frozen=True)
class SequenceTable:
    """x[n] values over n = 0..n_max, tagged with the producing method."""

    values: tuple
    method_tag: str
    source: RationalFunction | None = None

    def __len__(self):
        return len(self.values)

    def __getitem__(self, n):
        return self.values[n]


def _gauss_pow(re, im, m):
    """(re + i*im)**m by binary exponentiation; exact for int components."""
    rr, ri = 1, 0
    while m:
        if m & 1:
            rr, ri = rr * re - ri * im, rr * im + ri * re
        re, im = re * re - im * im, 2 * re * im
        m >>= 1
    return rr, ri


def _pair(a, b, k):
    """Validated pole data: int components when both are integer-valued."""
    if b <= 0:
        raise ValueError("not a complex pair")
    if k < 1:
        raise ValueError("multiplicity must be >= 1")
    ai, bi = int(a), int(b)
    if a == ai and b == bi:
        return ai, bi
    return float(a), float(b)


def _s0(a, b, k, n, im_pow):
    """s0[n] for a +/- ib from _pair, given im_pow(m) = Im((a+ib)**m).

    Raises OverflowError when the value is not a finite float.
    """
    if n < 2 * k:
        return 0.0
    s2 = a * a + b * b
    total = 0
    for j in range(k):
        c = math.comb(n - 1, j) * math.comb(n - k - 1 - j, k - 1 - j)
        total += (-1) ** j * c * im_pow(n - 2 * j - 1) * s2**j
    try:
        value = 2 * (-1) ** (k - 1) * total / (2 * b) ** (2 * k - 1)
        if math.isfinite(value):
            return value
    except OverflowError:
        pass
    raise OverflowError(f"quadratic-pole sequence overflows a float at n={n}")


def quad_seq0(a, b, k, n):
    """Sequence for a constant numerator over (z^2-2az+(a^2+b^2))**k.

    Zero for n < 2k. Integer-valued (a, b) are evaluated exactly.
    """
    a, b = _pair(a, b, k)
    return _s0(a, b, k, n, lambda m: _gauss_pow(a, b, m)[1])


def quad_seq1(a, b, k, n):
    """Sequence for a bare-z numerator: quad_seq0 shifted one step left."""
    return quad_seq0(a, b, k, n + 1)


def _quad_columns(a, b, lengths):
    """{k: [quad_seq0(a, b, k, n) for n < lengths[k]]} from one running product.

    Only the last 2K-1 values Im((a+ib)**m) are kept, K = max k: exact integer
    powers grow without bound, so a full table would cost O(N^2) bits.
    """
    a, b = _pair(a, b, max(lengths))
    window = deque(maxlen=2 * max(lengths) - 1)  # m = n-2K+1..n-1
    cols = {k: [] for k in lengths}
    re, im = 1, 0
    for n in range(max(lengths.values())):
        for k, col in cols.items():
            if n < lengths[k]:
                col.append(_s0(a, b, k, n, lambda m: window[m - n]))
        window.append(im)
        re, im = re * a - im * b, re * b + im * a
    return cols


def real_pole_seq(amp, pole, k, n):
    """amp * C(n-1, k-1) * pole**(n-k); zero for n < k."""
    if pole == 0:
        raise ValueError("origin pole must be an impulse")
    if k < 1:
        raise ValueError("multiplicity must be >= 1")
    if n < k:
        return 0.0
    return amp * math.comb(n - 1, k - 1) * pole ** (n - k)


def _column(term, n_max, s0):
    """One term's sequence over n = 0..n_max; s0[a, b][k] is a quad_seq0 column."""
    ns = range(n_max + 1)
    if isinstance(term, Impulse):
        return [term.amp if n == term.index else 0.0 for n in ns]
    if isinstance(term, RealPole):
        return [real_pole_seq(term.amp, term.pole, term.mult, n) for n in ns]
    if isinstance(term, QuadPole):
        base = s0[term.a, term.b][term.mult]
        col = [0.0] * (n_max + 1)
        if term.z_amp:  # s1[n] = s0[n+1]
            col = [v + term.z_amp * s for v, s in zip(col, base[1:])]
        if term.const_amp:
            col = [v + term.const_amp * s for v, s in zip(col, base)]
        return col
    raise TypeError(f"not a closed-form term: {term!r}")


def eval_sequence(expr, n_max):
    """Evaluate x[n] for n = 0..n_max: term columns summed in term order.

    The quadratic terms of one pole pair share one running power product.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    pairs = {}  # (a, b) -> {mult: number of s0 values its terms use}
    for t in expr.terms:
        if isinstance(t, QuadPole):
            ks = pairs.setdefault((t.a, t.b), {})
            ks[t.mult] = max(ks.get(t.mult, 0), n_max + 1 + bool(t.z_amp))
    s0 = {pair: _quad_columns(*pair, ks) for pair, ks in pairs.items()}
    columns = [_column(t, n_max, s0) for t in expr.terms]
    values = tuple(map(sum, zip(*columns))) if columns else (0,) * (n_max + 1)
    return SequenceTable(values, "proposed", expr.source)


def invert(x, factored=None, drop_tol=DROP_TOL):
    """Closed-form inverse transform of a rational function.

    Factors the denominator (or uses a caller-supplied exact factorization),
    expands over the reals, and maps each expansion term to a closed-form
    term. Expansion terms that are zero to within drop_tol (relative) are
    dropped; z^k monomials with k >= 1 in the polynomial part are kept for
    rendering but never fire on n >= 0, and attach a warning.
    """
    warnings = []
    if x.den.degree == 0:
        # purely polynomial input (den normalized to 1)
        pf_poly = x.num
        origin_terms = real_terms = quad_terms = ()
    else:
        f = factored if factored is not None else factor_denominator(x.den)
        pf = real_pfe(x, f)
        warnings.extend(pf.warnings)
        pf_poly = pf.poly_part
        origin_terms, real_terms, quad_terms = (
            pf.origin_terms,
            pf.real_terms,
            pf.quad_terms,
        )

    amps = [abs(c) for c in pf_poly.coeffs]
    amps += [abs(t.amp) for t in origin_terms]
    amps += [abs(t.amp) for t in real_terms]
    amps += [abs(t.z_amp) for t in quad_terms] + [abs(t.const_amp) for t in quad_terms]
    cutoff = drop_tol * max([1.0, *amps])

    terms = []
    for i, c in enumerate(pf_poly.coeffs):
        if abs(c) > cutoff:
            terms.append(Impulse(float(c), -i))
    if pf_poly.degree >= 1:
        warnings.append(
            "non-causal polynomial part: delta[n+k] terms vanish for n >= 0"
        )
    for t in origin_terms:
        if abs(t.amp) > cutoff:
            terms.append(Impulse(t.amp, t.shift))
    for t in real_terms:
        if abs(t.amp) > cutoff:
            terms.append(RealPole(t.amp, t.r, t.j))
    for t in quad_terms:
        if max(abs(t.z_amp), abs(t.const_amp)) > cutoff:
            terms.append(QuadPole(t.z_amp, t.const_amp, t.a, t.b, t.j))
    return ClosedFormExpr(tuple(terms), x, tuple(warnings))


def invert_expression(text, drop_tol=DROP_TOL):
    """Parse a rational expression in z and invert it.

    Factored denominators in the input bypass numeric root finding.
    """
    from .parser import parse_rational_expr

    x, factored = parse_rational_expr(text)
    return invert(x, factored=factored, drop_tol=drop_tol)


# ---------------------------------------------------------------------------
# rendering


def _fmt(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.5g}"


def _n_minus(c):
    """'n', 'n-3' or 'n+2' as text."""
    if c == 0:
        return "n"
    return f"n-{c}" if c > 0 else f"n+{-c}"


def _binom(upper_off, low, latex):
    """C(n - upper_off, low), omitted when identically 1."""
    if low == 0:
        return None
    arg = _n_minus(upper_off)
    if latex:
        return rf"\binom{{{arg}}}{{{low}}}"
    return f"C({arg},{low})"


def _join(factors, latex):
    sep = " " if latex else "*"
    return sep.join(f for f in factors if f is not None)


def _render_impulse(t, latex):
    sym = r"\delta" if latex else "δ"
    body = f"{sym}[{_n_minus(t.index)}]"
    mag = abs(t.amp)
    if mag != 1:
        body = _join([_fmt(mag), body], latex)
    return [(-1 if t.amp < 0 else 1, body)]


def _render_real_pole(t, latex):
    k = t.mult
    mag = abs(t.amp)
    base = _fmt(abs(t.pole)) if t.pole > 0 else f"({_fmt(t.pole)})"
    expo = _n_minus(k)
    power = f"{base}^{{{expo}}}" if latex else f"{base}^({expo})"
    factors = [
        _fmt(mag) if mag != 1 else None,
        _binom(1, k - 1, latex),
        power,
        f"u[{_n_minus(k)}]",
    ]
    return [(-1 if t.amp < 0 else 1, _join(factors, latex))]


def _render_quad_piece(amp, a, b, k, shift, latex):
    """One of the two quadratic-pole pieces; shift=0 for s0, 1 for s1."""
    r = math.hypot(a, b)
    th = math.atan2(b, a)
    pref = amp * 2.0 * (-1) ** (k - 1) / (2.0 * math.sin(th)) ** (2 * k - 1)
    sign = -1 if pref < 0 else 1
    mag = abs(pref)

    inner = []
    for j in range(k):
        m = 2 * j + 1 - shift
        sin_arg = f"{_fmt(th)}*({_n_minus(m)})" if m else f"{_fmt(th)}*n"
        if latex:
            sin_arg = sin_arg.replace("*", " ")
        sin_txt = rf"\sin({sin_arg})" if latex else f"sin({sin_arg})"
        part = _join(
            [_binom(1 - shift, j, latex), _binom(k + 1 + j - shift, k - 1 - j, latex), sin_txt],
            latex,
        )
        inner.append((j % 2, part))
    if len(inner) == 1:
        total = inner[0][1]
    else:
        text = inner[0][1]
        for odd, part in inner[1:]:
            text += (" - " if odd else " + ") + part
        total = f"({text})"

    gate = 2 * k - shift
    expo = _n_minus(gate)
    power = None
    if r != 1:
        power = f"{_fmt(r)}^{{{expo}}}" if latex else f"{_fmt(r)}^({expo})"
    factors = [
        _fmt(mag) if mag != 1 else None,
        power,
        total,
        f"u[{_n_minus(gate)}]",
    ]
    return sign, _join(factors, latex)


def _render_quad(t, latex):
    pieces = []
    if t.z_amp:
        pieces.append(_render_quad_piece(t.z_amp, t.a, t.b, t.mult, 1, latex))
    if t.const_amp:
        pieces.append(_render_quad_piece(t.const_amp, t.a, t.b, t.mult, 0, latex))
    return pieces


def render(expr, fmt="text"):
    """Deterministic human-readable formula for a closed-form expression."""
    if fmt not in ("text", "latex"):
        raise ValueError("format must be 'text' or 'latex'")
    latex = fmt == "latex"
    pieces = []
    for t in expr.terms:
        if isinstance(t, Impulse):
            pieces.extend(_render_impulse(t, latex))
        elif isinstance(t, RealPole):
            pieces.extend(_render_real_pole(t, latex))
        else:
            pieces.extend(_render_quad(t, latex))
    if not pieces:
        return "0"
    sign, body = pieces[0]
    text = ("-" if sign < 0 else "") + body
    for sign, body in pieces[1:]:
        text += (" - " if sign < 0 else " + ") + body
    return text
