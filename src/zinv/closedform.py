"""Build and evaluate closed-form inverse Z-transforms from real partial fractions.

pfe.real_pfe builds the closed form, a ClosedFormExpr (defined there, with the
three term kinds); invert feeds it the denominator's factors. The term kinds
and their sequences:

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
with m = n-2j-1: the same formula in Gaussian powers, computed in the
arithmetic of each term's data: integer-valued int or float pole data as ints,
with one correctly rounded division in s0, exact rationals exactly, and other
float data in floats. eval_sequence is the one evaluator: it walks n = 0..N
once over all terms, CHUNK values of n at a time. Each pole pair keeps one
running product (a+ib)^m, shared by all its multiplicities and by s1, with
only the last 2K-1 powers carried from chunk to chunk so exact powers never
fill an O(N^2)-bit table. One formula body, _s0, evaluates a chunk: each j-th
summand t + w * Im * (-1)^j (a^2+b^2)^j, with an exact integer weight w, is
one list pass; the passes add to totals from an int 0 in j order and the last
also divides, the operations of a value-by-value loop in order. The terms are
added to the chunk's running sum, from an int 0, in term order: a quadratic
term in the pass that makes it, v + (z_amp*s1 + const_amp*s0), a real-pole
term as a column, and an impulse in place. That is still this sum, not the
denominator's recurrence: the recurrence is the long-division oracle, which
must stay independent. The formula bodies are plain arithmetic with one
rounding point: _sum converts each value to a float once, after the float
range rule, so exact data give float(exact). The rule, one for all data, is
applied in two places: _term_col raises OverflowError, named for the term's
kind, at the first n whose s0 or real-pole value is not a finite float, and
_sum does when every term is finite but their sum is not. The supports are
gated explicitly: without the gates the k=1 formula is nonzero at small n
where the true sequence must vanish.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from itertools import accumulate, repeat

from .factorize import factor_denominator
from .pfe import ClosedFormExpr, Impulse, QuadPole, RealPole, real_pfe  # the record re-exported

CHUNK = 1024  # n values per column pass of eval_sequence


@dataclass(frozen=True)
class SequenceTable:
    """x[n] values over n = 0..n_max."""

    values: tuple

    def __len__(self):
        return len(self.values)

    def __getitem__(self, n):
        return self.values[n]


def _comb_col(ms, r):
    """C(m, r) for m in ms, r >= 1: the range itself when r = 1."""
    return ms if r == 1 else map(math.comb, ms, repeat(r))


def _s0(a, b, k, ns, im, off):
    """[s0[n] for n in ns] for a +/- ib from _pair_chunks, unchecked: a value
    may be inf or nan, and OverflowError escapes as it is raised.

    im[m - off] = Im((a+ib)**m) for every m = n-2j-1 with 2k <= n in ns. The
    j-th summand is one pass over ns adding w * Im * p to totals that start
    from int 0 (a -0.0 first summand adds to 0.0), in j order; the last pass
    also divides by (2b)^(2k-1), then scales by 2(-1)^(k-1): doubling is exact
    in the normal range, so a total near the top of the float range is
    divided before it is doubled, not doubled past it. The integer weight w = C(n-1,j) C(n-k-1-j,k-1-j) leaves out
    the factors that are 1 (k = 1 has none) and reads C(m,1) = m off its
    range; p = (-1)^j (a^2+b^2)^j carries the sign, exactly. So int data gives
    exact integer totals and one correctly rounded division, and float data
    the float operations of a value-by-value loop in its order.
    """
    lo = min(max(ns.start, 2 * k), ns.stop)
    zeros = [0] * (lo - ns.start)
    if lo == ns.stop:
        return zeros
    s2, totals = a * a + b * b, repeat(0)
    for j in range(k):
        p, m0 = (-1) ** j * s2**j, lo - 2 * j - 1 - off
        xs = im[m0 : m0 + ns.stop - lo]
        ws = _comb_col(range(lo - 1, ns.stop - 1), j) if j else None
        if j == k - 1:  # the last pass, below, also divides
            break
        c2 = _comb_col(range(lo - k - 1 - j, ns.stop - k - 1 - j), k - 1 - j)
        ws = map(operator.mul, ws, c2) if j else c2
        totals = [t + w * x * p for t, w, x in zip(totals, ws, xs)]
    sign, den = 2 * (-1) ** (k - 1), (2 * b) ** (2 * k - 1)
    # a tiny float b leaves (2b)^(2k-1) subnormal or 0.0, with too few bits to divide by
    if isinstance(den, float) and den < sys.float_info.min:
        raise OverflowError
    if k == 1:
        return zeros + [(0 + x) / den * sign for x in xs]
    return zeros + [(t + w * x * p) / den * sign for t, w, x in zip(totals, ws, xs)]


def _ints(*vs):
    """vs as ints when all are integer-valued ints or floats, else as given
    (exact rationals stay exact: an int pair's s0 ends in a float division)."""
    exact = all(isinstance(v, (int, float)) and v == int(v) for v in vs)
    return tuple(map(int, vs)) if exact else vs


def _pair_chunks(a, b, k, n_end):
    """(a, b, im, off) per CHUNK of n < n_end: a, b by _ints, and
    im[m - off] = Im((a+ib)**m) for the m that _s0 reads in the chunk, from
    one running product keeping the last 2k-1 powers of the chunk before
    (exact powers grow without bound: a full table is O(N^2) bits).
    """
    a, b = _ints(a, b)
    keep = 2 * k - 1
    im = [0] * keep  # the m < 0 are never read
    re, cur = 1, 0
    for n0 in range(0, n_end, CHUNK):
        for _ in range(n0, min(n0 + CHUNK, n_end)):
            im.append(cur)
            re, cur = re * a - cur * b, re * b + cur * a
        yield a, b, im, n0 - keep
        im = im[-keep:]


def _real_pole_col(t, ns):
    """[x[n] for n in ns] of the RealPole t, unchecked: a value may be inf,
    and OverflowError escapes as it is raised. A float pole's powers (after
    _ints) are pow per value, as a running product would round at every step;
    any other pole's are one running product, exactly pole**e.
    """
    amp, (pole,), k = t.amp, _ints(t.pole), t.mult
    lo = min(max(ns.start, k), ns.stop)
    zeros, es = [0] * (lo - ns.start), range(lo - k, ns.stop - k)
    if lo == ns.stop:
        return zeros
    pows = (map(pow, repeat(pole), es) if isinstance(pole, float)
            else accumulate(repeat(pole, len(es) - 1), operator.mul, initial=pole**es.start))
    if k == 1:  # C(n-1, 0) = 1
        return zeros + [amp * p for p in pows]
    cs = _comb_col(range(lo - 1, ns.stop - 1), k - 1)
    return zeros + [amp * c * p for c, p in zip(cs, pows)]


def _term_col(t, ns, powers, vals):
    """vals, the running sum over ns, plus t's values; OverflowError, named for
    t's kind and n = ns.start, if one s0 or real-pole value is not a finite float.

    powers[t.a, t.b] = (a, b, im, off): the pair and its Gaussian powers from
    _pair_chunks for _s0, which reach one past ns for the z-numerator piece.
    """
    if isinstance(t, Impulse):
        if t.index in ns:
            vals[t.index - ns.start] += t.amp
        return vals
    try:
        if isinstance(t, RealPole):
            kind = "real-pole"
            s = _real_pole_col(t, ns)
        elif isinstance(t, QuadPole):
            kind = "quadratic-pole"
            # s1[n] = s0[n+1]: s0 one past ns only where s1 is used, so that
            # the last n with a finite value is not taken for a failing one
            a, b, im, off = powers[t.a, t.b]
            s = _s0(a, b, t.mult, range(ns.start, ns.stop + bool(t.z_amp)), im, off)
        else:
            raise TypeError(f"not a closed-form term: {t!r}")
        ok = _finite(s)
    except OverflowError:
        ok = False
    if not ok:
        raise OverflowError(f"{kind} sequence overflows a float at n={ns.start}")
    if isinstance(t, RealPole):
        return list(map(operator.add, vals, s))
    za, ca = t.z_amp, t.const_amp
    # without s1 (z_amp = 0) s is s0 alone, and za * s0 is a zero
    return [v + (za * s1 + ca * s0) for v, s1, s0 in zip(vals, s[1:] if za else s, s)]


def _finite(vals):
    """All convert to finite floats: one float sum if it is finite (a float inf
    or nan cannot cancel; an exact sum can), else value by value."""
    try:
        total = sum(vals)
        return isinstance(total, float) and math.isfinite(total) or all(map(math.isfinite, vals))
    except OverflowError:  # an exact value past the float range
        return False


def _sum(terms, ns, powers):
    """[x[n] for n in ns]: each term added to a running sum from int 0, in term
    order, then each value rounded to a float once; OverflowError, named for
    n = ns.start, if a term or the sum is not a finite float: exact for a
    one-element ns."""
    vals = [0] * len(ns)
    for t in terms:
        vals = _term_col(t, ns, powers, vals)
    if not _finite(vals):
        raise OverflowError(f"closed-form sum overflows a float at n={ns.start}")
    return list(map(float, vals))


def eval_sequence(expr, n_max):
    """Evaluate x[n] for n = 0..n_max, CHUNK values of n at a time.

    The quadratic terms of one pole pair share one running power product.
    A chunk where a term or the sum is not a finite float is walked again
    n by n, so the OverflowError names the first such n and nothing past
    its chunk is evaluated.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    mults = {}  # (a, b) -> largest multiplicity
    for t in expr.terms:
        if isinstance(t, QuadPole):
            mults[t.a, t.b] = max(mults.get((t.a, t.b), 0), t.mult)
    chunks = {ab: _pair_chunks(*ab, k, n_max + 1) for ab, k in mults.items()}
    values = []
    for n0 in range(0, n_max + 1, CHUNK):
        powers = {ab: next(c) for ab, c in chunks.items()}
        ns = range(n0, min(n0 + CHUNK, n_max + 1))
        try:
            values += _sum(expr.terms, ns, powers)
            continue
        except OverflowError:
            pass
        for n in ns:  # the chunk again n by n: raises at the first failing n
            values += _sum(expr.terms, range(n, n + 1), powers)
    return SequenceTable(tuple(values))


def invert(x, factored=None):
    """Closed-form inverse transform of a rational function: real_pfe along
    the denominator's factors, caller-supplied exact ones or numeric ones."""
    return real_pfe(x, factored if factored is not None else factor_denominator(x.den))


def invert_expression(text):
    """Parse a rational expression in z and invert it.

    Factored denominators in the input bypass numeric root finding.
    """
    from .parser import parse_rational_expr

    x, factored = parse_rational_expr(text)
    return invert(x, factored=factored)


# ---------------------------------------------------------------------------
# rendering

# per format: product separator, delta, power, binomial C(n-c,j), sine
_STYLES = {
    "text": ("*", "δ", "{}^({})", "C({},{})", "sin({})"),
    "latex": (" ", r"\delta", "{}^{{{}}}", r"\binom{{{}}}{{{}}}", r"\sin({})"),
}


def _fmt(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.5g}"


def _n_minus(c):
    """'n', 'n-3' or 'n+2' as text."""
    if c == 0:
        return "n"
    return f"n-{c}" if c > 0 else f"n+{-c}"


def _signed_sum(parts):
    """'a + b - c' from (negative, body) pairs, '-a' for a negative first."""
    ops = ["-" if parts[0][0] else ""] + [" - " if neg else " + " for neg, _ in parts[1:]]
    return "".join(op + body for op, (_, body) in zip(ops, parts))


def _pieces(t, style):
    """[(amplitude, factors)] per printed piece of the term t, None factors
    left out: one for an Impulse or a RealPole; for a QuadPole one per
    nonzero amplitude (s1 for z_amp, then s0 for const_amp), and the piece's
    amplitude is the prefactor amp * 2(-1)^(k-1) / (2 sin th)^(2k-1).
    """
    sep, delta, power, binom, sine = style
    if isinstance(t, Impulse):
        return [(t.amp, [f"{delta}[{_n_minus(t.index)}]"])]
    k = t.mult
    if isinstance(t, RealPole):
        base = _fmt(t.pole) if t.pole > 0 else f"({_fmt(t.pole)})"
        c = binom.format(_n_minus(1), k - 1) if k > 1 else None
        return [(t.amp, [c, power.format(base, _n_minus(k)), f"u[{_n_minus(k)}]"])]
    r, th = math.hypot(t.a, t.b), math.atan2(t.b, t.a)
    try:
        div = (2.0 * math.sin(th)) ** (2 * k - 1)
        prefs = [amp * 2.0 * (-1) ** (k - 1) / div for amp in (t.z_amp, t.const_amp)]
        # below the smallest normal float the divisor has too few bits to divide by
        ok = div >= sys.float_info.min and all(map(math.isfinite, prefs))
    except (OverflowError, ZeroDivisionError):
        ok = False
    if not ok:
        raise OverflowError(
            f"quadratic-pole formula prefactor out of the float range (multiplicity {k})"
        )
    pieces, rn, angle = [], _fmt(r), _fmt(th) + sep
    for amp, pref, shift in zip((t.z_amp, t.const_amp), prefs, (1, 0)):
        if not amp:
            continue
        sines, top = [], _n_minus(1 - shift)
        for j in range(k):
            m = 2 * j + 1 - shift
            arg = f"{angle}({_n_minus(m)})" if m else f"{angle}n"
            c1 = binom.format(top, j) if j else None
            c2 = binom.format(_n_minus(k + 1 + j - shift), k - 1 - j) if j < k - 1 else None
            sines.append((j % 2 == 1, sep.join(filter(None, (c1, c2, sine.format(arg))))))
        total = _signed_sum(sines) if k == 1 else f"({_signed_sum(sines)})"
        gate = _n_minus(2 * k - shift)
        pieces.append((pref, [power.format(rn, gate) if r != 1 else None, total, f"u[{gate}]"]))
    return pieces


def render(expr, fmt="text"):
    """Deterministic human-readable formula for a closed-form expression.

    Every piece prints as its sign, then |amplitude| unless it is 1, then its
    factors; both formats take this one path, spelled by their _STYLES entry.
    """
    if fmt not in _STYLES:
        raise ValueError("format must be 'text' or 'latex'")
    style = _STYLES[fmt]
    parts = []
    for t in expr.terms:
        for amp, factors in _pieces(t, style):
            mag = abs(amp)
            if mag != 1:
                factors = [_fmt(mag), *factors]
            parts.append((amp < 0, style[0].join(filter(None, factors))))
    return _signed_sum(parts) if parts else "0"
