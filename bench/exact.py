"""Exact ground truth for the benchmark: power-series coefficients by long division.

Every float is a dyadic rational, so the inputs the benchmark writes are exact
rationals. The division recurrence

    x[n] = c[n] - sum_{i=1..min(n,q)} d[i] x[n-i]

(monic denominator z^q + d[1] z^(q-1) + ... + d[q], numerator aligned to z^q)
is run on integers: with M the common denominator of the d[i] and F that of
the c[n], Y[n] = x[n] * F * M^n is an integer and

    Y[n] = C[n] M^n - sum_i D[i] Y[n-i] M^(i-1),   D[i] = d[i] M, C[n] = c[n] F.

The recurrence takes no gcd; each value is rounded to float once, correctly,
by Python's int true division. This module shares no code with zinv.
"""

from __future__ import annotations

from fractions import Fraction
from math import fsum, lcm


def poly_mul(p, q):
    """Product of two ascending coefficient lists of Fractions."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def poly_pow(p, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def exact_values(num, den, n_max):
    """Yield (Y, S) with x[n] = Y / S exactly, for n = 0..n_max.

    num and den are ascending coefficient lists of ints or Fractions with
    deg(num) <= deg(den) and a nonzero leading den coefficient.
    """
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    q = len(den) - 1
    if q < 0:
        raise ZeroDivisionError("zero denominator")
    if len(num) - 1 > q and any(num[q + 1 :]):
        raise ValueError("non-causal: improper rational")
    lead = den[-1]
    d = [den[q - i] / lead for i in range(1, q + 1)]  # d[i-1] multiplies z^(q-i)
    c = [(num[q - n] if 0 <= q - n < len(num) else Fraction(0)) / lead for n in range(q + 1)]
    m = lcm(1, *(v.denominator for v in d))
    f = lcm(1, *(v.denominator for v in c))
    big_d = [v.numerator * (m // v.denominator) for v in d]
    big_c = [v.numerator * (f // v.denominator) for v in c]
    ys = []
    scale = f
    for n in range(n_max + 1):
        # Horner in m: sum_i D[i] Y[n-i] m^(i-1)
        acc = 0
        for i in range(min(n, q), 0, -1):
            acc = acc * m + big_d[i - 1] * ys[n - i]
        acc = (big_c[n] * m**n if n <= q else 0) - acc
        ys.append(acc)
        if len(ys) > q:
            ys[n - q] = None  # only the last q values feed the recurrence
        yield acc, scale
        scale *= m


def exact_series(num, den, n_max):
    """x[0..n_max] as Fractions (for small n_max and the self-checks)."""
    return [Fraction(y, s) for y, s in exact_values(num, den, n_max)]


def float_series(num, den, n_max):
    """x[0..n_max], each exact value correctly rounded to float."""
    return [y / s for y, s in exact_values(num, den, n_max)]


def term_rational(term):
    """(num, den) of one closed-form term from `zinv invert --format json`.

    Each term stands for a rational function in z, so its sequence is that
    function's long division; the formula zinv renders is never evaluated.
    """
    kind = term["kind"]
    if kind == "impulse":  # amp z^(-index); a negative index never fires for n >= 0
        idx = term["index"]
        return ([Fraction(term["amp"])], [0] * idx + [1]) if idx >= 0 else ([0], [1])
    if kind == "real_pole":  # amp / (z - r)^k
        den = poly_pow([-Fraction(term["pole"]), Fraction(1)], term["mult"])
        return [Fraction(term["amp"])], den
    if kind == "quad_pole":  # (z_amp z + const_amp) / (z^2 - 2a z + a^2 + b^2)^k
        a, b = Fraction(term["a"]), Fraction(term["b"])
        den = poly_pow([a * a + b * b, -2 * a, Fraction(1)], term["mult"])
        return [Fraction(term["const_amp"]), Fraction(term["z_amp"])], den
    raise ValueError(f"unknown term kind {kind!r}")


def terms_float_series(terms, n_max):
    """Sum of the terms' exact sequences: each correctly rounded, summed by fsum."""
    columns = [float_series(*term_rational(t), n_max) for t in terms]
    return [fsum(col[n] for col in columns) for n in range(n_max + 1)]
