"""Exact-arithmetic combinatorial identities behind the quadratic-pole formula.

Everything here runs over Python integers (and one exact rational division),
so the identity sweeps are machine-checked statements rather than float
comparisons. The one float producer, pair_convolution_series, is the
independent convolution route to the quadratic-pole sequence; for integer
pole data it too is exact (Gaussian-integer arithmetic). It has its own
Gaussian powers and pole-data check, so that the convolution sweep shares
no code with the closed form it checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .closedform import SequenceTable
from .errors import ConjugateSymmetryError

SYMMETRY_TOL = 1e-9


def _discard_imag(value, where):
    """Drop the imaginary residue of a conjugate-closed sum; error if large."""
    if abs(value.imag) > SYMMETRY_TOL * max(1.0, abs(value)):
        raise ConjugateSymmetryError(
            f"conjugate symmetry violated in {where}: residue {value.imag:.3g}"
        )
    return value.real


def falling_factorial(x, l):
    """x(x-1)...(x-l+1); the empty product (l = 0) is 1."""
    if l < 0:
        raise ValueError("length must be >= 0")
    out = 1
    for i in range(l):
        out *= x - i
    return out


def binomial_general(nu, kappa):
    """C(nu, kappa) = (nu)_kappa / kappa! for any integer nu, kappa >= 0.

    For 0 <= nu < kappa the falling factorial crosses zero, giving the usual
    vanishing convention; negative nu gives the signed extension. Always an
    exact integer.
    """
    fr = Fraction(falling_factorial(nu, kappa), math.factorial(kappa))
    if fr.denominator != 1:
        raise ArithmeticError("binomial was not integral")
    return fr.numerator


def internal_summation_holds(k, j, n):
    """Check that the inner alternating sum collapses to its closed form.

    LHS:  sum_{t=j}^{k-1} C(n-1,t) (2k-2-t)!/(k-1-t)! C(t,j) (-1)^t
    RHS:  (-1)^(k-1) C(k-1,j) (n-1)_j (n-(k+1+j))_{k-1-j}

    Both sides are evaluated in exact integer arithmetic; returns equality.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= j <= k - 1:
        raise ValueError("j must lie in [0, k-1]")
    lhs = 0
    for t in range(j, k):
        lhs += (
            binomial_general(n - 1, t)
            * (math.factorial(2 * k - 2 - t) // math.factorial(k - 1 - t))
            * math.comb(t, j)
            * (-1) ** t
        )
    rhs = (
        (-1) ** (k - 1)
        * math.comb(k - 1, j)
        * falling_factorial(n - 1, j)
        * falling_factorial(n - (k + 1 + j), k - 1 - j)
    )
    return lhs == rhs


def surjection_count(boxes, balls):
    """Number of surjections from `balls` distinct balls onto `boxes` boxes.

    Inclusion-exclusion: sum_{w=0}^{boxes} (boxes-w)^balls C(boxes,w) (-1)^w,
    with 0^0 = 1. Zero whenever balls < boxes.
    """
    if boxes < 1:
        raise ValueError("need at least one box")
    if balls < 0:
        raise ValueError("balls must be >= 0")
    return sum(
        (boxes - w) ** balls * math.comb(boxes, w) * (-1) ** w
        for w in range(boxes + 1)
    )


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
    """(a, b) for the pair a +/- ib of multiplicity k: int components when
    both are integer-valued, else floats; ValueError if b <= 0 or k < 1."""
    if b <= 0:
        raise ValueError("not a complex pair")
    if k < 1:
        raise ValueError("multiplicity must be >= 1")
    ai, bi = int(a), int(b)
    if a == ai and b == bi:
        return ai, bi
    return float(a), float(b)


def _pair_convolution(a, b, k, n):
    """pair_convolution_series' x[n], n >= 2k, for (a, b) from _pair.

    Products in CPython's complex order, (c*pr)*qr - (c*pi)*qi and
    (c*pr)*qi + (c*pi)*qr: float data rounds as complex arithmetic would.
    """
    total_re = total_im = 0
    for m in range(k, n - k + 1):
        pr, pi = _gauss_pow(a, b, m - k)
        qr, qi = _gauss_pow(a, -b, n - m - k)
        c = math.comb(m - 1, m - k) * math.comb(n - m - 1, n - m - k)
        total_re += (c * pr) * qr - (c * pi) * qi
        total_im += (c * pr) * qi + (c * pi) * qr
    if isinstance(a, int):
        # exact Gaussian integers: any imaginary residue is a real violation
        if total_im != 0:
            raise ConjugateSymmetryError(
                f"conjugate symmetry violated in convolution: residue {total_im}"
            )
        return float(total_re)
    return _discard_imag(complex(total_re, total_im), "convolution")


def pair_convolution_series(a, b, k, n_max):
    """Quadratic-pole sequence by convolving the two conjugate pole sequences.

    x[n] = sum_{m=k}^{n-k} C(m-1,m-k) (a+ib)^(m-k)
                           C(n-m-1,n-m-k) (a-ib)^(n-m-k)

    The m <-> n-m symmetry makes the sum real; the empty sum for n < 2k gives
    the zero prefix. Integer (a, b) are evaluated exactly.
    """
    a, b = _pair(a, b, k)
    vals = [
        0.0 if n < 2 * k else _pair_convolution(a, b, k, n)
        for n in range(n_max + 1)
    ]
    return SequenceTable(tuple(vals))
