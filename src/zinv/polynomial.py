"""Dense univariate polynomial arithmetic over real and complex scalars.

Coefficients are stored in ascending order: ``coeffs[i]`` multiplies ``z**i``.
Integer coefficients stay exact through every operation (including division by
a monic denominator); float and complex coefficients follow ordinary IEEE
arithmetic. Only exact zeros are trimmed: a float coefficient is the rational
it denotes, however small, so 1e-13 is not the zero polynomial.
"""

from __future__ import annotations

import math


def _fmt_scalar(c):
    if isinstance(c, complex):
        return f"({c!r})"
    if isinstance(c, float) and c.is_integer() and abs(c) < 1e15:
        return str(int(c))
    return repr(c) if isinstance(c, float) else str(c)


class Polynomial:
    """Immutable dense polynomial in one variable.

    The leading coefficient is nonzero (trailing exact zeros are trimmed at
    construction, for every scalar type); the zero polynomial has an empty
    coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = tuple(coeffs)
        n = len(cs)
        while n and cs[n - 1] == 0:
            n -= 1
        self.coeffs = cs if n == len(cs) else cs[:n]

    @property
    def degree(self):
        """Degree of the polynomial; -1 stands in for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def norm_inf(self):
        return max((abs(c) for c in self.coeffs), default=0)

    def coeff(self, i):
        """Coefficient of z**i, 0 beyond the stored degree."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def is_real(self):
        return all(not isinstance(c, complex) for c in self.coeffs)

    # -- evaluation and calculus --------------------------------------

    def __call__(self, z0):
        """Horner evaluation at z0; complex z0 on a real polynomial promotes."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * z0 + c
        return acc

    def derivative(self, order=1):
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        cs = self.coeffs
        for _ in range(order):
            cs = tuple(i * cs[i] for i in range(1, len(cs)))
        return Polynomial(cs)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        # a missing coefficient is the int 0, and adding it turns a -0.0 into 0.0
        return Polynomial([x + y for x, y in zip(a, b)] + [x + 0 for x in a[len(b) :]])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        return self + (-other)

    def __rsub__(self, other):
        return Polynomial((other,)) - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial(tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return Polynomial(())
        bs = other.coeffs
        out = [0] * (len(self.coeffs) + len(bs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for k, b in enumerate(bs, i):
                out[k] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        """self**k by repeated multiplication (k >= 0)."""
        return math.prod([self] * k, start=ONE)

    def __divmod__(self, den):
        """Quotient and remainder; exact in the scalar arithmetic used.

        Monic (or leading -1) denominators never divide scalars, so integer
        inputs stay integer.
        """
        if not isinstance(den, Polynomial):
            den = Polynomial((den,))
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        dq = den.degree
        if self.degree < dq:
            return Polynomial(()), self
        *low, lead = den.coeffs
        rem = list(self.coeffs)
        quo = [0] * (self.degree - dq + 1)
        for i in range(self.degree - dq, -1, -1):
            c = rem[i + dq]
            if c == 0:
                continue
            if lead == 1:
                pass
            elif lead == -1:
                c = -c
            else:
                c = c / lead
            quo[i] = c
            # rem[i + dq] is eliminated and never read again: only the lower terms update
            for k, d in enumerate(low, i):
                rem[k] -= c * d
        return Polynomial(quo), Polynomial(rem[:dq])

    def __floordiv__(self, den):
        return divmod(self, den)[0]

    def __mod__(self, den):
        return divmod(self, den)[1]

    def shift(self, k):
        """Multiply by z**k (k >= 0)."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        if self.is_zero:
            return self
        return Polynomial((0,) * k + self.coeffs)

    # -- comparisons / display ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if isinstance(c, complex):
                sign, mag = "+", _fmt_scalar(c)
            else:
                sign = "-" if c < 0 else "+"
                mag = _fmt_scalar(-c if c < 0 else c)
            if i == 0:
                body = mag
            else:
                var = "z" if i == 1 else f"z^{i}"
                body = var if mag == "1" else f"{mag}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


ONE = Polynomial((1,))
Z = Polynomial((0, 1))
