"""Parse rational-function expressions in z.

Grammar (EBNF, whitespace insignificant, implicit multiplication allowed):

    rational  = expr [ "/" expr ] ;          (* single top-level division *)
    expr      = term { ("+" | "-") term } ;
    term      = unary { [ "*" ] unary } ;
    unary     = "-" unary | power ;
    power     = atom [ "^" INTEGER ] ;
    atom      = NUMBER | "z" | "(" expr ")" ;

Exponents must be non-negative integer literals, and division may appear only
once, outside any parentheses; without it the denominator is 1. One regex
scan splits the text into token kinds and values, and one recursive descent
reads them in order by index, so an error names the first token that the
grammar cannot take; token positions are found, by a second scan, only to
report an error. The descent evaluates as it parses: each rule yields its
polynomial together with the multiplicands it folded into it. When the
denominator is a product of powers of linear or irreducible quadratic
polynomials, its exact factor structure is read off those multiplicands (less
the powers that the numerator cancels), so that inversion can bypass numeric
root finding; any other denominator, one with a reducible quadratic or a
cubic multiplicand say, is left to numeric factoring.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from fractions import Fraction

from .errors import ParseError
from .factorize import FactoredDenominator, LinearFactor, QuadraticFactor
from .pfe import RationalFunction
from .polynomial import ONE, Z, Polynomial

# leading whitespace folds into each token; "bad" takes any other non-space
# character. Trailing whitespace matches nothing, and a scan of it would retry
# at each of its positions, so callers scan text.rstrip() (the same whitespace).
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
    | (?P<name>[A-Za-z]+)
    | (?P<op>[-+*/^()])
    | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)


def _error(text, i, message, expected=()):
    """A ParseError at the i-th token, or at len(text) for the end token.
    Positions are found only here, by rescanning: the i-th match of the same
    pattern."""
    m = next(itertools.islice(_TOKEN_RE.finditer(text.rstrip()), i, None), None)
    pos = len(text) if m is None else m.start(m.lastgroup)
    line, col = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    return ParseError(message, line=line, column=col, expected=expected)


def tokenize(text):
    """The token kinds and values, as two lists that end with the kind "end".

    kind: "number" | "z" | one of + - * / ^ ( ) | "end"; the value is the
    number (an int, or a float for a literal with "." or an exponent), "z",
    the operator, or None at the end.
    """
    kinds, values = [], []
    for number, name, op, bad in _TOKEN_RE.findall(text.rstrip()):
        if op:
            kinds.append(op)
            values.append(op)
        elif number:
            kinds.append("number")
            # the number pattern leaves only "." and an exponent to tell a float
            values.append(
                float(number) if "." in number or "e" in number or "E" in number else int(number)
            )
        elif name == "z":
            kinds.append("z")
            values.append("z")
        elif name:
            raise _error(text, len(kinds), f"only variable 'z' is allowed, got {name!r}")
        else:
            raise _error(text, len(kinds), f"unexpected character {bad!r}")
    kinds.append("end")
    values.append(None)
    return kinds, values


_ATOM_START = ("number", "z", "(")
_MINUS_ONE = (Polynomial((-1,)), 1)


class _Parser:
    """Recursive descent that evaluates while it parses, reading kinds[i] and
    values[i] at the current token index i.

    Every rule returns (value, factors): the polynomial it denotes, and the
    multiplicands whose product it is, each (base, exp). A product
    concatenates its operands' factors, unary minus adds a -1 constant, "^k"
    multiplies each factor's exponent by k, and parentheses are transparent;
    a sum is one factor.
    """

    def __init__(self, text, kinds, values):
        self.text = text
        self.kinds = kinds
        self.values = values
        self.i = 0

    def fail(self, message, expected=()):
        raise _error(self.text, self.i, message, expected)

    def parse(self):
        """rational = expr [ "/" expr ], then the end of input: the numerator,
        the index of the "/" token or None, and the denominator and its
        multiplicands."""
        kinds = self.kinds
        if kinds[self.i] == "/":
            self.fail("missing numerator before '/'")
        num = self.expr()[0]
        slash, den, den_factors = None, ONE, []
        if kinds[self.i] == "/":
            slash = self.i
            self.i += 1
            if kinds[self.i] == "end":
                self.fail("missing denominator after '/'")
            den, den_factors = self.expr()
        kind = kinds[self.i]
        if kind == "/":
            self.fail("more than one top-level '/'")
        if kind == ")":
            self.fail("unbalanced ')'")
        if kind != "end":
            self.fail(
                f"unexpected token {self.values[self.i]!r}", expected=("operator", "end of input")
            )
        return num, slash, den, den_factors

    def expr(self):
        value, factors = self.term()
        kinds = self.kinds
        while kinds[self.i] in ("+", "-"):
            op = kinds[self.i]
            self.i += 1
            rhs = self.term()[0]
            value = value + rhs if op == "+" else value - rhs
            factors = [(value, 1)]
        return value, factors

    def term(self):
        value, factors = self.unary()
        kinds = self.kinds
        while True:
            kind = kinds[self.i]
            if kind == "*":
                self.i += 1
            elif kind not in _ATOM_START:  # an atom here multiplies implicitly, e.g. "2z"
                return value, factors
            rhs, more = self.unary()
            value, factors = value * rhs, factors + more

    def unary(self):
        if self.kinds[self.i] != "-":
            return self.power()
        self.i += 1
        value, factors = self.unary()
        return -value, [_MINUS_ONE, *factors]

    def power(self):
        base, factors = self.atom()
        kinds = self.kinds
        if kinds[self.i] != "^":
            return base, factors
        self.i += 1
        kind, k = kinds[self.i], self.values[self.i]
        if kind == "-":
            self.fail("negative exponent is not allowed")
        if kind != "number":
            self.fail("exponent must be an integer literal", expected=("INTEGER",))
        if not isinstance(k, int):
            self.fail("non-integer exponent is not allowed")
        self.i += 1
        # z^k directly: the repeated product gives exactly these ints
        value = Polynomial((0,) * k + (1,)) if base is Z else base**k
        # (A*B)^k is A^k*B^k: each multiplicand keeps its base
        return value, [(b, e * k) for b, e in factors]

    def atom(self):
        kind = self.kinds[self.i]
        if kind == "number":
            value = Polynomial((self.values[self.i],))
            self.i += 1
        elif kind == "z":
            self.i += 1
            value = Z
        elif kind == "(":
            self.i += 1
            value, factors = self.expr()
            if self.kinds[self.i] == "/":
                self.fail(
                    "division must appear once at the top level (write the expression as NUM/DEN)"
                )
            if self.kinds[self.i] != ")":
                self.fail("missing closing parenthesis", expected=(")",))
            self.i += 1
            return value, factors
        else:
            self.fail(
                f"unexpected token {self.values[self.i]!r}"
                if kind != "end"
                else "unexpected end of input",
                expected=("NUMBER", "'z'", "'('", "'-'"),
            )
        return value, [(value, 1)]


# -- factored-denominator extraction -----------------------------------------


def _underflowed(product, factor):
    """A float product with a nonzero factor fell below the normal float range."""
    return factor != 0 and abs(product) < sys.float_info.min


def _extract_factored(factors):
    """Exact factor structure of the monic denominator from its multiplicands
    (constants and leading coefficients are not recorded), or None to leave it
    to numeric factoring: a multiplicand of degree 3 or more, a quadratic
    reducible over the reals, or one whose float discriminant or pair is out
    of range.
    """
    origin = 0
    linears = {}
    quads = {}
    for p, exp in factors:
        if p.degree == 0 or exp == 0:
            continue
        if p.degree == 1:
            c0, c1 = p.coeff(0), p.coeff(1)
            if c1 == 1:
                r = -c0
            elif c1 == -1:
                r = c0
            else:
                r = -c0 / c1
            if r == 0:
                origin += exp
            else:
                linears[r] = linears.get(r, 0) + exp
        elif p.degree == 2:
            c0, c1, c2 = p.coeff(0), p.coeff(1), p.coeff(2)
            sq, prod = c1 * c1, 4 * c2 * c0
            disc = sq - prod
            if _underflowed(sq, c1) or _underflowed(prod, c0) or not abs(disc) < math.inf:
                return None  # a float discriminant out of range decides nothing
            if disc >= 0:
                return None
            try:
                a = -c1 / (2 * c2)
                b = math.sqrt(-disc) / (2 * abs(c2))
            except OverflowError:  # int coefficients beyond the float range
                return None
            if not (math.isfinite(a) and math.isfinite(b) and b > 0):
                return None
            key = (a, b)
            quads[key] = quads.get(key, 0) + exp
        else:
            return None

    return FactoredDenominator(
        origin,
        tuple(LinearFactor(r, u) for r, u in sorted(linears.items())),
        tuple(QuadraticFactor(a, b, k) for (a, b), k in sorted(quads.items())),
    )


# -- top level ----------------------------------------------------------------


def parse_rational_expr(text):
    """Parse text into a rational function and its denominator's exact factor
    structure: the empty one for a constant denominator (1 without "/"), and
    None when the denominator is left to numeric factoring. When the numerator
    cancels written factors, the structure is read off the factors that remain."""
    kinds, values = tokenize(text)
    if len(kinds) == 1:
        raise ParseError("empty expression", line=1, column=1, expected=("NUMBER", "'z'", "'('"))
    num, slash, den, den_factors = _Parser(text, kinds, values).parse()
    if den.is_zero:
        raise _error(text, slash, "denominator is identically zero")
    x = RationalFunction(num, den)  # checks the float range before any factor is read
    if x.den.degree < den.degree:  # the numerator cancelled a factor
        den_factors = _cancelled(num, den_factors)
    factored = _extract_factored(den_factors)
    if factored is not None and factored.degree != x.den.degree:
        factored = None
    return x, factored


def _cancelled(num, factors):
    """The multiplicands with each exponent lowered by the number of times,
    up to that exponent, its base divides what is left of num exactly (over
    the rationals, taking the bases in turn)."""
    rest = Polynomial([Fraction(c) for c in num.coeffs])
    out = []
    for base, exp in factors:
        if base.degree > 0:
            b = Polynomial([Fraction(c) for c in base.coeffs])
            while exp:
                q, r = divmod(rest, b)
                if not r.is_zero:
                    break
                rest, exp = q, exp - 1
        out.append((base, exp))
    return out


def batch_expressions(text):
    """Expressions from batch text: one per line, '#' starts a comment."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body))
    return out
