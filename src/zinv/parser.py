"""Parse rational-function expressions in z.

Grammar (EBNF, whitespace insignificant, implicit multiplication allowed):

    rational  = expr [ "/" expr ] ;          (* single top-level division *)
    expr      = term { ("+" | "-") term } ;
    term      = unary { [ "*" ] unary } ;
    unary     = "-" unary | power ;
    power     = atom [ "^" INTEGER ] ;
    atom      = NUMBER | "z" | "(" expr ")" ;

Exponents must be non-negative integer literals, and division may appear only
once, outside any parentheses; without it the denominator is 1. One recursive
descent reads the tokens in order, so an error names the first token that the
grammar cannot take, and it evaluates as it parses: each rule yields its
polynomial together with the multiplicands it folded into it. When the
denominator is a product of powers of linear or irreducible quadratic
polynomials, its exact factor structure is read off those multiplicands, so
that inversion can bypass numeric root finding; any other denominator, one
with a reducible quadratic or a cubic multiplicand say, is left to numeric
factoring.
"""

from __future__ import annotations

import math
import re
import sys
from collections import namedtuple

from .errors import ParseError
from .factorize import FactoredDenominator, LinearFactor, QuadraticFactor
from .pfe import RationalFunction
from .polynomial import ONE, Z, Polynomial

_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z]+)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


# kind: "number" | "z" | one of + - * / ^ ( ) | "end"
Token = namedtuple("Token", "kind value pos")


def _error(text, pos, message, expected=()):
    line, col = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    return ParseError(message, line=line, column=col, expected=expected)


def tokenize(text):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise _error(text, m.start(), f"unexpected character {m.group()!r}")
        if kind == "number":
            s = m.group()
            # the number pattern leaves only "." and an exponent to tell a float
            value = float(s) if "." in s or "e" in s or "E" in s else int(s)
            tokens.append(Token("number", value, m.start()))
        elif kind == "name":
            if m.group() != "z":
                raise _error(
                    text, m.start(), f"only variable 'z' is allowed, got {m.group()!r}"
                )
            tokens.append(Token("z", "z", m.start()))
        else:
            tokens.append(Token(m.group(), m.group(), m.start()))
    tokens.append(Token("end", None, len(text)))
    return tokens


_ATOM_START = ("number", "z", "(")
_MINUS_ONE = (Polynomial((-1,)), 1)


class _Parser:
    """Recursive descent that evaluates while it parses.

    Every rule returns (value, factors): the polynomial it denotes, and the
    multiplicands whose product it is, each (base, exp). A product
    concatenates its operands' factors, unary minus adds a -1 constant, "^k"
    multiplies each factor's exponent by k, and parentheses are transparent;
    a sum is one factor.
    """

    def __init__(self, text, tokens):
        self.text = text
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message, expected=()):
        raise _error(self.text, self.peek().pos, message, expected)

    def parse(self):
        """rational = expr [ "/" expr ], then the end of input: the numerator,
        the "/" token or None, and the denominator and its multiplicands."""
        if self.peek().kind == "/":
            self.fail("missing numerator before '/'")
        num = self.expr()[0]
        slash, den, den_factors = None, ONE, []
        if self.peek().kind == "/":
            slash = self.next()
            if self.peek().kind == "end":
                self.fail("missing denominator after '/'")
            den, den_factors = self.expr()
        tok = self.peek()
        if tok.kind == "/":
            self.fail("more than one top-level '/'")
        if tok.kind == ")":
            self.fail("unbalanced ')'")
        if tok.kind != "end":
            self.fail(f"unexpected token {tok.value!r}", expected=("operator", "end of input"))
        return num, slash, den, den_factors

    def expr(self):
        value, factors = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()[0]
            value = value + rhs if op == "+" else value - rhs
            factors = [(value, 1)]
        return value, factors

    def term(self):
        value, factors = self.unary()
        while True:
            kind = self.peek().kind
            if kind == "*":
                self.next()
            elif kind not in _ATOM_START:  # an atom here multiplies implicitly, e.g. "2z"
                return value, factors
            rhs, more = self.unary()
            value, factors = value * rhs, factors + more

    def unary(self):
        if self.peek().kind != "-":
            return self.power()
        self.next()
        value, factors = self.unary()
        return -value, [_MINUS_ONE, *factors]

    def power(self):
        base, factors = self.atom()
        if self.peek().kind != "^":
            return base, factors
        self.next()
        tok = self.peek()
        if tok.kind == "-":
            raise _error(self.text, tok.pos, "negative exponent is not allowed")
        if tok.kind != "number":
            self.fail("exponent must be an integer literal", expected=("INTEGER",))
        if not isinstance(tok.value, int):
            raise _error(self.text, tok.pos, "non-integer exponent is not allowed")
        self.next()
        k = tok.value
        # z^k directly: the repeated product gives exactly these ints
        value = Polynomial((0,) * k + (1,)) if base is Z else base**k
        # (A*B)^k is A^k*B^k: each multiplicand keeps its base
        return value, [(b, e * k) for b, e in factors]

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            value = Polynomial((tok.value,))
        elif tok.kind == "z":
            self.next()
            value = Z
        elif tok.kind == "(":
            self.next()
            value, factors = self.expr()
            if self.peek().kind == "/":
                self.fail(
                    "division must appear once at the top level (write the expression as NUM/DEN)"
                )
            if self.peek().kind != ")":
                self.fail("missing closing parenthesis", expected=(")",))
            self.next()
            return value, factors
        else:
            self.fail(
                f"unexpected token {tok.value!r}" if tok.kind != "end" else "unexpected end of input",
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
    None when the denominator is left to numeric factoring."""
    tokens = tokenize(text)
    if len(tokens) == 1:
        raise _error(text, 0, "empty expression", expected=("NUMBER", "'z'", "'('"))
    num, slash, den, den_factors = _Parser(text, tokens).parse()
    if den.is_zero:
        raise _error(text, slash.pos, "denominator is identically zero")
    factored = _extract_factored(den_factors)
    x = RationalFunction(num, den)
    # x.den is shorter than den when the numerator cancelled a factor: numeric factoring
    if factored is not None and not factored.degree == x.den.degree == den.degree:
        factored = None
    return x, factored


def batch_expressions(text):
    """Expressions from batch text: one per line, '#' starts a comment."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body))
    return out
