"""The text front end against the exact rational each text denotes.

A seeded generator writes texts in the README grammar: int, short and
full-repr float literals, -(...), nested (A*B)^k, implicit products and random
spacing, with denominators of degree <= 12, factored or expanded. Beside each
text it keeps the exact numerator and denominator the text denotes, as
ascending Fraction coefficients (every literal is an int or a float, hence a
dyadic rational). `invert` and `table` must exit 0 with JSON that parses, and
unless `invert` warns, the table must match exact long division of that
rational. The judge is a Fraction recurrence on the generated coefficients, so
it never runs the parser.

Texts that must fail are made from generated ones by one token edit: a token
deleted, or one of / ( ) ^ * + inserted. `invert` must exit 0, 1 or 2 with no
exception escaping, a nonzero exit must write one `error: ` line, and a parse
error (exit 2) must name the column of the token the grammar cannot take.
"""

import cmath
import json
import random
import re
from fractions import Fraction

from zinv.cli import main

N_MAX = 30
TEXTS = 300
SEED = 9
MAX_DEGREE = 12
MIN_SEPARATION = 0.15  # between poles, conjugates included
TOL = 1e-9  # of max(1, max|x[n]|)
MALFORMED = 300
EDIT_TOKENS = ("/", "(", ")", "^", "*", "+")


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _pow(p, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = _mul(out, p)
    return out


def _literal(rng, v):
    """A literal near v > 0 (int, short float, exponent or full repr) and the
    exact value it denotes."""
    kind = rng.randrange(4)
    if kind == 0 and round(v) >= 1:
        text = str(round(v))
    elif kind == 1:
        text = repr(round(v, rng.randint(1, 3)))
    elif kind == 2:
        text = f"{v * 10:.{rng.randint(1, 4)}f}e-1"
    else:
        text = repr(v)
    return text, Fraction(int(text) if text.isdigit() else float(text))


class _Text:
    """One generated text and the exact rational it denotes."""

    def __init__(self, rng):
        self.rng = rng
        self.poles = []
        den, self.den = self._denominator()
        num, self.num = self._numerator(len(self.den) - 1)
        self.tokens = [*num, "/", *den]
        self.text = self._spaced(self.tokens)

    def _spaced(self, tokens):
        # whitespace is insignificant between tokens; a token is never split
        return "".join(t + self.rng.choice(("", "", "", " ")) for t in tokens).strip()

    def _separated(self, poles):
        ok = all(
            abs(p - w) >= MIN_SEPARATION and abs(p - w.conjugate()) >= MIN_SEPARATION
            for p in poles
            for w in self.poles
        )
        if ok:
            self.poles += poles
        return ok

    def _linear(self):
        rng = self.rng
        for _ in range(20):
            sign = rng.choice((1, -1))
            if rng.random() < 0.25:  # (c z - d), root d/c
                c = rng.randint(2, 3)
                d_text, d = _literal(rng, rng.uniform(0.4, 3.0))
                root = sign * d / c
                tokens = ["(", str(c), *rng.choice((["*"], [])), "z", "-" if sign > 0 else "+",
                          d_text, ")"]
                poly = [-sign * d, Fraction(c)]
            else:
                r_text, r = _literal(rng, rng.uniform(0.2, 1.5))
                root = sign * r
                tokens = ["(", "z", "-" if sign > 0 else "+", r_text, ")"]
                poly = [-root, Fraction(1)]
            if self._separated([complex(root)]):
                return tokens, poly, 1
        return None

    def _quadratic(self):
        rng = self.rng
        for _ in range(20):
            a, b = rng.uniform(-1.2, 1.2), rng.uniform(0.25, 1.2)
            if not 0.2 <= abs(complex(a, b)) <= 1.5:
                continue
            p_text, p = _literal(rng, abs(2 * a))
            q_text, q = _literal(rng, a * a + b * b)
            p = p if a < 0 else -p  # z^2 - 2a z + (a^2 + b^2)
            if p * p - 4 * q > -0.05:
                continue
            root = (-p + cmath.sqrt(p * p - 4 * q)) / 2
            if self._separated([complex(root)]):
                tokens = ["(", "z", "^", "2"]
                if p:
                    tokens += ["+" if p > 0 else "-", p_text, *rng.choice((["*"], [])), "z"]
                return [*tokens, "+", q_text, ")"], [q, p, Fraction(1)], 2
        return None

    def _origin(self, k):
        if not self._separated([0j]):
            return None
        return (["z"] if k == 1 else ["z", "^", str(k)]), [Fraction(0)] * k + [Fraction(1)], k

    def _factors(self, powers):
        """Factors (tokens, exact polynomial, degree) whose degrees sum to at
        most MAX_DEGREE; without powers, each root but the origin is simple."""
        rng = self.rng
        factors, degree = [], 0
        for _ in range(rng.randint(1, 5)):
            kind = rng.random()
            if kind < 0.1:
                f = self._origin(rng.randint(1, 2))
            elif kind < 0.5:
                f = self._linear()
            else:
                f = self._quadratic()
            if f is None or degree + f[2] > MAX_DEGREE:
                continue
            k = rng.choice((1, 1, 2, 3)) if powers and f[0][0] == "(" else 1
            if k > 1 and degree + k * f[2] <= MAX_DEGREE:
                f = ([*f[0], "^", str(k)], _pow(f[1], k), k * f[2])
            factors.append(f)
            degree += f[2]
        if powers and len(factors) >= 2 and rng.random() < 0.3:  # (A*B)^k
            (ta, pa, da), (tb, pb, db) = factors.pop(), factors.pop()
            k = rng.randint(1, 3)
            while k > 1 and degree + (k - 1) * (da + db) > MAX_DEGREE:
                k -= 1
            tokens = ["(", *ta, *self._product_sep(tb), *tb, ")"]
            tokens += ["^", str(k)] if k > 1 else []
            factors.append((tokens, _pow(_mul(pa, pb), k), k * (da + db)))
            degree += (k - 1) * (da + db)
        if not factors:
            return [(["(", "z", "-", "0.5", ")"], [Fraction(-1, 2), Fraction(1)], 1)]
        return factors

    def _product_sep(self, next_tokens):
        # an implicit product must not glue two numbers or read "-" as a minus sign
        if next_tokens[0][0].isdigit() or next_tokens[0] == "-":
            return ["*"]
        return self.rng.choice((["*"], [], [], [" "]))

    def _product(self, units):
        tokens, poly = [], [Fraction(1)]
        for i, (t, p, _) in enumerate(units):
            if i:
                tokens += self._product_sep(t)
            tokens += t
            poly = _mul(poly, p)
        return tokens, poly

    def _denominator(self):
        rng = self.rng
        expanded = rng.random() < 0.25
        factors = self._factors(powers=not expanded)
        rng.shuffle(factors)
        if expanded:
            # simple roots, each coefficient written as the float nearest the product's
            poly = [Fraction(float(c)) for c in self._product(factors)[1]]
            return self._expanded(poly), poly
        if rng.random() < 0.3:
            c_text, c = _literal(rng, rng.uniform(0.5, 4.0))
            factors.insert(0, ([c_text], [c], 0))
        if rng.random() < 0.2:  # -(...) on the first factor
            t, p, d = factors[0]
            factors[0] = (["-", *t], [-c for c in p], d)
        tokens, poly = self._product(factors)
        return (["(", *tokens, ")"] if rng.random() < 0.3 else tokens), poly

    def _expanded(self, poly):
        """Tokens of poly (ascending coefficients, each a float's exact value),
        written in descending powers."""
        rng = self.rng
        tokens = []
        for k in range(len(poly) - 1, -1, -1):
            c = poly[k]
            if c == 0:
                continue
            if c < 0 or tokens:
                tokens.append("-" if c < 0 else "+")
            mag = abs(c)
            whole = mag.denominator == 1 and rng.random() < 0.5
            text = str(int(mag)) if whole else repr(float(mag))
            power = [] if k == 0 else ["z"] if k == 1 else ["z", "^", str(k)]
            if not power:
                tokens.append(text)
            elif mag != 1 or rng.random() < 0.2:
                tokens += [text, *rng.choice((["*"], [], [" "])), *power]
            else:
                tokens += power
        return ["(", *tokens, ")"] if self.rng.random() < 0.5 else tokens

    def _numerator(self, q):
        rng = self.rng
        shape = rng.random()
        if shape < 0.2:
            text, c = _literal(rng, rng.uniform(0.5, 4.0))
            return [text], [c]
        if shape < 0.4:  # a product of linear factors, maybe negated
            units = []
            for _ in range(rng.randint(1, max(1, min(q, 3)))):
                sign = rng.choice((1, -1))
                r_text, r = _literal(rng, rng.uniform(0.1, 2.0))
                units.append((["(", "z", "-" if sign > 0 else "+", r_text, ")"],
                              [-sign * r, Fraction(1)], 1))
            tokens, poly = self._product(units)
            if rng.random() < 0.3:
                return ["-", "(", *tokens, ")"], [-c for c in poly]
            return tokens, poly
        degree = rng.randint(0, q)
        poly = [Fraction(0)] * degree + [Fraction(1)]
        for k in range(degree + 1):
            if k == degree or rng.random() < 0.7:
                text, c = _literal(rng, rng.uniform(0.1, 5.0))
                poly[k] = c * rng.choice((1, -1))
        return self._expanded(poly), poly


def _series(num, den, n_max):
    """x[0..n_max] of num/den (deg num <= deg den) by exact long division in z^-1."""
    q = len(den) - 1
    head = [num[q - i] if q - i < len(num) else Fraction(0) for i in range(q + 1)]
    xs = []
    for n in range(n_max + 1):
        acc = head[n] if n <= q else Fraction(0)
        for i in range(1, min(n, q) + 1):
            acc -= den[q - i] * xs[n - i]
        xs.append(acc / den[q])
    return xs


def _json_of(argv, text, capsys):
    # after "--", a text that starts with "-" is not read as an option
    code = main([*argv, "--format", "json", "--", text])
    out, err = capsys.readouterr()
    assert code == 0, (argv, text, err)
    return json.loads(out)


def _judge(text, num, den, capsys):
    """(failure, warned): failure is None when text inverts and tabulates
    within TOL of exact long division; a warned text's values go unjudged."""
    warned = bool(_json_of(["invert"], text, capsys)["warnings"])
    values = _json_of(["table", "--n", str(N_MAX)], text, capsys)["values"]
    if warned:
        return None, True
    exact = _series(num, den, N_MAX)
    scale = max(1, *map(abs, exact))
    worst = max(abs(Fraction(v) - x) for v, x in zip(values, exact)) / scale
    return (None if worst <= TOL else f"{text}: error {float(worst):.3g} of scale"), False


def _edited(rng, t):
    """t's text after one token edit: a token deleted, or one of EDIT_TOKENS inserted."""
    tokens = list(t.tokens)
    if rng.random() < 0.5:
        del tokens[rng.randrange(len(tokens))]
    else:
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(EDIT_TOKENS))
    return t._spaced(tokens)


def _exit_fault(text, capsys):
    """(exit code, fault) of `invert` on text; fault is None when it exits as
    the README says: 0, 1 or 2, one `error: ` line on a nonzero exit, and on
    exit 2 a column where the named token is written, or one past the end for
    the end of input."""
    try:
        code = main(["invert", "--", text])
    except (Exception, SystemExit) as exc:
        capsys.readouterr()
        return None, f"{text!r}: {exc!r} escaped"
    lines = capsys.readouterr().err.splitlines()
    if code == 0:
        return code, None
    if code not in (1, 2) or len(lines) != 1 or not lines[0].startswith("error: "):
        return code, f"{text!r}: exit {code} with stderr {lines}"
    if code == 1:
        return code, None
    at = re.search(r" at line 1, column (\d+)", lines[0])
    if at is None:
        return code, f"{text!r}: {lines[0]} names no line and column"
    column = int(at[1])
    token = re.match(r"error: unexpected token '(.*)' at line", lines[0])
    if token and not text[column - 1 :].startswith(token[1]):
        return code, f"{text!r}: {lines[0]} but column {column} reads {text[column - 1 :]!r}"
    if "unexpected end of input" in lines[0] and column != len(text) + 1:
        return code, f"{text!r}: {lines[0]} but the input ends at column {len(text) + 1}"
    return code, None


def _texts(seed, count):
    rng = random.Random(seed)
    return [_Text(rng) for _ in range(count)]


class TestTextFuzz:
    def test_generated_texts_against_exact_long_division(self, capsys):
        failures, warned = [], 0
        for t in _texts(SEED, TEXTS):
            failure, w = _judge(t.text, t.num, t.den, capsys)
            warned += w
            if failure is not None:
                failures.append(failure)
        assert failures == []
        assert warned < TEXTS // 10  # the judge saw most of the texts

    def test_small_amplitude_at_the_largest_pole(self, capsys):
        # a 4e-14*3^(n-1) term that dominates by n = 30 must not be dropped
        num = [Fraction(-2.9999999999999), Fraction(1)]
        den = _mul([Fraction(-3), Fraction(1)], [Fraction(-1, 2), Fraction(1)])
        failure, warned = _judge("(z-2.9999999999999)/((z-3)*(z-0.5))", num, den, capsys)
        assert (failure, warned) == (None, False)

    def test_one_token_edits_fail_cleanly(self, capsys):
        rng = random.Random(SEED)
        faults, codes = [], []
        for t in _texts(SEED + 1, MALFORMED):
            code, fault = _exit_fault(_edited(rng, t), capsys)
            codes.append(code)
            if fault is not None:
                faults.append(fault)
        assert faults == []
        assert codes.count(2) > MALFORMED // 2  # most edits break the grammar
