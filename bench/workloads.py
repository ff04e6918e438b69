"""Seeded workload corpora: expression text for the program, exact data for scoring.

Each case is written as the text a user would type. The exact rational
function the text denotes (every literal is an int or a float, hence a dyadic
rational) is kept beside it, so ground truth never depends on zinv's parser. The
generators live here, not in zinv.corpus, so that a change to the program
cannot change the inputs it is measured on.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from exact import poly_mul, poly_pow

# ms-scale closed-loop workloads; N is the largest index each request asks for
COMPARE_N = 50
INVERT_N = 100  # indices over which invert's returned terms are scored
TABLE_N = 5000


@dataclass(frozen=True)
class Case:
    text: str  # the expression, exactly as passed to the CLI
    argv: tuple  # full argument vector for zinv.cli.main
    num: tuple  # exact numerator, ascending Fractions
    den: tuple  # exact denominator, ascending Fractions
    n_ref: int  # largest index of the exact reference
    shape: str  # factor structure label, for reports


def _lit(v):
    """Literal for an int or float; a float literal round-trips to exactly that float."""
    return str(abs(v)) if isinstance(v, int) else repr(abs(float(v)))


def poly_text(coeffs):
    """Descending-power text of an ascending coefficient list."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        body = "" if i == 0 else ("z" if i == 1 else f"z^{i}")
        term = _lit(c) if not body else (body if abs(c) == 1 else f"{_lit(c)}*{body}")
        sign = ("-" if c < 0 else "") if not parts else (" - " if c < 0 else " + ")
        parts.append(sign + term)
    return "".join(parts) or "0"


def _power(text, k):
    return f"({text})" if k == 1 else f"({text})^{k}"


class _Den:
    """A denominator built factor by factor: text and exact polynomial."""

    def __init__(self):
        self.parts = []
        self.exact = [Fraction(1)]

    def linear(self, r, u):
        r = float(r)
        self.parts.append(_power(poly_text([-r, 1.0]), u))
        self.exact = poly_mul(self.exact, poly_pow([-Fraction(r), Fraction(1)], u))

    def quadratic(self, c1, c0, k):
        """(z^2 - c1 z + c0)^k with c1^2 < 4 c0."""
        c1, c0 = float(c1), float(c0)
        if not c1 * c1 < 4 * c0:
            raise ValueError("reducible quadratic")
        self.parts.append(_power(poly_text([c0, -c1, 1.0]), k))
        self.exact = poly_mul(
            self.exact, poly_pow([Fraction(c0), -Fraction(c1), Fraction(1)], k)
        )

    def int_factor(self, coeffs, k):
        self.parts.append(_power(poly_text(coeffs), k))
        self.exact = poly_mul(self.exact, poly_pow([Fraction(c) for c in coeffs], k))

    @property
    def degree(self):
        return len(self.exact) - 1

    def factored_text(self):
        return "*".join(self.parts)

    def expanded(self):
        """Expanded text and the exact polynomial that text denotes."""
        floats = [float(c) for c in self.exact]
        return poly_text(floats), tuple(Fraction(c) for c in floats)


def _place(rng, locations, make, separation):
    for _ in range(1000):
        cand = make()
        if all(
            abs(cand - w) >= separation and abs(cand - w.conjugate()) >= separation
            for w in locations
        ):
            locations.append(cand)
            return cand
    raise RuntimeError("could not place separated poles")


def _quad_coeffs(w, quantum=None):
    """(c1, c0) of z^2 - c1 z + c0 with roots w, conj(w)."""
    c1, c0 = 2 * w.real, abs(w) ** 2
    if quantum is None:
        return round(c1, 6), round(c0, 6)
    return round(c1 / quantum) * quantum, round(c0 / quantum) * quantum


def _numerator(rng, degree):
    """Coefficients in [-3, 3], leading one at least 0.5 in magnitude."""
    coeffs = [round(rng.uniform(-3.0, 3.0), 6) for _ in range(degree)]
    coeffs.append(rng.choice((-1, 1)) * round(rng.uniform(0.5, 3.0), 6))
    return coeffs


def _case(argv_head, text, num, den_exact, n_ref, shape, argv_tail):
    return Case(
        text,
        (*argv_head, text, *argv_tail),
        tuple(Fraction(c) for c in num),
        tuple(den_exact),
        n_ref,
        shape,
    )


def fuzz_compare(rng, count=300):
    """The default zinv fuzz profile: degree <= 8, multiplicity <= 3, moduli 0.3-1.5.

    Denominators are written factored, so the parser hands `compare` the
    exact factors as `compare --fuzz` does.
    """
    cases = []
    for _ in range(count):
        while True:
            n_lin, n_quad = rng.randint(0, 2), rng.randint(0, 2)
            if n_lin + n_quad and n_lin + 2 * n_quad <= 8:
                break
        locations = []
        lin = []
        for _ in range(n_lin):
            w = _place(rng, locations, lambda: complex(
                rng.choice((-1, 1)) * rng.uniform(0.3, 1.5), 0.0), 0.3)
            lin.append([round(w.real, 6), 1])
        quad = []
        for _ in range(n_quad):
            w = _place(rng, locations, lambda: cmath.rect(
                rng.uniform(0.3, 1.5), rng.uniform(0.2, math.pi - 0.2)), 0.3)
            quad.append([w, 1])
        degree = n_lin + 2 * n_quad
        for f in lin:
            extra = max(0, min(rng.randint(0, 2), 8 - degree))
            f[1] += extra
            degree += extra
        for f in quad:
            extra = max(0, min(rng.randint(0, 2), (8 - degree) // 2))
            f[1] += extra
            degree += 2 * extra
        den = _Den()
        for r, u in lin:
            den.linear(r, u)
        for w, k in quad:
            den.quadratic(*_quad_coeffs(w), k)
        num = _numerator(rng, rng.randint(0, den.degree))
        text = f"({poly_text(num)})/({den.factored_text()})"
        shape = f"lin{[u for _, u in lin]}quad{[k for _, k in quad]}"
        cases.append(_case(("compare",), text, num, den.exact, COMPARE_N, shape,
                           ("--n", str(COMPARE_N), "--format", "json")))
    return cases


# (degree, pair multiplicity, factored?) classes, cycled in this order
HIGHDEG_CLASSES = tuple(
    (deg, k, factored)
    for deg in (16, 24)
    for k in (1, 2)
    for factored in (True, False)
)


def highdeg_invert(rng):
    """Degrees 16 and 24 from simple or double conjugate pairs, moduli 0.5-1.1.

    Half the cases write the denominator factored (the parser supplies the
    factors), half expanded (the numeric root ladder runs). Numerators have
    full degree q-1, so every expansion term is present in every case.
    Degree 24 costs about 4x degree 16; with six cases per degree-16 class
    and four per degree-24 class the median request falls inside one mode
    rather than between the two.
    """
    cases = []
    for rep in range(6):
        for deg, k, factored in HIGHDEG_CLASSES:
            if deg == 24 and rep >= 4:
                continue
            locations = []
            den = _Den()
            for _ in range(deg // (2 * k)):
                w = _place(rng, locations, lambda: cmath.rect(
                    rng.uniform(0.5, 1.1), rng.uniform(0.15, math.pi - 0.15)), 0.2)
                den.quadratic(*_quad_coeffs(w), k)
            num = _numerator(rng, deg - 1)
            if factored:
                den_text, den_exact = den.factored_text(), den.exact
            else:
                den_text, den_exact = den.expanded()
            text = f"({poly_text(num)})/({den_text})"
            shape = f"deg{deg}-k{k}-{'factored' if factored else 'expanded'}"
            cases.append(_case(("invert",), text, num, den_exact, INVERT_N, shape,
                               ("--format", "json")))
    return cases


# conjugate-pair multiplicities and real-pole multiplicities per table-float shape
TABLE_FLOAT_SHAPES = (
    ((2,), ()),
    ((3,), ()),
    ((2, 1), ()),
    ((2, 2), ()),
    ((3,), (2,)),
    ((2,), (1, 1)),
    ((3, 1), ()),
    ((2, 1), (2,)),
    ((2, 1, 1), ()),
)

# pole data on a 2^-8 grid keeps the exact reference's integers short at
# N = 5000 (its cost grows with the square of the bits per coefficient); the
# data is still non-integer, so zinv evaluates it on the float branch
_QUANTUM = 2.0**-8


def table_float(rng):
    """Repeated conjugate pairs (k = 2-3) with float pole data, moduli 0.9-1.05.

    Numerators have full degree q-1: a short numerator drops expansion terms
    and makes a case several times cheaper, which would make the cost of a
    corpus hinge on the seed.
    """
    cases = []
    for pairs, reals in TABLE_FLOAT_SHAPES:
        locations = []
        den = _Den()
        for k in pairs:
            w = _place(rng, locations, lambda: cmath.rect(
                rng.uniform(0.9, 1.05), rng.uniform(0.2, math.pi - 0.2)), 0.2)
            den.quadratic(*_quad_coeffs(w, _QUANTUM), k)
        for u in reals:
            w = _place(rng, locations, lambda: complex(
                rng.choice((-1, 1)) * rng.uniform(0.9, 1.05), 0.0), 0.2)
            den.linear(round(w.real / _QUANTUM) * _QUANTUM, u)
        num = _numerator(rng, den.degree - 1)
        text = f"({poly_text(num)})/({den.factored_text()})"
        cases.append(_case(("table",), text, num, den.exact, TABLE_N,
                           f"pairs{list(pairs)}reals{list(reals)}",
                           ("--n", str(TABLE_N), "--format", "json")))
    return cases


# multiplicities of (z^2+1), (z-1), (z+1) per table-int shape
TABLE_INT_SHAPES = (
    (2, 0, 0),
    (3, 0, 0),
    (2, 1, 0),
    (2, 0, 2),
    (3, 2, 0),
    (1, 2, 1),
    (2, 2, 0),
    (4, 0, 0),
    (3, 1, 0),
)


def table_int(rng):
    """Integer coefficients, unit-modulus poles: (z^2+1)^k (z-1)^u (z+1)^v.

    Numerators have full degree q-1 with coefficients in [-50, 50]: small
    integers often cancel an expansion term exactly, which makes a case
    cheaper and the cost of a corpus hinge on the seed. Every x[n] is an
    integer below 2^53, so the exact series is exactly a float.
    """
    cases = []
    for k, u, v in TABLE_INT_SHAPES:
        den = _Den()
        den.int_factor([1, 0, 1], k)
        if u:
            den.int_factor([-1, 1], u)
        if v:
            den.int_factor([1, 1], v)
        num = [rng.randint(-50, 50) for _ in range(den.degree - 1)]
        num.append(rng.choice((-1, 1)) * rng.randint(1, 50))
        text = f"({poly_text(num)})/({den.factored_text()})"
        cases.append(_case(("table",), text, num, den.exact, TABLE_N,
                           f"quad{k}-lin{u}-lin{v}",
                           ("--n", str(TABLE_N), "--format", "json")))
    return cases


# The tail percentile is fixed per workload, so that its meaning does not move
# with the sample count of a run: the highest of p80/p90/p95 that keeps at least
# ten samples beyond it at the request rates of a 15 s run on this code.
TAIL_PERCENTILE = {
    "fuzz-compare": 95,
    "highdeg-invert": 90,
    "table-float": 80,
    "table-int": 80,
}

WORKLOADS = {
    "fuzz-compare": fuzz_compare,
    "highdeg-invert": highdeg_invert,
    "table-float": table_float,
    "table-int": table_int,
}


def make_cases(workload, seed):
    """The workload's corpus for this seed; the same seed gives the same cases."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
