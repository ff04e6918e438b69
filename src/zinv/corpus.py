"""Seeded random rational functions for fuzz comparison and property tests.

Denominators are built directly from well-separated factor structures (so the
true factorization is known); random_rational says how the poles are drawn.
"""

from __future__ import annotations

import math

from .factorize import FactoredDenominator, LinearFactor, QuadraticFactor
from .pfe import RationalFunction
from .polynomial import Polynomial

DEFAULT_MIN_MODULUS = 0.3
DEFAULT_MAX_MODULUS = 1.5
DEFAULT_MAX_DEGREE = 8
MIN_SEPARATION = 0.3


def random_rational(
    rng,
    max_degree=DEFAULT_MAX_DEGREE,
    min_modulus=DEFAULT_MIN_MODULUS,
    max_modulus=DEFAULT_MAX_MODULUS,
    max_mult=3,
):
    """One random proper rational function with a known factorization.

    Returns (x, factored), poles at least MIN_SEPARATION apart. A real pole's modulus
    is U(min_modulus, max_modulus); a pair, r*(cos t1 + i*sin t2) with r so drawn and
    t1, t2 two independent U(0.2, pi-0.2) angles, has modulus 0.2r to 1.4r.
    """
    while True:
        n_lin = rng.randint(0, 2)
        n_quad = rng.randint(0, 2)
        if n_lin + n_quad and n_lin + 2 * n_quad <= max_degree:
            break

    locations = []  # complex, upper half for quads

    def place(make):
        for _ in range(200):
            cand = make()
            if all(
                abs(cand - w) >= MIN_SEPARATION
                and abs(cand - w.conjugate()) >= MIN_SEPARATION
                for w in locations
            ):
                locations.append(cand)
                return cand
        raise RuntimeError("could not place separated poles")

    linears = []
    for _ in range(n_lin):
        r = place(
            lambda: complex(
                rng.choice((-1, 1)) * rng.uniform(min_modulus, max_modulus), 0.0
            )
        ).real
        linears.append([r, 1])
    quads = []
    for _ in range(n_quad):
        w = place(
            lambda: rng.uniform(min_modulus, max_modulus)
            * complex(
                math.cos(rng.uniform(0.2, math.pi - 0.2)),
                math.sin(rng.uniform(0.2, math.pi - 0.2)),
            )
        )
        quads.append([w.real, w.imag, 1])

    # grow multiplicities while the degree budget allows
    degree = n_lin + 2 * n_quad
    for f in linears:
        extra = max(0, min(rng.randint(0, max_mult - 1), max_degree - degree))
        f[1] += extra
        degree += extra
    for f in quads:
        extra = max(0, min(rng.randint(0, max_mult - 1), (max_degree - degree) // 2))
        f[2] += extra
        degree += 2 * extra

    factored = FactoredDenominator(
        0,
        tuple(LinearFactor(r, u) for r, u in linears),
        tuple(QuadraticFactor(a, b, k) for a, b, k in quads),
    )
    den = factored.expand()

    p = rng.randint(0, den.degree)
    coeffs = [rng.uniform(-3.0, 3.0) for _ in range(p)]
    coeffs.append(rng.choice((-1, 1)) * rng.uniform(0.5, 3.0))
    num = Polynomial(coeffs)

    return RationalFunction(num, den), factored
