"""Decompose a real denominator into linear and irreducible quadratic factors.

The factor shapes are (z - r)**u for real poles and
(z**2 - 2az + (a**2 + b**2))**k for conjugate pairs a +/- ib with b > 0;
poles at the origin are tracked separately since their inverses are plain
impulses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FactorizationError, RootFindingError
from .polynomial import ONE, Polynomial

DEFAULT_TOL_REAL = 1e-8
EXPAND_RTOL = 1e-8


@dataclass(frozen=True)
class LinearFactor:
    """(z - r)**u, real nonzero pole r with multiplicity u."""

    r: float
    u: int

    def __post_init__(self):
        if self.u < 1:
            raise ValueError("multiplicity must be >= 1")


@dataclass(frozen=True)
class QuadraticFactor:
    """(z**2 - 2az + (a**2+b**2))**k, the conjugate pole pair a +/- ib, b > 0."""

    a: float
    b: float
    k: int

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("quadratic factor requires b > 0")
        if self.k < 1:
            raise ValueError("multiplicity must be >= 1")


@dataclass(frozen=True)
class FactoredDenominator:
    """Complete factor structure of a monic real polynomial."""

    origin_mult: int
    linears: tuple
    quadratics: tuple

    @property
    def degree(self):
        return (
            self.origin_mult
            + sum(f.u for f in self.linears)
            + 2 * sum(f.k for f in self.quadratics)
        )

    def expand(self):
        """The monic product of the factors, the one builder of such a product: ONE
        times each (z - r) u times, then each quadratic k times, then z^origin_mult."""
        p = ONE
        for f in self.linears:
            lin = Polynomial((-f.r, 1))
            for _ in range(f.u):
                p = p * lin
        for f in self.quadratics:
            quad = Polynomial((f.a * f.a + f.b * f.b, -2 * f.a, 1))
            for _ in range(f.k):
                p = p * quad
        return p.shift(self.origin_mult)

    def pole_list(self):
        """All poles as (location, multiplicity), conjugate-closed."""
        poles = []
        if self.origin_mult:
            poles.append((0j, self.origin_mult))
        for f in self.linears:
            poles.append((complex(f.r, 0.0), f.u))
        for f in self.quadratics:
            poles.append((complex(f.a, f.b), f.k))
            poles.append((complex(f.a, -f.b), f.k))
        return sorted(poles, key=lambda pm: (pm[0].real, pm[0].imag))


def find_roots(p):
    """All complex roots of p (with repetition), Newton-polished.

    Returns a list of (root, residual) with residual = |p(root)|, sorted by
    real then imaginary part; a nonzero constant has none, and the zero
    polynomial raises ValueError. Structural roots at the origin (exact zero
    low-order coefficients) are returned exactly. Raises RootFindingError if
    polishing leaves a root z with residual above max(1e-6, 1e7 * noise),
    noise being the rounding of p(z) (_eval_noise): a root far from the
    origin may leave a large residual that is still only rounding.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no roots")
    coeffs = list(p.coeffs)
    n_origin = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        n_origin += 1
    roots = [0j] * n_origin
    if len(coeffs) > 1:
        import numpy as np  # numeric factoring is numpy's one use: factored input never loads it

        raw = np.roots(np.array(coeffs[::-1]))
        stripped = Polynomial(coeffs)
        ds = stripped.derivative()
        tiny = 1e-15 * max(1.0, stripped.norm_inf)
        roots.extend(_newton(stripped, ds, complex(z0), iters=30, stop=tiny) for z0 in raw)
    out = sorted(
        ((z, abs(p(z))) for z in roots), key=lambda zr: (zr[0].real, zr[0].imag)
    )
    bad = [(res, z) for z, res in out if res > max(1e-6, 1e7 * _eval_noise(p, z))]
    if bad:
        res, z = max(bad, key=lambda rz: rz[0])
        raise RootFindingError(
            f"root refinement did not converge: residual {res:.3g} at {z}"
        )
    return out


def _scatter_radius(p, c, m):
    """How far rounding moves the computed roots of an m-fold root of p at c.

    Near such a root p(z) ~ p^(m)(c) (z - c)^m / m!, so noise of size
    _eval_noise(p, c) moves the roots by (m! noise / |p^(m)(c)|)^(1/m).
    """
    dm = abs(p.derivative(m)(c))
    if dm == 0:
        return 0.0
    return (math.factorial(m) * _eval_noise(p, c) / dm) ** (1 / m)


def _cluster(p, roots):
    """Group the roots of p into (centroid, count) pairs, one per distinct root.

    Each root, in (real, imag) order, joins its nearest cluster when the
    merged centroid c of size m is a zero of p within evaluation noise and
    every member lies within the scatter radius of an m-fold root at c;
    otherwise it starts a cluster. Exact zeros cluster only with each other.
    """
    clusters = []  # [sum of members, left to right from an int 0 like 3.11's sum(), members]
    for z in sorted(roots, key=lambda w: (w.real, w.imag)):
        near = [cl for cl in clusters if (cl[1][0] == 0) == (z == 0)]
        if near:
            cl = min(near, key=lambda t: abs(z - t[0] / len(t[1])))
            m = len(cl[1]) + 1
            c = (cl[0] + z) / m
            if abs(p(c)) <= _eval_noise(p, c):
                radius = _scatter_radius(p, c, m)
                if all(abs(w - c) <= radius for w in (*cl[1], z)):
                    cl[0] += z
                    cl[1].append(z)
                    continue
        clusters.append([0 + z, [z]])
    return [(total / len(members), len(members)) for total, members in clusters]


def cluster_and_pair(p, roots):
    """Group the raw roots of p into origin / real / conjugate-pair factors.

    Roots of one multiple root merge with summed multiplicity (_cluster);
    near-real locations snap to the axis, near-zero ones to the origin; the
    rest must pair with their conjugates (b > 0 kept), or FactorizationError
    names the unpaired root or the multiplicity mismatch. No roots give the
    empty structure.
    """
    roots = [complex(z) for z in roots]
    scale = max([1.0, *map(abs, roots)])

    origin = 0
    reals = []
    upper = []
    lower = []
    for z, m in _cluster(p, roots):
        if abs(z) <= DEFAULT_TOL_REAL:
            origin += m
        elif abs(z.imag) <= DEFAULT_TOL_REAL * (1 + abs(z)):
            reals.append(LinearFactor(z.real, m))
        elif z.imag > 0:
            upper.append((z, m))
        else:
            lower.append((z, m))

    pair_tol = 4 * DEFAULT_TOL_REAL * scale
    quads = []
    for z, m in upper:
        match = [i for i, (w, _) in enumerate(lower) if abs(w.conjugate() - z) <= pair_tol]
        if not match:
            raise FactorizationError(f"conjugate pairing failed: unpaired root {z}")
        w, mw = lower.pop(match[0])
        if mw != m:
            raise FactorizationError(
                f"conjugate pairing failed: multiplicity mismatch at {z} ({m} vs {mw})"
            )
        a = (z.real + w.real) / 2
        b = (z.imag - w.imag) / 2
        quads.append(QuadraticFactor(a, b, m))
    if lower:
        raise FactorizationError(
            f"conjugate pairing failed: unpaired root {lower[0][0]}"
        )

    return FactoredDenominator(
        origin,
        tuple(sorted(reals, key=lambda f: f.r)),
        tuple(sorted(quads, key=lambda f: (f.a, f.b))),
    )


def _newton(p, dp, z, iters=40, stop=0.0):
    """Newton refinement of z on p (dp its derivative) tracking the lowest-residual
    iterate; stops once it is <= stop, or at an iterate already visited.

    p(z) is evaluated once per iterate: the residual's value is the next step's.
    The step is a function of z alone: once an iterate repeats, the later
    iterates and their residuals repeat too, so the best cannot change.
    """
    pz = p(z)
    best, best_res = z, abs(pz)
    seen = {z}
    for _ in range(iters):
        if best_res <= stop:
            break
        d = dp(z)
        if d == 0:
            break
        z = z - pz / d
        if z in seen:
            break
        seen.add(z)
        pz = p(z)
        res = abs(pz)
        if res < best_res:
            best, best_res = z, res
    return best


def _polish(d, skel):
    """Refine repeated factor locations on the matching derivative of d.

    An m-fold root of d is a simple root of d^(m-1), where Newton converges
    quadratically; multiplicity-1 locations were already polished in
    find_roots.
    """
    linears = []
    for f in skel.linears:  # Newton iterates from a real start stay real
        r = _newton(d.derivative(f.u - 1), d.derivative(f.u), f.r) if f.u > 1 else f.r
        linears.append(LinearFactor(r, f.u))
    quads = []
    for f in skel.quadratics:
        a, b = f.a, f.b
        if f.k > 1:
            z = _newton(d.derivative(f.k - 1), d.derivative(f.k), complex(a, b))
            if z.imag > 0:
                a, b = z.real, z.imag
        quads.append(QuadraticFactor(a, b, f.k))
    return FactoredDenominator(skel.origin_mult, tuple(linears), tuple(quads))


def _expand_error(d, f):
    """Relative coefficient error between d and the expanded factorization."""
    e = f.expand()
    norm = max(d.norm_inf, 1e-300)
    return max(abs(e.coeff(i) - d.coeff(i)) for i in range(d.degree + 1)) / norm


def _eval_noise(p, z):
    """Evaluation-noise zero threshold for p at z (~1e3 ulps, backward stable)."""
    m = max(1.0, abs(z))
    s = 0.0
    pw = 1.0
    for c in p.coeffs:
        s += abs(c) * pw
        pw *= m
    return 1e-13 * s


def _is_m_fold_root(p, z, m):
    """True when p, p', ..., p^(m-1) all vanish at z to within noise.

    Expansion fit cannot tell an m-fold root from m accurate close roots (both
    reproduce the coefficients); the low-derivative residuals can: merged
    distinct roots at separation delta leave |p| ~ delta^m, far above noise.
    """
    for i in range(m):
        pi = p.derivative(i)
        if abs(pi(z)) > _eval_noise(pi, z):
            return False
    return True


def _structure_ok(d, f):
    return all(
        _is_m_fold_root(d, z, m) for z, m in f.pole_list() if m >= 2 and z != 0 and z.imag >= 0
    )


def factor_denominator(d):
    """Recover the full factor structure of the real polynomial d / d.leading numerically.

    Composes find_roots and cluster_and_pair, whose cluster widths are the
    scatter radii of d's own multiple roots, polishes repeated locations, and
    accepts that one candidate only when it both re-expands to d (relative
    error <= 1e-8) and passes the multiple-root residual test; a failed
    conjugate pairing raises cluster_and_pair's own error. A nonzero constant
    has no roots, hence the empty structure.
    """
    if d.is_zero:
        raise ValueError("the zero polynomial has no factor structure")
    if not d.is_real():
        raise ValueError("real coefficients required")
    if d.leading != 1:
        d = Polynomial(tuple(c / d.leading for c in d.coeffs))
    cand = _polish(d, cluster_and_pair(d, [z for z, _ in find_roots(d)]))
    err = _expand_error(d, cand)
    if err > EXPAND_RTOL:
        raise FactorizationError(
            f"factor recovery failed: best relative expansion error {err:.3g}"
        )
    if not _structure_ok(d, cand):
        raise FactorizationError(
            f"factor recovery failed: a candidate re-expands to relative error "
            f"{err:.3g} but fails the multiple-root residual test"
        )
    return cand
