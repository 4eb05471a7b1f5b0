"""Dynatomic and generalized dynatomic polynomials for f_c(z) = z^2 + c.

Two evaluation paths are provided and cross-checked: symbolic over Q[c][x]
(coefficients are polynomials in c) and specialized over K = Q(sqrt(d)) with
a concrete parameter.  All the Moebius-product quotients are required to be
exact; an inexact division raises ExactnessError, which always indicates an
implementation bug, never bad input.
"""

from __future__ import annotations

import functools
import math

from .finitefield import factorize
from .polys import QQ, PolyRing, QuadField, UniPoly
from .quadfield import _norm, _quad

MAX_PERIOD = 6  # d(7) = 126 is feasible but nothing in the pipeline needs it


def divisors(n: int) -> list[int]:
    out = [k for k in range(1, n + 1) if n % k == 0]
    return out


def mobius(n: int) -> int:
    exps = factorize(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


def dn_rn(n: int) -> tuple[int, int]:
    """d(N) = #points and r(N) = d(N)/N = #cycles of formal period N."""
    if n < 1:
        raise ValueError("period must be >= 1")
    d = sum(mobius(n // k) * 2**k for k in divisors(n))
    assert d % n == 0
    return d, d // n


def _c_const(c) -> UniPoly:
    """c as a constant polynomial in x: over Q[c] for the string "c" (the
    symbolic parameter), over K = Q(sqrt(d)) for a concrete c (QuadElem)."""
    if c == "c":
        ring = PolyRing(QQ, "c")
        return UniPoly.const(ring, ring.gen(), "x")
    return UniPoly.const(QuadField(c.d), c, "x")


def iterate_poly(c, n: int) -> UniPoly:
    """f_c^n(x); c is a QuadElem or the string "c" for the symbolic parameter."""
    if n < 0:
        raise ValueError("n must be >= 0")
    cpoly = _c_const(c)
    out = UniPoly.gen(cpoly.ring, "x")
    for _ in range(n):
        out = out * out + cpoly
    return out


def dynatomic(n: int, c="c") -> UniPoly:
    """The dynatomic polynomial of period n, by the exact Moebius quotient."""
    if n < 1:
        raise ValueError("period must be >= 1")
    cpoly = _c_const(c)
    x = UniPoly.gen(cpoly.ring, "x")
    num = den = UniPoly.const(x.ring, x.ring.one, "x")
    iterates = {}
    cur = x
    for k in range(1, n + 1):
        cur = cur * cur + cpoly
        iterates[k] = cur
    for k in divisors(n):
        mu = mobius(n // k)
        if mu == 1:
            num = num * (iterates[k] - x)
        elif mu == -1:
            den = den * (iterates[k] - x)
    phi = num.exact_div(den)
    assert phi.degree() == dn_rn(n)[0]
    return phi


@functools.lru_cache(maxsize=None)
def symbolic_dynatomic(n: int) -> UniPoly:
    """The symbolic Phi_n over Q[c][x], built once per process and shared.

    UniPoly is immutable, so every caller may hold the same object.
    """
    return dynatomic(n)


def gen_dynatomic(m: int, n: int, c="c") -> UniPoly:
    """Generalized dynatomic polynomial for preperiod m and period n.

    Phi_{m,n} = Phi_n(f^m) / Phi_n(f^(m-1)) = Phi_{1,n}(f^(m-1)), Phi_{1,n} = Phi_n(f) / Phi_n.
    """
    if m < 0 or n < 1:
        raise ValueError("need m >= 0 and n >= 1")
    phi = dynatomic(n, c)
    if m == 0:
        return phi
    out = phi.compose(iterate_poly(c, 1)).exact_div(phi).compose(iterate_poly(c, m - 1))
    assert out.degree() == dn_rn(n)[0] * 2 ** (m - 1)
    return out


def specialize(poly_cx: UniPoly, c) -> UniPoly:
    """Evaluation homomorphism Q[c][x] -> K[x] at a concrete c in K = Q(sqrt(d)).

    The evaluation runs over Z.  Write c = (u + v sqrt(d))/w with u, v, w
    integers, let J be the largest c-degree among the x-coefficients and D a
    common denominator of their rational coefficients p_j.  Each x-coefficient
    sum_j p_j c^j is then (A + B sqrt(d)) / (D w^J), where
    A + B sqrt(d) = sum_j (D p_j) (u + v sqrt(d))^j w^(J-j).  The powers are
    built once as integer pairs and shared by all x-coefficients; each
    coefficient is the triple (A, B, D w^J), normalized.
    """
    d = c.d
    u, v, w = c.triple
    top = max((p.degree() for p in poly_cx.coeffs), default=0)
    den = math.lcm(*(q.denominator for p in poly_cx.coeffs for q in p.coeffs))
    powers = []  # (u + v sqrt(d))^j w^(J-j) as integer pairs
    s, t = 1, 0  # s + t sqrt(d) = (u + v sqrt(d))^j
    for j in range(top + 1):
        powers.append((s * w ** (top - j), t * w ** (top - j)))
        s, t = s * u + d * t * v, s * v + t * u
    scale = den * w**top
    coeffs = []
    for p in poly_cx.coeffs:
        a = b = 0
        for q, (pa, pb) in zip(p.coeffs, powers):
            if q:
                n = q.numerator * (den // q.denominator)
                a += n * pa
                b += n * pb
        coeffs.append(_quad(_norm(a, b, scale), d))
    return UniPoly(QuadField(d), coeffs, "x")
