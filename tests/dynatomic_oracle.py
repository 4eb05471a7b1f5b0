"""Phi_n and Phi_{m,n} built over Q[c][x] or K[x] with UniPoly, run only by tests.

quaddyn.dynatomic builds the symbolic polynomials on int lists over Z[c][x]
and reaches K = Q(sqrt(d)) only by specializing them.  The oracle here is the
UniPoly build it replaced: the iterates f_c^k(x) over PolyRing(QQ, "c") (or
over K for a concrete c), Phi_n as the exact Moebius quotient of the
f_c^k - x, and Phi_{m,n} as the quotient of two composites.  It uses none of
the kernel's functions (tests/test_imports.py names them).

verify_factorizations multiplies the kernel's symbolic Phi_n and Phi_{m,n}
back together and compares them with the oracle's iterates.
"""

from __future__ import annotations

from fractions import Fraction

from polys_helper import PolyRing
from quaddyn.dynatomic import MAX_PERIOD, divisors, gen_dynatomic, mobius, symbolic_dynatomic
from quaddyn.polys import QQ, QuadField, UniPoly

RING = PolyRing(QQ, "c")


def to_poly_ring(poly) -> UniPoly:
    """A Z[c][x] polynomial of quaddyn.dynatomic (int tuples) as a UniPoly over Q[c]."""
    return UniPoly(RING, [UniPoly(QQ, [Fraction(k) for k in p], "c") for p in poly], "x")


def iterate_poly(c, n: int) -> UniPoly:
    """f_c^n(x): over Q[c] for the string "c", over K for a concrete c (QuadElem)."""
    if c == "c":
        const = UniPoly.const(RING, RING.gen(), "x")
    else:
        const = UniPoly.const(QuadField(c.d), c, "x")
    out = UniPoly.gen(const.ring, "x")
    for _ in range(n):
        out = out * out + const
    return out


def dynatomic_by_moebius(n: int, c="c") -> UniPoly:
    """Phi_n = prod_{k|n} (f_c^k - x)^mu(n/k), one exact division of two products."""
    x = iterate_poly(c, 0)
    num = den = UniPoly.const(x.ring, x.ring.one, "x")
    for k in divisors(n):
        if mobius(n // k) == 1:
            num = num * (iterate_poly(c, k) - x)
        elif mobius(n // k) == -1:
            den = den * (iterate_poly(c, k) - x)
    return num.exact_div(den)


def gen_dynatomic_by_composites(m: int, n: int, c="c") -> UniPoly:
    """Phi_{m,n} = Phi_n(f^m) / Phi_n(f^(m-1)): one exact division of degree d_n 2^m."""
    phi = dynatomic_by_moebius(n, c)
    if m == 0:
        return phi
    return phi.compose(iterate_poly(c, m)).exact_div(phi.compose(iterate_poly(c, m - 1)))


def verify_factorizations(n_max: int = 6, m_max: int = 3) -> dict:
    """Symbolic identity checks over Q[c][x] on the kernel's polynomials.

    f_c^N - x = prod_{n|N} Phi_n for N <= n_max, and
    f_c^{M+N} - f_c^M = prod_{m<=M} prod_{n|N} Phi_{m,n} for M <= m_max, N <= 4.
    """
    if not 1 <= n_max <= MAX_PERIOD:
        raise ValueError(f"n_max must be in 1..{MAX_PERIOD}, got {n_max}")
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    report = {}
    x = iterate_poly("c", 0)
    phis = {k: to_poly_ring(symbolic_dynatomic(k)) for k in range(1, n_max + 1)}
    for n in range(1, n_max + 1):
        lhs = iterate_poly("c", n) - x
        rhs = UniPoly.const(x.ring, x.ring.one, "x")
        for k in divisors(n):
            rhs = rhs * phis[k]
        report[f"period:{n}"] = lhs == rhs
    for n in range(1, min(n_max, 4) + 1):
        for m in range(1, m_max + 1):
            lhs = iterate_poly("c", m + n) - iterate_poly("c", m)
            rhs = UniPoly.const(x.ring, x.ring.one, "x")
            for mm in range(0, m + 1):
                for k in divisors(n):
                    rhs = rhs * to_poly_ring(gen_dynatomic(mm, k))
            report[f"portrait:({m},{n})"] = lhs == rhs
    return report
