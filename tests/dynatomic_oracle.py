"""Identity checks over Q[c][x] for the dynatomic polynomials, run only by tests.

verify_factorizations multiplies the symbolic Phi_n and Phi_{m,n} of
quaddyn.dynatomic back together and compares them with the iterates of
f_c(x) = x^2 + c, all over PolyRing(QQ, "c").  gen_dynatomic_by_composites
is Phi_{m,n} by its definition, the quotient of two composites.
"""

from __future__ import annotations

from quaddyn.dynatomic import (MAX_PERIOD, divisors, dynatomic, gen_dynatomic, iterate_poly,
                               symbolic_dynatomic)
from quaddyn.polys import UniPoly


def gen_dynatomic_by_composites(m: int, n: int, c="c") -> UniPoly:
    """Phi_{m,n} = Phi_n(f^m) / Phi_n(f^(m-1)): one exact division of degree d_n 2^m."""
    phi = dynatomic(n, c)
    if m == 0:
        return phi
    return phi.compose(iterate_poly(c, m)).exact_div(phi.compose(iterate_poly(c, m - 1)))


def verify_factorizations(n_max: int = 6, m_max: int = 3) -> dict:
    """Symbolic identity checks over Q[c][x].

    f_c^N - x = prod_{n|N} Phi_n for N <= n_max, and
    f_c^{M+N} - f_c^M = prod_{m<=M} prod_{n|N} Phi_{m,n} for M <= m_max, N <= 4.
    """
    if not 1 <= n_max <= MAX_PERIOD:
        raise ValueError(f"n_max must be in 1..{MAX_PERIOD}, got {n_max}")
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    report = {}
    x = iterate_poly("c", 0)
    phis = {k: symbolic_dynatomic(k) for k in range(1, n_max + 1)}
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
                    rhs = rhs * gen_dynatomic(mm, k)
            report[f"portrait:({m},{n})"] = lhs == rhs
    return report
