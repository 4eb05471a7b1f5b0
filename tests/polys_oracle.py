"""Euclid on UniPoly over a field: the oracle for the integer curve constants.

gcd, derivative, resultant and squarefree_part were UniPoly methods; src/
now reads whether a curve's F is squarefree from z_gcd, and its bad primes
from the Bareiss resultant _zresultant, both on factor.py's int lists.
These are the same algorithms as functions, run over Q or any field ring
(FFRing in tests/ff_oracle.py included), never over a polynomial ring.
"""

from __future__ import annotations

from polys_helper import PolyRing
from quaddyn.polys import UniPoly


def _field_only(a: UniPoly, b: UniPoly, what: str) -> None:
    a._check(b)
    if isinstance(a.ring, PolyRing):
        raise ValueError(f"{what} requires field coefficients")


def gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd via the Euclidean algorithm (field coefficients only)."""
    _field_only(a, b, "gcd")
    while not b.is_zero():
        a, b = b, (a % b.monic())
    return a.monic() if not a.is_zero() else a


def derivative(p: UniPoly) -> UniPoly:
    out = [p.coeffs[k] * k for k in range(1, len(p.coeffs))]
    return UniPoly(p.ring, out, p.var)


def resultant(a: UniPoly, b: UniPoly):
    """res(a, b) over a field, by the Euclidean product formula."""
    _field_only(a, b, "resultant")
    ring = a.ring
    if a.is_zero() or b.is_zero():
        return ring.zero
    sign = 1
    res = ring.one
    while b.degree() > 0:
        r = a % b
        if r.is_zero():
            return ring.zero if a.degree() > 0 else res
        if (a.degree() * b.degree()) % 2 == 1:
            sign = -sign
        res = res * (b.lc() ** (a.degree() - r.degree()))
        a, b = b, r
    res = res * (b.lc() ** a.degree())
    return res * sign if sign == 1 else -res


def squarefree_part(p: UniPoly) -> UniPoly:
    if p.is_zero():
        raise ValueError("zero polynomial")
    return p.exact_div(gcd(p, derivative(p))).monic()
