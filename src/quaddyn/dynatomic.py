"""Dynatomic and generalized dynatomic polynomials for f_c(z) = z^2 + c.

Phi_n is monic in x with coefficients in Z[c], and every Moebius quotient
that builds it is exact over Z[c].  So the symbolic polynomials live on one
integer kernel: a polynomial in Z[c][x] is a tuple of x-coefficients,
constant term first, each a tuple of ints in c (factor.py's int lists, whose
_add, _sub and _mul do the c-arithmetic; loaded when a polynomial is built).
A concrete c in K = Q(sqrt(d)) reaches K only through specialize.  An inexact
division raises ExactnessError, which always indicates an implementation bug,
never bad input.
"""

from __future__ import annotations

import functools

from .finitefield import factorize
from .polys import ExactnessError, QuadField, UniPoly
from .quadfield import _norm, _quad

MAX_PERIOD = 6  # d(7) = 126 is feasible but nothing in the pipeline needs it

_F = ((0, 1), (), (1,))  # f_c(x) = x^2 + c in Z[c][x]


def divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


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


def _xmul(a, b) -> list:
    """a * b in Z[c][x]."""
    from .factor import _add, _mul

    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, p in enumerate(a):
        if p:
            for j, q in enumerate(b):
                if q:
                    out[i + j] = _add(out[i + j], _mul(p, q))
    return out


def _xdiv(a, b) -> list:
    """a / b in Z[c][x] for a monic b; a remainder raises ExactnessError."""
    from .factor import _mul, _sub

    rem, top = list(a), len(b) - 1
    quot = [[] for _ in range(len(a) - top)]
    for k in range(len(quot) - 1, -1, -1):
        q = quot[k] = rem[k + top]
        if q:
            for j in range(top):
                if b[j]:
                    rem[k + j] = _sub(rem[k + j], _mul(q, b[j]))
    if any(rem[:top]):
        raise ExactnessError("inexact division in Z[c][x]")
    return quot


def _xcompose(a, b) -> list:
    """a(b(x)) in Z[c][x], by Horner's rule."""
    from .factor import _add

    out = [a[-1]]
    for p in reversed(a[:-1]):
        out = _xmul(out, b)
        out[0] = _add(out[0], p)
    return out


def iterate_poly(c, n: int) -> UniPoly:
    """f_c^n(x) over K = Q(sqrt(d)) for a concrete c (QuadElem)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = UniPoly.gen(QuadField(c.d), "x")
    for _ in range(n):
        out = out * out + c
    return out


def dynatomic(n: int, c="c"):
    """The dynatomic polynomial of period n, by the exact Moebius quotient.

    Over Z[c][x] for the string "c" (the symbolic parameter); at a concrete
    c (QuadElem), the symbolic Phi_n specialized into K[x].
    """
    if n < 1:
        raise ValueError("period must be >= 1")
    if c != "c":
        return specialize(symbolic_dynatomic(n), c)
    products = {1: [(1,)], -1: [(1,)]}  # over mu(n/k) = 1 and mu(n/k) = -1
    cur = [(), (1,)]
    for k in range(1, n + 1):
        cur = _xcompose(_F, cur)
        mu = mobius(n // k) if n % k == 0 else 0
        if mu:  # f^k has no odd powers of x, so f^k - x differs from it at x alone
            products[mu] = _xmul(products[mu], [cur[0], (-1,), *cur[2:]])
    phi = _xdiv(products[1], products[-1])
    assert len(phi) - 1 == dn_rn(n)[0]
    return tuple(map(tuple, phi))


@functools.lru_cache(maxsize=None)
def symbolic_dynatomic(n: int) -> tuple:
    """The symbolic Phi_n over Z[c][x], built once per process and shared.

    The tuples are immutable, so every caller may hold the same object.
    """
    return dynatomic(n)


def gen_dynatomic(m: int, n: int, c="c"):
    """Generalized dynatomic polynomial for preperiod m and period n.

    Phi_{m,n} = Phi_n(f^m) / Phi_n(f^(m-1)) = Phi_{1,n}(f^(m-1)), Phi_{1,n} = Phi_n(f) / Phi_n.
    Over Z[c][x] for the string "c"; at a concrete c, over K on the specialized Phi_n.
    """
    if m < 0 or n < 1:
        raise ValueError("need m >= 0 and n >= 1")
    phi = dynatomic(n, c)
    if m == 0:
        return phi
    if c != "c":
        out = phi.compose(iterate_poly(c, 1)).exact_div(phi).compose(iterate_poly(c, m - 1))
        assert out.degree() == dn_rn(n)[0] * 2 ** (m - 1)
        return out
    out = _xdiv(_xcompose(phi, _F), phi)
    for _ in range(m - 1):
        out = _xcompose(out, _F)
    assert len(out) - 1 == dn_rn(n)[0] * 2 ** (m - 1)
    return tuple(map(tuple, out))


def specialize(poly_cx, c) -> UniPoly:
    """Evaluation homomorphism Z[c][x] -> K[x] at a concrete c in K = Q(sqrt(d)).

    The evaluation runs over Z.  Write c = (u + v sqrt(d))/w with u, v, w
    integers and let J be the largest c-degree among the x-coefficients.  Each
    x-coefficient sum_j p_j c^j is then (A + B sqrt(d)) / w^J, where
    A + B sqrt(d) = sum_j p_j (u + v sqrt(d))^j w^(J-j).  The powers are built
    once as integer pairs and shared by all x-coefficients; each coefficient
    is the triple (A, B, w^J), normalized.
    """
    d = c.d
    u, v, w = c.triple
    top = max(map(len, poly_cx)) - 1
    powers = []  # (u + v sqrt(d))^j w^(J-j) as integer pairs
    s, t = 1, 0  # s + t sqrt(d) = (u + v sqrt(d))^j
    for j in range(top + 1):
        powers.append((s * w ** (top - j), t * w ** (top - j)))
        s, t = s * u + d * t * v, s * v + t * u
    scale = w**top
    coeffs = []
    for p in poly_cx:
        a = b = 0
        for q, (pa, pb) in zip(p, powers):
            a += q * pa
            b += q * pb
        coeffs.append(_quad(_norm(a, b, scale), d))
    return UniPoly(QuadField(d), coeffs, "x")
