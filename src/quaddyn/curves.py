"""Hyperelliptic curves of genus 1-2: models, counting, and torsion data.

Curves come in two shapes: y^2 = f(x) (odd characteristic work) and
y^2 + h(x)y = g(x) (needed for good reduction at 2); Weierstrass curves are
y^2 + hy = g models.  Finite fields are plain integers: F_p as ints mod p,
F_{p^2} as pairs a0 + a1 t with t^2 = n (n the smallest non-residue) at odd
p and t^2 = t + 1 at p = 2.  One enumerator gives every F_q point count: at
odd p each x carries 1 + chi(F(x)) points of (2y + h)^2 = F(x), where the
quadratic character chi of F_{p^2} is that of the norm in F_p, so a count
needs only a table of squares mod p.  With F = Fz/D, Fz integral, the norm
of F(x0 + x1 t) is R(x0, n x1^2)/D^2 for the norm form
R(x, v) = Fz(x + y) Fz(x - y), y^2 = v, an integer polynomial; D^2 is a
square, so an F_{p^2} count sums the table over the p (p + 1)/2 values
R(x0, 0) and R(x0, v), v a non-residue, with no pair arithmetic.  The values
are computed on packed lanes: one int holds one 64-bit lane per x, so a
count is a few multiply-adds of such ints and one table read per value.  An
odd p has good reduction iff it does not divide D res(Fz, Fz').  Those
constants are built once per curve, and F_p's tables once per prime, on
first use.  Structures draw points lazily, one square root in F_q at a
time.  Jacobian orders follow from the zeta relations.  An elliptic group
structure Z/n1 x Z/n2 is read from Sylow subgroups: n1 | q - 1 by the Weil
pairing, so only a prime ell | q - 1 with ell^2 | #E(F_q) can divide n1,
and its share is found from the exponent of the ell-Sylow subgroup, built
as a set.

The named curve models live in data/curves.json together with their
c-parametrizations; load_registry() deserializes them.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from array import array
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import getitem, mod, mul

from .factor import (_add, _deriv, _gcd, _integral, _mul, _sub, _taylor, _zresultant,
                     low_degree_rational_factors, roots_in_quadfield, z_gcd)
from .finitefield import (
    factorize,
    is_prime,
    reduce_fraction,
    smallest_nonresidue,
    sqrt_mod_p,
    sqrt_mod_p2,
)
from .polys import QQ, QuadField, UniPoly, format_poly
from .quadfield import QuadElem, quadratic_roots, sorted_elems, split_field

Q_LIMIT = 10**6  # a count at q = 997^2 takes about 0.1 s (2-vCPU host, Python 3.11)


class CurvePoint(namedtuple("CurvePoint", "kind x y sign", defaults=(None, None, 0))):
    """Affine point (x, y), an infinite point (sign +1/-1; 0 when unique), or a root point:
    kind "affine", "inf" or "root".  A root point is (x, 0) for one of the two roots
    x of a quadratic u over K with no root in K; x holds u, and sign (+1/-1) tells
    the two apart."""

    __slots__ = ()

    @staticmethod
    def affine(x, y) -> "CurvePoint":
        return CurvePoint("affine", x, y)

    @staticmethod
    def infinity(sign: int = 0) -> "CurvePoint":
        return CurvePoint("inf", sign=sign)

    def __repr__(self):
        if self.kind == "inf":
            return {1: "inf+", -1: "inf-", 0: "inf"}[self.sign]
        if self.kind == "root":
            return f"(root{'+' if self.sign > 0 else '-'} of {format_poly(self.x)}, {self.y})"
        return f"({self.x}, {self.y})"


class HypCurve:
    """y^2 = f(x), or y^2 + h(x) y = g(x); coefficients over Q."""

    def __init__(self, f: UniPoly | None = None, g: UniPoly | None = None,
                 h: UniPoly | None = None, name: str = ""):
        if (f is None) == (g is None) or (f is not None and h is not None):
            raise ValueError("give exactly one of f or (g, h)")
        self.f = f
        self.g = g
        self.h = h if h is not None else (None if f is not None else UniPoly(QQ, ()))
        self.name = name
        F = f if f is not None else g * 4 + self.h * self.h
        fz = _integral(F.coeffs)[1]
        if F.is_zero() or z_gcd(fz, _deriv(fz)) != [1]:
            raise ValueError("defining data is not squarefree")
        self._square = F

    def completed_square(self) -> UniPoly:
        """The sextic/quintic F with (2y + h)^2 = F; equals f for f-models."""
        return self._square

    def genus(self) -> int:
        return (self.completed_square().degree() - 1) // 2

    # constants of the curve for the counts at odd p, built on first use

    @cached_property
    def _integral_square(self) -> tuple[int, list]:
        """(D, Fz): D the lcm of the denominators of F, and Fz = D F as an int list."""
        return _integral(self._square.coeffs)

    @cached_property
    def _norm_form(self) -> list:
        """R(x, v) = Fz(x + y) Fz(x - y) with y^2 = v, as the int lists r_j(x) of v^j.

        Fz(x + y) = sum a_k(x) y^k with a_k = Fz^(k)/k!, so Fz(x +- y) = E +- y O
        for E = sum a_2j v^j and O = sum a_2j+1 v^j, and R = E^2 - v O^2: of
        degree deg Fz in v, and r_j of degree 2 deg Fz - 2j in x.
        """
        _, fz = self._integral_square
        taylor = _taylor(fz)
        rows: list = [[] for _ in fz]
        for j, a in enumerate(taylor[0::2]):
            for k, b in enumerate(taylor[0::2]):
                rows[j + k] = _add(rows[j + k], _mul(a, b))
        for j, a in enumerate(taylor[1::2]):
            for k, b in enumerate(taylor[1::2]):
                rows[j + k + 1] = _sub(rows[j + k + 1], _mul(a, b))
        return rows

    @cached_property
    def _bad_reduction_integer(self) -> int:
        """D res(Fz, Fz'): an odd prime has bad reduction iff it divides this.

        The resultant is the Sylvester determinant, so it reduces mod p.  When
        p | lc(Fz) its first column vanishes mod p (res = +-lc(Fz) disc(Fz));
        otherwise it vanishes mod p iff Fz and Fz' have a common factor mod p,
        also when p | deg Fz shortens Fz'.
        """
        D, fz = self._integral_square
        return D * _zresultant(fz, _deriv(fz))

    def has_h_model(self) -> bool:
        return self.g is not None

    def __repr__(self):
        return f"HypCurve({self.name or 'anonymous'})"


def curve_genus(curve: HypCurve) -> int:
    return curve.genus()


class WeierstrassCurve(HypCurve):
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q.

    As a HypCurve this is y^2 + h y = g with h = a1 x + a3 and
    g = x^3 + a2 x^2 + a4 x + a6; `a` keeps the invariants for the group law.
    """

    def __init__(self, a1, a2, a3, a4, a6, name: str = ""):
        self.a = tuple(Fraction(v) for v in (a1, a2, a3, a4, a6))
        a1, a2, a3, a4, a6 = self.a
        super().__init__(g=UniPoly(QQ, (a6, a4, a2, QQ.one)), h=UniPoly(QQ, (a3, a1)), name=name)


def _good_reduction(curve: HypCurve, p: int) -> bool:
    if p == 2:
        return curve.has_h_model() and _smooth_mod_2(curve)
    return curve._bad_reduction_integer % p != 0


def _smooth_mod_2(curve: HypCurve) -> bool:
    """Exact smoothness of the reduction of y^2 + h y = g over the closure of F_2.

    A singular point has h(x) = 0 and h'(x) y = g'(x) with y^2 = g(x), so
    g'^2 + h'^2 g vanishes at x; conversely such an x gives one, as squaring
    is injective in characteristic 2.  A chart is therefore smooth iff
    gcd(h, g'^2 + h'^2 g) = 1 in F_2[x].  The chart at infinity is
    (u^n h(1/u), u^(2n) g(1/u)) with n = genus + 1.
    """
    if any(c.denominator % 2 == 0 for c in curve.g.coeffs + curve.h.coeffs):
        return False
    n = curve.genus() + 1
    # an odd denominator is 1 mod 2, so each coefficient reduces to its numerator
    h = [curve.h.coeff(k).numerator % 2 for k in range(n + 1)]
    g = [curve.g.coeff(k).numerator % 2 for k in range(2 * n + 1)]
    for hh, gg in ((h, g), (h[::-1], g[::-1])):
        dh, dg = _deriv(hh), _deriv(gg)
        if _gcd(hh, _add(_mul(dg, dg), _mul(_mul(dh, dh), gg)), 2) != [1]:
            return False
    return True


class _Fq:
    """F_p on ints in [0, p) (deg 1), or F_{p^2} on pairs (a0, a1) = a0 + a1 t (deg 2).

    t^2 = m1 t + m0: t^2 = nr, the smallest quadratic non-residue, at odd p,
    and t^2 = t + 1 at p = 2.
    """

    def __init__(self, p: int, deg: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if deg not in (1, 2):
            raise ValueError("deg must be 1 or 2")
        self.p, self.deg = p, deg
        self.m0 = self.m1 = 0
        if deg == 2:
            self.m0, self.m1 = (1, 1) if p == 2 else (smallest_nonresidue(p), 0)
        self.zero = 0 if deg == 1 else (0, 0)

    def of(self, x):
        r = reduce_fraction(x, self.p)
        return r if self.deg == 1 else (r, 0)

    def elements(self):
        p = self.p
        return range(p) if self.deg == 1 else ((a0, a1) for a1 in range(p) for a0 in range(p))

    def values(self, poly: UniPoly):
        """poly(x) for each x of elements(), in that order (Horner's rule)."""
        p = self.p
        coeffs = [reduce_fraction(c, p) for c in reversed(poly.coeffs)]
        if self.deg == 1:
            for x in range(p):
                v = 0
                for c in coeffs:
                    v = (v * x + c) % p
                yield v
            return
        m0, m1 = self.m0, self.m1
        for x0, x1 in self.elements():
            v0 = v1 = 0
            for c in coeffs:
                hi = v1 * x1
                v0, v1 = (v0 * x0 + m0 * hi + c) % p, (v0 * x1 + v1 * x0 + m1 * hi) % p
            yield (v0, v1)

    def norm(self, a) -> int:
        """N(a) in F_p: a0^2 + m1 a0 a1 - m0 a1^2 at deg 2, a itself at deg 1.

        At odd p a nonzero a is a square in F_q iff N(a) is one in F_p, and
        N(a) = 0 only at a = 0.
        """
        if self.deg == 1:
            return a
        a0, a1 = a
        return (a0 * a0 + self.m1 * a0 * a1 - self.m0 * a1 * a1) % self.p

    def add(self, a, b):
        p = self.p
        return (a + b) % p if self.deg == 1 else ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def neg(self, a):
        p = self.p
        return -a % p if self.deg == 1 else (-a[0] % p, -a[1] % p)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        p = self.p
        if self.deg == 1:
            return a * b % p
        hi = a[1] * b[1]
        return ((a[0] * b[0] + self.m0 * hi) % p, (a[0] * b[1] + a[1] * b[0] + self.m1 * hi) % p)

    def inv(self, a):
        """a^-1 = conj(a) / N(a), with conj(t) = m1 - t."""
        p = self.p
        if self.deg == 1:
            return pow(a, -1, p)
        n = pow(self.norm(a), -1, p)
        return ((a[0] + self.m1 * a[1]) * n % p, -a[1] * n % p)


def _fibre(field: _Fq, sx, rx) -> list:
    """The y in F_q with y^2 + sx y = rx, by a scan of F_q (q = 2 or 4)."""
    return [y for y in field.elements() if field.mul(y, field.add(y, sx)) == rx]


def _affine_points(curve: HypCurve, field: _Fq):
    """The affine points (x, y) of y^2 + s(x) y = r(x) over field, generated lazily.

    At odd p, y = (t - s(x))/2 for each square root t of F(x) = s(x)^2 + 4 r(x),
    from sqrt_mod_p at deg 1 and sqrt_mod_p2 in F_p[sqrt(m0)] at deg 2.  At
    p = 2 the fibres over F_2 or F_4 are scanned.
    """
    p = field.p
    s = curve.h if curve.has_h_model() else UniPoly(QQ, ())
    if p == 2:  # an f-model has bad reduction at 2, so r = g
        for x, sx, rx in zip(field.elements(), field.values(s), field.values(curve.g)):
            yield from ((x, y) for y in _fibre(field, sx, rx))
        return
    half = field.of(Fraction(1, 2))
    for x, v, sx in zip(field.elements(), field.values(curve.completed_square()), field.values(s)):
        if field.deg == 2:
            ts = sqrt_mod_p2(p, field.m0, *v)
        else:
            r = sqrt_mod_p(v, p)
            ts = () if r is None else {r, -r % p}
        for t in ts:
            yield (x, field.mul(field.sub(t, sx), half))


def _enumerate(curve: HypCurve, p: int, deg: int) -> int:
    """#X(F_q), q = p^deg, of y^2 + s(x) y = r(x): (s, r) = (h, g), or (0, f).

    At odd p, (2y + s)^2 = F(x) with F = s^2 + 4r, so x carries as many
    points as F(x) has square roots in F_q: the count of square roots of
    N(F(x)) in F_p, read from a table of size p.  Write F = Fz/D with Fz
    integral.  At deg 1 the table is read at D Fz(x) = D^2 F(x).  At deg 2,
    x = x0 + x1 t with t^2 = m0 a non-residue has N(F(x)) = R(x0, m0 x1^2)/D^2
    for the norm form R(x, v) = Fz(x + y) Fz(x - y), y^2 = v, and D^2 is a
    nonzero square mod p.  As x1 runs over F_p^*, m0 x1^2 meets every
    non-residue v twice, and x1 = 0 gives R(x0, 0) = Fz(x0)^2, so

        #affine = sum over x0 of roots(R(x0, 0)) + 2 sum over v of roots(R(x0, v)),

    with p (p + 1)/2 values of R, and m0 is never needed.  The values come
    on the lanes of _fp_tables: with X_k packing x^k mod p, sum c_k X_k packs
    sum c_k x^k, so R_j = sum (r_jk mod p) X_k packs r_j(x0), column 0 is R_0
    and the column of v is sum (v^j mod p) R_j; each lane is then read once,
    reduced mod p, in the table.  At p = 2 the affine points are counted from
    the fibre scan of _affine_points.
    The points at infinity are those of the chart v^2 + s_n v = r_2n with
    n = genus + 1.
    """
    q = p**deg
    if q > Q_LIMIT:
        raise ValueError(f"q = {q} exceeds the enumeration limit")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if deg not in (1, 2):
        raise ValueError("deg must be 1 or 2")
    if not _good_reduction(curve, p):
        raise ValueError(f"{curve!r} has bad reduction at {p}")
    n = curve.genus() + 1
    if p == 2:
        field = _Fq(p, deg)
        at_infinity = _fibre(field, field.of(curve.h.coeff(n)), field.of(curve.g.coeff(2 * n)))
        return len(at_infinity) + sum(1 for _ in _affine_points(curve, field))
    if n > 3:
        raise ValueError("point counts at odd p are implemented for genus <= 2")
    D, fz = curve._integral_square
    roots, lanes, rows = _fp_tables(p)
    top = fz[2 * n] if 2 * n < len(fz) else 0
    if deg == 1:  # a lane holds D Fz(x) <= 7 (p - 1)^2 < 2^64
        coeffs = [c * D % p for c in fz]
        total = roots[top * D % p]
        for x in range(0, p, _BLOCK):
            xs = range(x, min(x + _BLOCK, p))
            block = lanes or _x_lanes(xs, p, len(fz) - 1)  # the cached lanes when p <= _BLOCK
            total += _roots_in_lanes(roots, p, _words(_lane_sum(coeffs, block), len(xs)))
        return total
    # a lane of R_j holds r_j(x0) <= 13 (p - 1)^2, and of a column <= 91 (p - 1)^3 < 2^64
    norm_rows = [_lane_sum(map(mod, r, itertools.repeat(p)), lanes) for r in curve._norm_form]
    total = roots[top * top % p] + _roots_in_lanes(roots, p, _words(norm_rows[0], p))
    step = max(1, _BLOCK // p)  # columns per read, so that one read holds <= _BLOCK lanes
    for i in range(0, len(rows), step):
        columns = b"".join([_words(_lane_sum(row, norm_rows), p) for row in rows[i:i + step]])
        total += 2 * _roots_in_lanes(roots, p, columns)
    return total


# ---------------------------------------------------------------------------
# F_p's tables for the counts at odd p: one 64-bit lane per x in one int
# ---------------------------------------------------------------------------


_ORDER = sys.byteorder  # of array("Q"), so a lane reads back as the word it was packed from
_BLOCK = 4096  # the most lanes in one int: a larger p (deg 1 only) runs in blocks


@lru_cache(maxsize=16)
def _fp_tables(p: int) -> tuple:
    """(roots, lanes, rows) of an odd prime p, built once per prime.

    roots[a] is the number of square roots of a mod p.  lanes = [X_0, ..., X_12]
    with X_k = sum over x in F_p of (x^k mod p) 2^(64 x), up to X_6 only when
    p^2 > Q_LIMIT (deg 1 alone is allowed there), and None for p > _BLOCK.
    rows holds [v^j mod p for j <= 6] at each non-residue v when an F_{p^2}
    count is allowed (p^2 <= Q_LIMIT), and is None otherwise.
    """
    roots = bytearray(p)
    roots[0] = 1
    for t in range(1, (p + 1) // 2):
        roots[t * t % p] = 2
    deg2 = p * p <= Q_LIMIT
    lanes = _x_lanes(range(p), p, 12 if deg2 else 6) if p <= _BLOCK else None
    rows = [[pow(v, j, p) for j in range(7)] for v in range(1, p) if not roots[v]] if deg2 else None
    return roots, lanes, rows


def _x_lanes(xs: range, p: int, top: int) -> list:
    """[X_0, ..., X_top]: X_k holds x^k mod p in the 64-bit lane of the i-th x of xs, lane i."""
    row, out = [1] * len(xs), []
    for _ in range(top + 1):
        out.append(int.from_bytes(array("Q", row).tobytes(), _ORDER))
        row = list(map(mod, map(mul, row, xs), itertools.repeat(p)))
    return out


def _lane_sum(coeffs, lanes: list) -> int:
    """sum c_k L_k, lane by lane: with small c_k >= 0 no lane carries into the next."""
    return sum(map(mul, coeffs, lanes))


def _words(packed: int, lanes: int) -> bytes:
    return packed.to_bytes(8 * lanes, _ORDER)


def _roots_in_lanes(roots: bytearray, p: int, words: bytes) -> int:
    """The sum of roots[v mod p] over the 64-bit words v."""
    values = map(mod, memoryview(words).cast("Q"), itertools.repeat(p))
    return sum(map(getitem, itertools.repeat(roots), values))


def count_points_ff(curve: HypCurve, p: int, deg: int = 1) -> int:
    """#X(F_q), q = p^deg, including the points at infinity."""
    return _enumerate(curve, p, deg)


def _jacobian_counts(curve: HypCurve, p: int) -> tuple[int, int]:
    """(#J(F_p), #J(F_{p^2})) of a genus-1 or genus-2 curve, by its zeta function."""
    n1 = _enumerate(curve, p, 1)
    s1 = p + 1 - n1
    if curve.genus() == 1:  # #E(F_{p^2}) = p^2 + 1 - (s1^2 - 2p)
        return n1, n1 * (p + 1 + s1)
    n2 = _enumerate(curve, p, 2)
    twice_s2 = s1 * s1 - (p * p + 1 - n2)
    if twice_s2 % 2:
        raise ArithmeticError("inconsistent point counts (bug): s2 is not integral")
    s2 = twice_s2 // 2
    p1 = 1 - s1 + s2 - p * s1 + p * p
    pm1 = 1 + s1 + s2 + p * s1 + p * p
    return p1, p1 * pm1


def jacobian_orders(curve: HypCurve, p: int) -> tuple[int, int]:
    """(#J(F_p), #J(F_{p^2})) from the counts over F_p and F_{p^2} (genus 2)."""
    if curve.genus() != 2:
        raise ValueError("jacobian_orders requires a genus-2 curve")
    return _jacobian_counts(curve, p)


# ---------------------------------------------------------------------------
# the group law on elliptic curves in Weierstrass form
# ---------------------------------------------------------------------------


_INF = "O"


def _ec_add(field: _Fq, curve_a: tuple, P, Q):
    """P + Q on y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over field."""
    if P is _INF:
        return Q
    if Q is _INF:
        return P
    a1, a2, a3, a4, a6 = curve_a
    add, sub, mul = field.add, field.sub, field.mul
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:  # Q = P or Q = -P, and y1 + y2 = -a1 x1 - a3 exactly when Q = -P
        den = add(add(y1, y2), add(mul(a1, x1), a3))
        if den == field.zero:
            return _INF
        # the tangent: (3 x1^2 + 2 a2 x1 + a4 - a1 y1) / (2 y1 + a1 x1 + a3)
        num = sub(add(mul(x1, add(add(x1, add(x1, x1)), add(a2, a2))), a4), mul(a1, y1))
    else:
        num, den = sub(y2, y1), sub(x2, x1)
    lam = mul(num, field.inv(den))
    lam_a1 = add(lam, a1)
    x3 = sub(mul(lam, lam_a1), add(add(a2, x1), x2))
    # y3 = -(lam + a1) x3 - nu - a3, with nu = y1 - lam x1
    y3 = field.neg(add(add(mul(lam_a1, x3), sub(y1, mul(lam, x1))), a3))
    return (x3, y3)


def _ec_mul(field: _Fq, curve_a: tuple, k: int, P):
    out, base = _INF, P
    while k:
        if k & 1:
            out = _ec_add(field, curve_a, out, base)
        base = _ec_add(field, curve_a, base, base)
        k >>= 1
    return out


def _sylow_exponent(field: _Fq, curve_a: tuple, points, m: int, ell: int, size: int) -> int:
    """Exponent of the ell-Sylow subgroup S = m E(F_q), of order size.

    S is grown as a set from the images m P of the points: each image not yet
    in S adds whole cosets S + kQ of itself.  The exponent of S is the
    largest order among the images that were added.
    """
    group, exponent = {_INF}, 1
    for P in points:
        if len(group) == size:
            break
        Q = _ec_mul(field, curve_a, m, P)
        if Q in group:
            continue
        order, R = ell, _ec_mul(field, curve_a, ell, Q)
        while R is not _INF:
            order, R = order * ell, _ec_mul(field, curve_a, ell, R)
        exponent = max(exponent, order)
        grown, kQ = set(group), Q
        while kQ not in group:
            grown.update(_ec_add(field, curve_a, kQ, g) for g in group)
            kQ = _ec_add(field, curve_a, kQ, Q)
        group = grown
    assert len(group) == size, "Sylow subgroup of the wrong order (bug)"
    return exponent


def elliptic_group_structure(curve: WeierstrassCurve, p: int, deg: int = 1) -> tuple[int, int]:
    """Invariant factors (n1, n2), n1 | n2, of E(F_q), q = p^deg.

    The Weil pairing gives n1 | q - 1.  So for each prime ell with
    ell^v || n = #E(F_q), n1's ell-part is 1 unless v >= 2 and ell | q - 1;
    then it is ell^v / exp(S) for the ell-Sylow subgroup S.
    """
    # before _Fq, whose primality test trial-divides up to sqrt(p)
    if deg in (1, 2) and p**deg > 10**5:
        raise ValueError("field too large for full group enumeration")
    field = _Fq(p, deg)
    n = _enumerate(curve, p, deg)
    sylow = {ell: v for ell, v in factorize(n).items() if v >= 2 and (p**deg - 1) % ell == 0}
    n1 = 1
    curve_a = tuple(field.of(v) for v in curve.a)
    for ell, v in sylow.items():
        size = ell**v
        points = _affine_points(curve, field)
        n1 *= size // _sylow_exponent(field, curve_a, points, n // size, ell, size)
    exponent = n // n1
    assert exponent % n1 == 0, "group is not of rank <= 2 (bug)"
    return (n1, exponent)


def elliptic_count(curve: WeierstrassCurve, p: int, deg: int = 1) -> int:
    """#E(F_q), q = p^deg, including the point at infinity."""
    return _enumerate(curve, p, deg)


def torsion_bound(curve: HypCurve, primes: list[int], deg: int = 2) -> int:
    """gcd over p of #J(F_{p^deg}) (genus 2) or #E(F_{p^deg}) (genus 1).

    The result annihilates J(K)_tors for every quadratic field K, since each
    residue field at p embeds into F_{p^2}.
    """
    if deg not in (1, 2):
        raise ValueError(f"deg must be 1 or 2, got {deg}")
    if not primes:
        raise ValueError("torsion_bound needs at least one prime")
    out = 0
    for p in primes:
        orders = _jacobian_counts(curve, p)
        out = math.gcd(out, orders[1] if deg == 2 else orders[0])
    return out


# ---------------------------------------------------------------------------
# Weierstrass points and 2-torsion over quadratic fields
# ---------------------------------------------------------------------------


def weierstrass_and_2torsion(curve: HypCurve, d: int) -> tuple[list, list]:
    """K-rational Weierstrass points and the K-rational 2-torsion classes.

    Classes are returned as tuples of curve points ((), the zero class,
    included); a pair is K-rational when both members are, or when the two
    members are conjugate over K, i.e. their x are the roots of a quadratic
    factor of f over K with no root in K.  The points and the pairs come
    from the factors of f over Q of degree <= 2: a linear factor gives a
    rational point; a quadratic factor gives two points in K when its
    discriminant over d is a square, and one conjugate pair otherwise.  A
    quartic factor irreducible over Q gives two conjugate pairs of root
    points when it splits over K (_quartic_split).  Other factors of degree
    >= 3 give nothing: an irreducible cubic or quintic keeps an orbit of odd
    size over K, and a sextic can only split as 3 + 3.
    """
    if curve.genus() != 2 or curve.f is None:
        raise ValueError("expects a genus-2 curve in y^2 = f form")
    f = curve.f
    d = split_field(d)[1]
    roots: list[QuadElem] = []
    conjugate_pairs: list[tuple] = []
    rest = f
    for factor in low_degree_rational_factors(f):
        rest = rest.exact_div(factor)
        if factor.degree() == 1:
            roots.append(QuadElem(-factor.coeffs[0], 0, d))
            continue
        t, n = -factor.coeffs[1], factor.coeffs[0]
        pair = quadratic_roots(t, n, d)
        if pair is not None:
            roots += pair
            continue
        dd = _squarefree_of_fraction(t * t - 4 * n)
        zero = QuadElem(0, 0, dd)
        conjugate_pairs.append(tuple(CurvePoint.affine(r, zero) for r in quadratic_roots(t, n, dd)))
    if rest.degree() == 4:
        zero = QuadElem(0, 0, d)
        conjugate_pairs += [(CurvePoint("root", u, zero, 1), CurvePoint("root", u, zero, -1))
                            for u in _quartic_split(rest.monic(), d)]
    points = [CurvePoint.infinity(0)] if f.degree() % 2 == 1 else []
    points += [CurvePoint.affine(r, QuadElem(0, 0, d)) for r in sorted_elems(roots)]
    return points, [(), *itertools.combinations(points, 2), *conjugate_pairs]


def _quartic_split(g: UniPoly, d: int) -> list:
    """The factors x^2 - s x + q over K = Q(sqrt(d)) of a monic quartic g
    irreducible over Q, as UniPolys over K; [] when g is irreducible over K.

    For g = x^4 + a x^3 + b x^2 + c x + e with roots r_i, the sum s of the
    roots of a factor is a root of the pair-sum resolvent C(e1 s - s^2),
    where e1 = -a and C is the cubic with the roots (r_i + r_j)(r_k + r_l).
    The cofactor has s' = e1 - s, and q, q' satisfy q + q' = b - s s' and
    s' q + s q' = -c: a linear system when s != s', and when s = s' the
    quadratic z^2 - (b - s^2) z + e.  Each candidate is multiplied back.
    """
    e, c, b, a = g.coeffs[:4]
    e1, e2, e3 = -a, b, -c
    cubic = UniPoly(QQ, (e3 * e3 + e1 * e1 * e - e1 * e2 * e3, e2 * e2 + e1 * e3 - 4 * e,
                         -2 * e2, QQ.one))
    resolvent = cubic.compose(UniPoly(QQ, (QQ.zero, e1, -QQ.one)))
    field = QuadField(d)
    target = g.map_coeffs(field, lambda v: QuadElem(v, 0, d))
    for s in dict.fromkeys(roots_in_quadfield(resolvent, d)):
        s2 = e1 - s
        total = b - s * s2
        if s != s2:
            q = (c + s * total) / (s - s2)
            q2 = total - q
        else:  # s is rational here, as s + s2 = e1
            found = quadratic_roots(total.a, e, d)
            if found is None:
                continue
            q, q2 = found
        u, u2 = UniPoly(field, (q, -s, field.one)), UniPoly(field, (q2, -s2, field.one))
        if u * u2 == target:
            return [u, u2]
    return []


def _squarefree_of_fraction(q: Fraction) -> int:
    from .quadfield import squarefree_split

    return squarefree_split(q.numerator * q.denominator)[1]


# ---------------------------------------------------------------------------
# curve registry
# ---------------------------------------------------------------------------


class RegistryEntry(namedtuple("RegistryEntry", "name curve aliases graph c_map")):
    # curve: a WeierstrassCurve for the elliptic curves; c_map: None or (num, den) UniPolys in x
    __slots__ = ()

    def c_value(self, x: QuadElem) -> QuadElem:
        if self.c_map is None:
            raise ValueError(f"{self.name} has no c-parametrization")
        num, den = self.c_map
        return num.eval(x) / den.eval(x)


@lru_cache(maxsize=1)
def load_registry() -> dict:
    with open(os.path.join(os.path.dirname(__file__), "data", "curves.json"),
              encoding="utf-8") as fh:
        raw = json.load(fh)
    out = {}
    for name, spec in raw["curves"].items():
        model = spec["model"]
        if "a_invariants" in model:
            curve = WeierstrassCurve(*[Fraction(v) for v in model["a_invariants"]], name=name)
        elif "f" in model:
            curve = HypCurve(f=UniPoly(QQ, [Fraction(v) for v in model["f"]]), name=name)
        else:
            curve = HypCurve(
                g=UniPoly(QQ, [Fraction(v) for v in model["g"]]),
                h=UniPoly(QQ, [Fraction(v) for v in model["h"]]),
                name=name,
            )
        c_map = None
        if spec.get("c_map"):
            c_map = (
                UniPoly(QQ, [Fraction(v) for v in spec["c_map"]["num"]]),
                UniPoly(QQ, [Fraction(v) for v in spec["c_map"]["den"]]),
            )
        entry = RegistryEntry(
            name=name,
            curve=curve,
            aliases=tuple(spec.get("aliases", ())),
            graph=spec.get("graph"),
            c_map=c_map,
        )
        out[name] = entry
        for alias in entry.aliases:
            out[alias] = entry
    return out


def get_curve(name: str) -> RegistryEntry:
    registry = load_registry()
    if name not in registry:
        known = sorted({e.name for e in registry.values()})
        raise KeyError(f"unknown curve {name!r}; known: {', '.join(known)}")
    return registry[name]
