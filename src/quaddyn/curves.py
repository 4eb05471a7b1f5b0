"""Hyperelliptic curves of genus 1-2: models, counting, and torsion data.

Curves come in two shapes: y^2 = f(x) (odd characteristic work) and
y^2 + h(x)y = g(x) (needed for good reduction at 2).  Point counts over
F_q are by brute force over the affine plane plus the infinite points read
off the leading behavior; Jacobian orders follow from the genus-2 zeta
relations, and elliptic group structures from chord-tangent addition over
the full (small) group.

The named curve models live in data/curves.json together with their
c-parametrizations; load_registry() deserializes them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .factor import _add, _deriv, _gcd, _mul, factor_rational, roots_in_quadfield
from .finitefield import FiniteField
from .polys import QQ, FFRing, UniPoly
from .quadfield import QuadElem, fraction_sqrt

Q_LIMIT = 10**6


@dataclass(frozen=True)
class CurvePoint:
    """Affine point (x, y) or an infinite point (sign +1/-1; 0 when unique)."""

    kind: str  # "affine" | "inf"
    x: object = None
    y: object = None
    sign: int = 0

    @staticmethod
    def affine(x, y) -> "CurvePoint":
        return CurvePoint("affine", x, y)

    @staticmethod
    def infinity(sign: int = 0) -> "CurvePoint":
        return CurvePoint("inf", sign=sign)

    def __repr__(self):
        if self.kind == "inf":
            return {1: "inf+", -1: "inf-", 0: "inf"}[self.sign]
        return f"({self.x}, {self.y})"


class HypCurve:
    """y^2 = f(x), or y^2 + h(x) y = g(x); coefficients over Q."""

    def __init__(self, f: UniPoly | None = None, g: UniPoly | None = None,
                 h: UniPoly | None = None, name: str = ""):
        if (f is None) == (g is None):
            raise ValueError("give exactly one of f or (g, h)")
        self.f = f
        self.g = g
        self.h = h if h is not None else (None if f is not None else UniPoly(QQ, ()))
        self.name = name
        F = self.completed_square()
        if F.is_zero() or not F.squarefree_part() == F.monic():
            raise ValueError("defining data is not squarefree")

    def completed_square(self) -> UniPoly:
        """The sextic/quintic F with (2y + h)^2 = F; equals f for f-models."""
        if self.f is not None:
            return self.f
        return self.g * 4 + self.h * self.h

    def genus(self) -> int:
        return (self.completed_square().degree() - 1) // 2

    def has_h_model(self) -> bool:
        return self.g is not None

    def __repr__(self):
        return f"HypCurve({self.name or 'anonymous'})"


def curve_genus(curve: HypCurve) -> int:
    return curve.genus()


def _ff_poly(poly: UniPoly, ring: FFRing) -> UniPoly:
    return UniPoly(ring, [ring.field.from_fraction(c) for c in poly.coeffs], poly.var)


def _good_reduction(curve: HypCurve, p: int) -> bool:
    if p == 2:
        return curve.has_h_model() and _smooth_mod_2(curve)
    F = curve.completed_square()
    if any(c.denominator % p == 0 for c in F.coeffs):
        return False
    ring = FFRing(FiniteField(p))
    Fp = _ff_poly(F, ring)
    if Fp.degree() != F.degree():  # p | lc degenerates the model at infinity
        return False
    return Fp.gcd(Fp.derivative()).degree() == 0


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


def count_points_ff(curve: HypCurve, p: int, deg: int = 1) -> int:
    """#X(F_q) by brute force; includes the points at infinity."""
    q = p**deg
    if q > Q_LIMIT:
        raise ValueError(f"q = {q} exceeds the enumeration limit")
    field = FiniteField(p, deg)  # rejects a non-prime p before the reduction test
    if not _good_reduction(curve, p):
        raise ValueError(f"{curve!r} has bad reduction at {p}")
    ring = FFRing(field)
    total = 0
    if p == 2:
        g2, h2 = _ff_poly(curve.g, ring), _ff_poly(curve.h, ring)
        for x in field.elements():
            hx, gx = h2.eval(x), g2.eval(x)
            for y in field.elements():
                if (y * y + hx * y - gx).is_zero():
                    total += 1
        # points at infinity: v^2 + h_n v = g_2n on the chart at infinity
        n = curve.genus() + 1
        hn = field.from_fraction(curve.h.coeff(n))
        g2n = field.from_fraction(curve.g.coeff(2 * n))
        total += sum(1 for v in field.elements() if (v * v + hn * v - g2n).is_zero())
        return total
    F = _ff_poly(curve.completed_square(), ring)
    sq_count: dict = {}
    for y in field.elements():
        key = y * y
        sq_count[key] = sq_count.get(key, 0) + 1
    for x in field.elements():
        total += sq_count.get(F.eval(x), 0)
    degF = curve.completed_square().degree()
    if degF % 2 == 1:
        total += 1
    else:
        total += sq_count.get(F.lc(), 0)
    return total


def jacobian_orders(curve: HypCurve, p: int) -> tuple[int, int]:
    """(#J(F_p), #J(F_{p^2})) from the counts over F_p and F_{p^2} (genus 2)."""
    if curve.genus() != 2:
        raise ValueError("jacobian_orders requires a genus-2 curve")
    n1 = count_points_ff(curve, p, 1)
    n2 = count_points_ff(curve, p, 2)
    s1 = p + 1 - n1
    twice_s2 = s1 * s1 - (p * p + 1 - n2)
    if twice_s2 % 2:
        raise ArithmeticError("inconsistent point counts (bug): s2 is not integral")
    s2 = twice_s2 // 2
    p1 = 1 - s1 + s2 - p * s1 + p * p
    pm1 = 1 + s1 + s2 + p * s1 + p * p
    return p1, p1 * pm1


# ---------------------------------------------------------------------------
# elliptic curves in Weierstrass form
# ---------------------------------------------------------------------------


class WeierstrassCurve:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q."""

    def __init__(self, a1, a2, a3, a4, a6, name: str = ""):
        self.a = tuple(Fraction(v) for v in (a1, a2, a3, a4, a6))
        self.name = name

    def discriminant(self) -> Fraction:
        a1, a2, a3, a4, a6 = self.a
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def reduce(self, field: FiniteField) -> tuple:
        return tuple(field.from_fraction(v) for v in self.a)


_INF = "O"


def _ec_points(curve: WeierstrassCurve, field: FiniteField) -> list:
    a1, a2, a3, a4, a6 = curve.reduce(field)
    pts = [_INF]
    for x in field.elements():
        rhs = ((x + a2) * x + a4) * x + a6
        for y in field.elements():
            if y * y + a1 * x * y + a3 * y == rhs:
                pts.append((x, y))
    return pts


def _ec_add(curve_a: tuple, P, Q, field: FiniteField):
    a1, a2, a3, a4, a6 = curve_a
    if P is _INF:
        return Q
    if Q is _INF:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and y2 == -y1 - a1 * x1 - a3:
        return _INF
    if P == Q:
        den = y1 + y1 + a1 * x1 + a3
        lam = (x1 * x1 * 3 + a2 * x1 * 2 + a4 - a1 * y1) / den
        nu = (-(x1 * x1 * x1) + a4 * x1 + a6 * 2 - a3 * y1) / den
    else:
        lam = (y2 - y1) / (x2 - x1)
        nu = (y1 * x2 - y2 * x1) / (x2 - x1)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return (x3, y3)


def _ec_mul(curve_a: tuple, k: int, P, field: FiniteField):
    out, base = _INF, P
    while k:
        if k & 1:
            out = _ec_add(curve_a, out, base, field)
        base = _ec_add(curve_a, base, base, field)
        k >>= 1
    return out


def _factorize(n: int) -> dict:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def elliptic_group_structure(curve: WeierstrassCurve, p: int, deg: int = 1) -> tuple[int, int]:
    """Invariant factors (n1, n2), n1 | n2, of E(F_{p^deg})."""
    field = FiniteField(p, deg)
    if field.q > 10**5:
        raise ValueError("field too large for full group enumeration")
    from .finitefield import reduce_fraction

    disc = curve.discriminant()
    if disc.denominator % p == 0 or reduce_fraction(disc, p) == 0:
        raise ValueError(f"bad reduction at {p}")
    pts = _ec_points(curve, field)
    n = len(pts)
    curve_a = curve.reduce(field)
    primes = _factorize(n)
    exponent = 1
    for P in pts:
        if P is _INF:
            continue
        order = n
        for q in primes:
            while order % q == 0 and _ec_mul(curve_a, order // q, P, field) is _INF:
                order //= q
        exponent = exponent * order // math.gcd(exponent, order)
        if exponent == n:
            break
    n1 = n // exponent
    assert exponent % n1 == 0, "group is not of rank <= 2 (bug)"
    return (n1, exponent)


def elliptic_count(curve: WeierstrassCurve, p: int, deg: int = 1) -> int:
    from .finitefield import reduce_fraction

    field = FiniteField(p, deg)  # rejects a non-prime p before the reduction test
    disc = curve.discriminant()
    if disc.denominator % p == 0 or reduce_fraction(disc, p) == 0:
        raise ValueError(f"bad reduction at {p}")
    return len(_ec_points(curve, field))


def torsion_bound(curve, primes: list[int], deg: int = 2) -> int:
    """gcd over p of #J(F_{p^deg}) (genus 2) or #E(F_{p^deg}) (genus 1).

    The result annihilates J(K)_tors for every quadratic field K, since each
    residue field at p embeds into F_{p^2}.
    """
    out = 0
    for p in primes:
        if isinstance(curve, WeierstrassCurve):
            count = elliptic_count(curve, p, deg)
        elif curve.genus() == 2:
            orders = jacobian_orders(curve, p)
            count = orders[1] if deg == 2 else orders[0]
        else:
            count = _genus1_jac_count(curve, p, deg)
        out = math.gcd(out, count)
    return out


def _genus1_jac_count(curve: HypCurve, p: int, deg: int) -> int:
    # genus-1 curve given by a quartic model: #J = #E = count via zeta
    n1 = count_points_ff(curve, p, 1)
    a = p + 1 - n1
    if deg == 1:
        return n1
    return p * p + 1 - (a * a - 2 * p)


# ---------------------------------------------------------------------------
# Weierstrass points and 2-torsion over quadratic fields
# ---------------------------------------------------------------------------


def weierstrass_and_2torsion(curve: HypCurve, d: int) -> tuple[list, list]:
    """K-rational Weierstrass points and the K-rational 2-torsion classes.

    Classes are returned as tuples of curve points ((), the zero class,
    included); a pair is K-rational when both members are, or when the two
    members are conjugate over K, i.e. they come from a rational quadratic
    factor of f with no root in K.  Irreducible factors of degree >= 3
    contribute nothing for the curves in the registry (their Jacobians gain
    no quadratic 2-torsion, matching the finite-field bounds).
    """
    if curve.genus() != 2 or curve.f is None:
        raise ValueError("expects a genus-2 curve in y^2 = f form")
    f = curve.f
    points: list[CurvePoint] = []
    if f.degree() % 2 == 1:
        points.append(CurvePoint.infinity(0))
    for root in roots_in_quadfield(f, d):
        points.append(CurvePoint.affine(root, QuadElem(0, 0, root.d)))
    classes: list[tuple] = [()]
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            classes.append((points[a], points[b]))
    for factor, _mult in factor_rational(f).factors:
        if factor.degree() != 2:
            continue
        t, n = -factor.coeffs[1], factor.coeffs[0]
        disc = t * t - 4 * n
        if fraction_sqrt(disc) is not None or fraction_sqrt(disc / d) is not None:
            continue  # roots lie in K; already covered by point pairs
        dd = _squarefree_of_fraction(disc)
        s = fraction_sqrt(disc / dd)
        r1 = QuadElem(t / 2, s / 2, dd)
        r2 = QuadElem(t / 2, -s / 2, dd)
        zero = QuadElem(0, 0, dd)
        classes.append((CurvePoint.affine(r1, zero), CurvePoint.affine(r2, zero)))
    return points, classes


def _squarefree_of_fraction(q: Fraction) -> int:
    from .quadfield import squarefree_split

    return squarefree_split(q.numerator * q.denominator)[1]


# ---------------------------------------------------------------------------
# curve registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    curve: object  # HypCurve or WeierstrassCurve
    aliases: tuple
    graph: str | None
    c_map: tuple | None  # (numerator UniPoly, denominator UniPoly) in x

    def c_value(self, x: QuadElem) -> QuadElem:
        if self.c_map is None:
            raise ValueError(f"{self.name} has no c-parametrization")
        num, den = self.c_map
        return num.eval(x) / den.eval(x)


@lru_cache(maxsize=1)
def load_registry() -> dict:
    text = resources.files("quaddyn.data").joinpath("curves.json").read_text()
    raw = json.loads(text)
    out = {}
    for name, spec in raw["curves"].items():
        model = spec["model"]
        if "a_invariants" in model:
            curve = WeierstrassCurve(*[Fraction(v) for v in model["a_invariants"]], name=name)
        elif "f" in model:
            curve = HypCurve(f=UniPoly(QQ, [Fraction(str(v)) for v in model["f"]]), name=name)
        else:
            curve = HypCurve(
                g=UniPoly(QQ, [Fraction(str(v)) for v in model["g"]]),
                h=UniPoly(QQ, [Fraction(str(v)) for v in model["h"]]),
                name=name,
            )
        c_map = None
        if spec.get("c_map"):
            c_map = (
                UniPoly(QQ, [Fraction(str(v)) for v in spec["c_map"]["num"]]),
                UniPoly(QQ, [Fraction(str(v)) for v in spec["c_map"]["den"]]),
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
