"""Exact divisor-class arithmetic on genus-2 sextic models y^2 = f(x).

A class is stored in the normal form [E - inf+ - inf-] where E is effective
of degree 2: an affine Mumford pair (u monic, v with u | f - v^2) plus
multiplicities at the two points at infinity, deg u + n+ + n- = 2.  The
leading coefficient of f must be a square s^2 in the base field, and
inf^(+/-) is the branch where y ~ +/- s x^3.

Addition is Cantor composition on the affine parts (cancellation against
the involution is absorbed into the gcd) followed by a reduction loop that
repeatedly subtracts div(y - w(x)) for a cubic w congruent to v mod u whose
top coefficients are chosen to steer poles into whichever infinite point is
in surplus.  Every division along the way is exact and asserted.

Composition and reduction run on polynomials over the scalar kernel of
quadfield: an element of K = Q(sqrt(d)) is its normalized int triple
(a + b sqrt(d))/c, the triple QuadElem stores; over Q, b = 0 and the kernel
takes d = 0.  A normalized triple is unique, so equal elements are equal
tuples.  A polynomial is a list of triples, lowest degree first, with no
zero leading coefficient.  JacModel converts f and s to this form once; a
DivClass keeps its Mumford pair in it and builds the public UniPoly fields u
and v on first access.  The UniPoly versions of the Cantor routines, over
QuadElem and Fraction, are the oracle in tests/jacobian_oracle.py.

Base fields are exact and of characteristic 0 (Q or Q(sqrt(d))); curves
needing good reduction at 2 are handled upstream by completing the square,
which for the pipeline's curve reproduces the original sextic.
"""

from __future__ import annotations

from fractions import Fraction

from .polys import ExactnessError, QuadField, UniPoly
from .quadfield import (QuadElem, _add, _inv, _mul, _neg, _norm, _quad, _triple, fraction_sqrt,
                        quad_sqrt)


def _ring_sqrt(ring, value):
    if isinstance(value, QuadElem):
        return quad_sqrt(value)
    return fraction_sqrt(Fraction(value))


# -- polynomials over the scalar kernel: lists of int triples, lowest degree first ----


def _trim(p: list) -> list:
    while p and not (p[-1][0] or p[-1][1]):
        p.pop()
    return p


def _padd(p, q) -> list:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for k, y in enumerate(q):
        out[k] = _add(out[k], y)
    return _trim(out)


def _pneg(p) -> list:
    return [(-a, -b, c) for a, b, c in p]


def _psub(p, q) -> list:
    return _padd(p, _pneg(q))


def _pscale(p, s, d: int) -> list:
    return [_mul(x, s, d) for x in p]


def _conv(p, q, k: int, d: int) -> tuple:
    """Coefficient k of p * q, summed over one running denominator, then normalized."""
    A, B, C = 0, 0, 1
    for i in range(max(0, k - len(q) + 1), min(k, len(p) - 1) + 1):
        a1, b1, c1 = p[i]
        a2, b2, c2 = q[k - i]
        a, b, c = a1 * a2 + d * b1 * b2, a1 * b2 + a2 * b1, c1 * c2
        if c == C:
            A, B = A + a, B + b
        else:
            A, B, C = A * c + a * C, B * c + b * C, C * c
    return _norm(A, B, C)


def _pmul(p, q, d: int) -> list:
    if not p or not q:
        return []
    return [_conv(p, q, k, d) for k in range(len(p) + len(q) - 1)]


def _pdivrem(p, q, d: int) -> tuple[list, list]:
    """(quotient, remainder) of p by a nonzero q."""
    n = len(q) - 1
    dq = len(p) - len(q)
    if dq < 0:
        return [], list(p)
    inv = None if q[-1] == (1, 0, 1) else _inv(q[-1], d)
    rem = list(p)
    quot = [(0, 0, 1)] * (dq + 1)
    for k in range(dq, -1, -1):
        top = rem[k + n]
        if not (top[0] or top[1]):
            continue
        t = top if inv is None else _mul(top, inv, d)
        quot[k] = t
        ta, tb, tc = t
        for j in range(n):  # rem[k + n] - t * lc(q) is 0 by the choice of t
            a2, b2, c2 = q[j]
            a, b, c = ta * a2 + d * tb * b2, ta * b2 + a2 * tb, tc * c2
            ra, rb, rc = rem[k + j]
            rem[k + j] = _norm(ra * c - a * rc, rb * c - b * rc, rc * c)
    return quot, _trim(rem[:n])


def _pmod(p, q, d: int) -> list:
    return _pdivrem(p, q, d)[1]


def _pexact(p, q, d: int) -> list:
    quot, rem = _pdivrem(p, q, d)
    if rem:
        raise ExactnessError("inexact division in the divisor-class kernel")
    return quot


def _pmonic(p, d: int) -> list:
    if p[-1] == (1, 0, 1):
        return p
    return _pscale(p, _inv(p[-1], d), d)


def _peval(p, x, d: int) -> tuple:
    out = (0, 0, 1)
    for c in reversed(p):
        out = _add(_mul(out, x, d), c)
    return out


class JacModel:
    """A genus-2 curve y^2 = f(x), deg f = 6, lc(f) = s^2, over an exact field."""

    def __init__(self, f: UniPoly):
        if f.degree() != 6:
            raise ValueError("divisor arithmetic expects a sextic model")
        self.ring = f.ring
        self.f = f
        s = _ring_sqrt(self.ring, f.lc())
        if s is None:
            raise ValueError("leading coefficient is not a square; infinite points not rational")
        self.s = s
        self.x = UniPoly.gen(self.ring, f.var)
        self._d = self.ring.d if isinstance(self.ring, QuadField) else 0
        self._f = self._kernel(f)
        self._s = _triple(s)

    def const(self, value) -> UniPoly:
        if not isinstance(value, QuadElem):
            value = self.ring.of(value)
        return UniPoly.const(self.ring, value, self.f.var)

    def _kernel(self, p: UniPoly) -> list:
        if p.ring != self.ring:
            raise ValueError("polynomials over different rings or variables")
        return [_triple(c) for c in p.coeffs]

    def _elem(self, c) -> tuple:
        """A base-field element (QuadElem, Fraction or int) as a triple."""
        if isinstance(c, QuadElem) and not c.is_rational() and c.d != self._d:
            raise ValueError(f"{c!r} is not in the base field {self.ring!r}")
        return _triple(c)

    def _poly(self, p) -> UniPoly:
        """A kernel polynomial as a UniPoly over the model's ring."""
        d = self._d
        if d == 0:
            coeffs = [Fraction(a, c) for a, _b, c in p]
        else:
            coeffs = [_quad(t, d) for t in p]
        return UniPoly(self.ring, coeffs, self.f.var)

    def on_curve(self, x, y) -> bool:
        y = self._elem(y)
        return _peval(self._f, self._elem(x), self._d) == _mul(y, y, self._d)

    def zero(self) -> "DivClass":
        return DivClass(self, [(1, 0, 1)], [], 1, 1)

    def from_mumford(self, u: UniPoly, v: UniPoly, nplus: int = 0, nminus: int = 0) -> "DivClass":
        if u.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        return self._mumford(self._kernel(u), self._kernel(v), nplus, nminus)

    def _mumford(self, u, v, nplus: int, nminus: int) -> "DivClass":
        d = self._d
        u = _pmonic(u, d)
        v = _pmod(v, u, d) if len(u) > 1 else []
        if _pmod(_psub(self._f, _pmul(v, v, d)), u, d):
            raise ValueError("v^2 is not congruent to f mod u: divisor not on the curve")
        if len(u) - 1 + nplus + nminus != 2:
            raise ValueError("normal form needs total effective degree 2")
        return DivClass(self, u, v, nplus, nminus)

    def from_points(self, p1, p2) -> "DivClass":
        """Class {P, Q} from two points: (x, y) pairs or the strings "inf+", "inf-"."""
        infs = [p for p in (p1, p2) if isinstance(p, str)]
        affs = [p for p in (p1, p2) if not isinstance(p, str)]
        nplus = sum(1 for p in infs if p == "inf+")
        nminus = sum(1 for p in infs if p == "inf-")
        if nplus + nminus + len(affs) != 2:
            raise ValueError("expected exactly two points")
        for (x, y) in affs:
            if not self.on_curve(x, y):
                raise ValueError(f"({x}, {y}) is not on the curve")
        d, f = self._d, self._f
        pts = [(self._elem(x), self._elem(y)) for x, y in affs]
        if len(pts) == 0:
            if nplus == 1 and nminus == 1:
                return self.zero()
            return DivClass(self, [(1, 0, 1)], [], nplus, nminus)
        if len(pts) == 1:
            (x1, y1), = pts
            return DivClass(self, [_neg(x1), (1, 0, 1)], _trim([y1]), nplus, nminus)
        (x1, y1), (x2, y2) = pts
        if x1 == x2:
            if y1 != y2:
                return self.zero()  # {P, iota P}
            if not (y1[0] or y1[1]):
                return self.zero()  # Weierstrass point doubled
            df = [_norm(k * a, k * b, c) for k, (a, b, c) in enumerate(f) if k]
            slope = _mul(_peval(df, x1, d), _inv(_add(y1, y1), d), d)
        else:
            slope = _mul(_add(y2, _neg(y1)), _inv(_add(x2, _neg(x1)), d), d)
        u = [_mul(x1, x2, d), _neg(_add(x1, x2)), (1, 0, 1)]
        v = _trim([_add(y1, _neg(_mul(slope, x1, d))), slope])
        return self._mumford(u, v, 0, 0)


def _xgcd(a, b, d: int):
    """(g monic, x, y) with x*a + y*b = g, over a field."""
    r0, r1 = a, b
    s0, s1 = [(1, 0, 1)], []
    t0, t1 = [], [(1, 0, 1)]
    while r1:
        q, r = _pdivrem(r0, r1, d)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, d))
        t0, t1 = t1, _psub(t0, _pmul(q, t1, d))
    if not r0:
        return r0, s0, t0
    lead = _inv(r0[-1], d)
    return _pscale(r0, lead, d), _pscale(s0, lead, d), _pscale(t0, lead, d)


class DivClass:
    """A class in normal form; u and v are kernel polynomials inside, UniPolys outside."""

    __slots__ = ("model", "nplus", "nminus", "_u", "_v", "_polys")

    def __init__(self, model: JacModel, u, v, nplus: int, nminus: int):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "nplus", nplus)
        object.__setattr__(self, "nminus", nminus)
        object.__setattr__(self, "_u", tuple(u))
        object.__setattr__(self, "_v", tuple(v))
        object.__setattr__(self, "_polys", None)

    def __setattr__(self, *args):
        raise AttributeError("DivClass is immutable")

    def _pair(self) -> tuple[UniPoly, UniPoly]:
        if self._polys is None:
            object.__setattr__(self, "_polys", (self.model._poly(self._u), self.model._poly(self._v)))
        return self._polys

    @property
    def u(self) -> UniPoly:
        return self._pair()[0]

    @property
    def v(self) -> UniPoly:
        return self._pair()[1]

    def is_zero(self) -> bool:
        return len(self._u) == 1 and self.nplus == 1 and self.nminus == 1

    def __eq__(self, other):
        if not isinstance(other, DivClass):
            return NotImplemented
        return (
            (self.model is other.model or self.model.f == other.model.f)
            and self._u == other._u
            and self._v == other._v
            and self.nplus == other.nplus
            and self.nminus == other.nminus
        )

    def __hash__(self):
        return hash((self._u, self._v, self.nplus, self.nminus))

    def __neg__(self):
        # v is reduced mod u, so -v is too
        return DivClass(self.model, self._u, _pneg(self._v), self.nminus, self.nplus)

    def __add__(self, other: "DivClass") -> "DivClass":
        model = self.model
        if other.model is not model and model.f != other.model.f:
            raise ValueError("classes on different curves")
        (u3, v3), cancelled = _compose(model, (self._u, self._v), (other._u, other._v))
        mplus = self.nplus + other.nplus + cancelled
        mminus = self.nminus + other.nminus + cancelled
        return _reduce(model, u3, v3, mplus, mminus, 2)

    def __sub__(self, other: "DivClass") -> "DivClass":
        return self + (-other)

    def __rmul__(self, k: int) -> "DivClass":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (-k) * (-self)
        out = self.model.zero()
        base = self
        while k:
            if k & 1:
                out = out + base
            base = base + base
            k >>= 1
        return out

    __mul__ = __rmul__

    def __repr__(self):
        from .polys import format_poly

        return (f"DivClass(u={format_poly(self.u)}, v={format_poly(self.v)}, "
                f"inf=({self.nplus},{self.nminus}))")


def _compose(model, a1, a2):
    """Cantor composition of semi-reduced affine parts in kernel form; returns ((u, v), deg d)."""
    u1, v1 = a1
    u2, v2 = a2
    if len(u1) == 1:
        return (u2, v2), 0
    if len(u2) == 1:
        return (u1, v1), 0
    d, f = model._d, model._f
    d1, e1, e2 = _xgcd(u1, u2, d)
    vsum = _padd(v1, v2)
    if not vsum:
        g, c1, c2 = d1, [(1, 0, 1)], []
    else:
        g, c1, c2 = _xgcd(d1, vsum, d)
    u = _pmonic(_pexact(_pmul(u1, u2, d), _pmul(g, g, d), d), d)
    num = _padd(_pmul(c1, _padd(_pmul(_pmul(e1, u1, d), v2, d), _pmul(_pmul(e2, u2, d), v1, d)), d),
                _pmul(c2, _padd(_pmul(v1, v2, d), f), d))
    v = _pmod(_pexact(num, g, d), u, d) if len(u) > 1 else []
    assert len(u) == 1 or not _pmod(_psub(f, _pmul(v, v, d)), u, d), "compose broke Mumford"
    return (u, v), len(g) - 1


def _build_w(model, u, v, sigma: int) -> list:
    """w == v mod u, deg w <= 3, leading coefficient sigma*s, top of f - w^2 killed."""
    n = len(u) - 1
    if n == 4:
        return v
    d = model._d
    lead = model._s if sigma > 0 else _neg(model._s)
    inv_2lead = _inv(_add(lead, lead), d)
    w = _padd(v, [(0, 0, 1)] * (3 - n) + _pscale(u, lead, d))
    for t in range(3 - n):
        m = 3 - n - 1 - t
        coeff = _add(model._f[5 - t], _neg(_conv(w, w, 5 - t, d)))  # of f - w^2
        w = _padd(w, [(0, 0, 1)] * m + _pscale(u, _mul(coeff, inv_2lead, d), d))
    return w


def _reduce(model, u, v, mplus, mminus, kappa) -> DivClass:
    """Reduce a kernel-form pair with pole counts to the normal form."""
    d, s = model._d, model._s
    for _ in range(8):
        c = min(mplus, mminus, kappa - 1)
        mplus -= c
        mminus -= c
        kappa -= c
        if kappa == 1:
            assert len(u) - 1 + mplus + mminus == 2, "reduction bookkeeping broke"
            return DivClass(model, u, v, mplus, mminus)
        sigma = 1 if mplus >= mminus else -1
        w = _build_w(model, u, v, sigma)
        G = _psub(model._f, _pmul(w, w, d))
        assert G, "f is a square (not squarefree)"
        unew = _pmonic(_pexact(G, u, d), d)
        vnew = _pmod(_pneg(w), unew, d) if len(unew) > 1 else []
        g0 = len(G) - 1
        w3 = w[3] if len(w) > 3 else (0, 0, 1)
        if w3 == s:
            pplus, pminus = g0 - 3, 3
        elif w3 == _neg(s):
            pplus, pminus = 3, g0 - 3
        else:
            assert g0 == 6
            pplus = pminus = 3
        mplus += pplus
        mminus += pminus
        kappa += len(unew) - 1
        u, v = unew, vnew
    raise AssertionError("reduction failed to terminate (bug)")


def point_order(D: DivClass, bound: int = 200) -> int | None:
    """Least k <= bound with k*D = O, or None."""
    if bound > 200:
        raise ValueError("order search bound capped at 200")
    cur = D
    for k in range(1, bound + 1):
        if cur.is_zero():
            return k
        cur = cur + D
    return None


def rebase_at(D: DivClass, x0, y0) -> tuple[UniPoly, UniPoly]:
    """Normal form (u, v) of D + {P0, P0}: the representative [P + Q - 2 P0].

    The roots of u are the x-coordinates of the rebased support; the class
    is in the kernel of reduction at a prime exactly when those coordinates
    (and the matching y-values) all vanish there.
    """
    shifted = D + D.model.from_points((x0, y0), (x0, y0))
    if shifted.nplus or shifted.nminus:
        raise ValueError("rebased representative has support at infinity")
    return shifted.u, shifted.v


# ---------------------------------------------------------------------------
# order-3 certification on the curve with the 21-torsion Jacobian
# ---------------------------------------------------------------------------


def order3_certify(model: JacModel, t, n) -> bool:
    """True iff some class with u = x^2 - t x + n is a nonzero 3-torsion point.

    Solves v = v1 x + v0 with v^2 = f mod u over the base field; each
    solution branch is tested directly for 3 D = O.  When t^2 - 4n = 0 the
    class is a doubled point {P, P} (this does occur among the certified
    parameters over Q(w)), handled through the tangent line at P.
    """
    ring = model.ring
    if isinstance(t, QuadElem) or isinstance(n, QuadElem):
        if not isinstance(model.ring, QuadField):
            raise ValueError("model and parameters live over different fields")
    X = model.x
    u = X * X - model.const(t) * X + model.const(n)
    disc = t * t - 4 * n
    if disc == 0:
        x0 = t / 2
        y0 = _ring_sqrt(ring, model.f.eval(x0))
        if y0 is None or y0 == 0:
            return False
        D = model.from_points((x0, y0), (x0, y0))
        return not D.is_zero() and (3 * D).is_zero()
    r = model.f % u
    r1, r0 = r.coeff(1), r.coeff(0)
    candidates = []
    # v1 = 0 branch: constant v with v0^2 = r0 and r1 = 0
    if r1 == 0:
        v0 = _ring_sqrt(ring, r0)
        if v0 is not None:
            candidates.append(model.const(v0))
    # quadratic in W = v1^2: W^2 (t^2 - 4n) - W (2 r1 t + 4 r0) + r1^2 = 0
    a_, b_, c_ = disc, -(2 * r1 * t + 4 * r0), r1 * r1
    disc_w = b_ * b_ - 4 * a_ * c_
    root = _ring_sqrt(ring, disc_w)
    if root is not None:
        for sign in (1, -1):
            W = (-b_ + sign * root) / (2 * a_)
            if W == 0:
                continue
            v1 = _ring_sqrt(ring, W)
            if v1 is None:
                continue
            v0 = (r1 - W * t) / (2 * v1)
            candidates.append(model.const(v1) * X + model.const(v0))
    for v in candidates:
        D = model.from_mumford(u, v)
        if not D.is_zero() and (3 * D).is_zero():
            return True
    return False
