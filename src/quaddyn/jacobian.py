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

Base fields are exact and of characteristic 0 (Q or Q(sqrt(d))); curves
needing good reduction at 2 are handled upstream by completing the square,
which for the pipeline's curve reproduces the original sextic.
"""

from __future__ import annotations

from fractions import Fraction

from .polys import QuadField, UniPoly
from .quadfield import QuadElem, fraction_sqrt, quad_sqrt


def _ring_sqrt(ring, value):
    if isinstance(value, QuadElem):
        return quad_sqrt(value)
    root = fraction_sqrt(Fraction(value))
    return root


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

    def const(self, value) -> UniPoly:
        if not isinstance(value, QuadElem):
            value = self.ring.of(value)
        return UniPoly.const(self.ring, value, self.f.var)

    def on_curve(self, x, y) -> bool:
        return self.f.eval(x) == y * y

    def zero(self) -> "DivClass":
        return DivClass(self, _one(self.f), _zero(self), 1, 1)

    def from_mumford(self, u: UniPoly, v: UniPoly, nplus: int = 0, nminus: int = 0) -> "DivClass":
        u = u.monic()
        v = v % u if u.degree() > 0 else _zero(self)
        if not (self.f - v * v).divrem(u)[1].is_zero():
            raise ValueError("v^2 is not congruent to f mod u: divisor not on the curve")
        if u.degree() + nplus + nminus != 2:
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
        if len(affs) == 0:
            if nplus == 1 and nminus == 1:
                return self.zero()
            return DivClass(self, _one(self.f), _zero(self), nplus, nminus)
        X = self.x
        if len(affs) == 1:
            x1, y1 = affs[0]
            u = X - self.const(x1)
            return DivClass(self, u, self.const(y1), nplus, nminus)
        (x1, y1), (x2, y2) = affs
        if x1 == x2:
            if y1 != y2:
                return self.zero()  # {P, iota P}
            if _is_zero_scalar(y1):
                return self.zero()  # Weierstrass point doubled
            u = (X - self.const(x1)) ** 2
            slope = self.f.derivative().eval(x1) / (y1 + y1)
            v = self.const(y1) + self.const(slope) * (X - self.const(x1))
            return self.from_mumford(u, v)
        u = (X - self.const(x1)) * (X - self.const(x2))
        slope = (y2 - y1) / (x2 - x1)
        v = self.const(y1) + self.const(slope) * (X - self.const(x1))
        return self.from_mumford(u, v)


def _zero(model) -> UniPoly:
    return UniPoly(model.ring, (), model.f.var)


def _one(a: UniPoly) -> UniPoly:
    return UniPoly.const(a.ring, a.ring.one, a.var)


def _is_zero_scalar(y) -> bool:
    if isinstance(y, QuadElem):
        return y.is_zero()
    return y == 0


def _xgcd(a: UniPoly, b: UniPoly):
    """(g monic, x, y) with x*a + y*b = g, over a field."""
    ring = a.ring
    r0, r1 = a, b
    s0, s1 = _one(a), UniPoly(ring, (), a.var)
    t0, t1 = UniPoly(ring, (), a.var), _one(a)
    while not r1.is_zero():
        q, r = r0.divrem(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lead = ring.inv(r0.lc())
    return r0 * lead, s0 * lead, t0 * lead


class DivClass:
    __slots__ = ("model", "u", "v", "nplus", "nminus")

    def __init__(self, model: JacModel, u: UniPoly, v: UniPoly, nplus: int, nminus: int):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "nplus", nplus)
        object.__setattr__(self, "nminus", nminus)

    def __setattr__(self, *args):
        raise AttributeError("DivClass is immutable")

    def is_zero(self) -> bool:
        return self.u.degree() == 0 and self.nplus == 1 and self.nminus == 1

    def __eq__(self, other):
        if not isinstance(other, DivClass):
            return NotImplemented
        return (
            self.model.f == other.model.f
            and self.u == other.u
            and self.v == other.v
            and self.nplus == other.nplus
            and self.nminus == other.nminus
        )

    def __hash__(self):
        return hash((self.u, self.v, self.nplus, self.nminus))

    def __neg__(self):
        return DivClass(self.model, self.u, -self.v % self.u if self.u.degree() else self.v,
                        self.nminus, self.nplus)

    def __add__(self, other: "DivClass") -> "DivClass":
        if self.model.f != other.model.f:
            raise ValueError("classes on different curves")
        model = self.model
        (u3, v3), cancelled = _compose(model, (self.u, self.v), (other.u, other.v))
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
    """Cantor composition of semi-reduced affine parts; returns ((u, v), deg d)."""
    u1, v1 = a1
    u2, v2 = a2
    if u1.degree() == 0:
        return (u2, v2), 0
    if u2.degree() == 0:
        return (u1, v1), 0
    d1, e1, e2 = _xgcd(u1, u2)
    vsum = v1 + v2
    if vsum.is_zero():
        d, c1, c2 = d1, _one(u1), UniPoly(model.ring, (), u1.var)
    else:
        d, c1, c2 = _xgcd(d1, vsum)
    u = (u1 * u2).exact_div(d * d).monic()
    num = c1 * (e1 * u1 * v2 + e2 * u2 * v1) + c2 * (v1 * v2 + model.f)
    v = num.exact_div(d) % u if u.degree() > 0 else _zero(model)
    assert (model.f - v * v).divrem(u)[1].is_zero() if u.degree() else True, "compose broke Mumford"
    return (u, v), d.degree()


def _build_w(model, u: UniPoly, v: UniPoly, sigma: int) -> UniPoly:
    """w == v mod u, deg w <= 3, leading coefficient sigma*s, top of f - w^2 killed."""
    n = u.degree()
    if n == 4:
        return v
    x = model.x
    lead = model.s if sigma > 0 else -model.s
    w = v + model.const(lead) * x ** (3 - n) * u
    for t in range(3 - n):
        m = 3 - n - 1 - t
        G = model.f - w * w
        coeff = G.coeff(5 - t)
        a = coeff / (lead + lead)
        w = w + model.const(a) * x**m * u
    return w


def _reduce(model, u, v, mplus, mminus, kappa) -> DivClass:
    for _ in range(8):
        c = min(mplus, mminus, kappa - 1)
        mplus -= c
        mminus -= c
        kappa -= c
        if kappa == 1:
            assert u.degree() + mplus + mminus == 2, "reduction bookkeeping broke"
            return DivClass(model, u, v, mplus, mminus)
        sigma = 1 if mplus >= mminus else -1
        w = _build_w(model, u, v, sigma)
        G = model.f - w * w
        assert not G.is_zero(), "f is a square (not squarefree)"
        unew = G.exact_div(u).monic()
        vnew = (-w) % unew if unew.degree() > 0 else _zero(model)
        g0 = G.degree()
        w3 = w.coeff(3)
        if w3 == model.s:
            pplus, pminus = g0 - 3, 3
        elif w3 == -model.s:
            pplus, pminus = 3, g0 - 3
        else:
            assert g0 == 6
            pplus = pminus = 3
        mplus += pplus
        mminus += pminus
        kappa += unew.degree()
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
    if _is_zero_scalar(disc):
        x0 = t / 2
        y0 = _ring_sqrt(ring, model.f.eval(x0))
        if y0 is None or _is_zero_scalar(y0):
            return False
        D = model.from_points((x0, y0), (x0, y0))
        return not D.is_zero() and (3 * D).is_zero()
    r = model.f % u
    r1, r0 = r.coeff(1), r.coeff(0)
    candidates = []
    # v1 = 0 branch: constant v with v0^2 = r0 and r1 = 0
    if _is_zero_scalar(r1):
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
            if _is_zero_scalar(W):
                continue
            v1 = _ring_sqrt(ring, W)
            if v1 is None:
                continue
            v0 = (r1 - W * t) / (2 * v1)
            candidates.append(model.const(v1) * X + model.const(v0))
    for v in candidates:
        if not (model.f - v * v).divrem(u)[1].is_zero():
            continue
        D = model.from_mumford(u, v)
        if not D.is_zero() and (3 * D).is_zero():
            return True
    return False
