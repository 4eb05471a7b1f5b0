"""Brute-force finite-field oracles for the tests.

quaddyn computes on F_p as ints mod p and on F_{p^2} as pairs of ints.  The
oracles here share none of that: F_q is a FiniteField of FFElem objects
(F_{p^2} = F_p[t]/(t^2 - n), n the smallest non-residue; F_4 = F_2[t]/(t^2 +
t + 1)), polynomials over it are UniPoly over FFRing, and

- enumerate_points counts X(F_q) with one table of square roots over F_q;
- norm_form_count sums the table of quaddyn's packed counts at odd p over
  the norm form, expanded here, one value at a time by Horner's rule;
- good_reduction_oracle decides good reduction at odd p by a gcd mod p;
- group_structure finds the exponent of E(F_q) from the order of every point;
- jacobian_order_enumerated counts Mumford normal forms.
"""

from __future__ import annotations

import math

from quaddyn.curves import HypCurve, WeierstrassCurve, _smooth_mod_2
from quaddyn.factor import _deriv, _gcd
from quaddyn.finitefield import is_prime, reduce_fraction, smallest_nonresidue, sqrt_mod_p
from quaddyn.polys import QQ, UniPoly


class FiniteField:
    """F_p (deg=1) or F_{p^2} (deg=2, modulus t^2 + mb*t + mc).

    For odd p the modulus is t^2 - n with n the smallest positive quadratic
    non-residue; for p = 2 it is t^2 + t + 1 (the only irreducible quadratic).
    """

    def __init__(self, p: int, deg: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if deg not in (1, 2):
            raise ValueError("deg must be 1 or 2")
        self.p = p
        self.deg = deg
        self.q = p**deg
        self.modulus = None
        if deg == 2:
            self.modulus = (1, 1) if p == 2 else (0, -smallest_nonresidue(p) % p)

    def __call__(self, *coords) -> "FFElem":
        vals = list(coords) + [0] * (self.deg - len(coords))
        return FFElem(self, tuple(v % self.p for v in vals))

    def zero(self) -> "FFElem":
        return self(0)

    def one(self) -> "FFElem":
        return self(1)

    def from_fraction(self, x) -> "FFElem":
        return self(reduce_fraction(x, self.p))

    def elements(self):
        """Iterator over all q = p^deg elements, lexicographic in coords."""
        if self.deg == 1:
            for v in range(self.p):
                yield self(v)
        else:
            for c1 in range(self.p):
                for c0 in range(self.p):
                    yield self(c0, c1)

    def sqrt_of_int(self, d: int) -> "FFElem":
        """A deterministic square root of d in this field (deg=2 always has one)."""
        r = sqrt_mod_p(d, self.p)
        if r is not None:
            return self(r)
        if self.deg == 1:
            raise ValueError(f"{d} is not a square mod {self.p}")
        # d and the modulus non-residue n differ by a square factor (odd p;
        # every element of F_2 already has its square root in F_2)
        n = -self.modulus[1] % self.p
        c = sqrt_mod_p(d * pow(n, -1, self.p) % self.p, self.p)
        return self(0, c)

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.deg) == (other.p, other.deg)

    def __hash__(self):
        return hash((self.p, self.deg))

    def __repr__(self):
        return f"GF({self.p})" if self.deg == 1 else f"GF({self.p}^2)"


class FFElem:
    __slots__ = ("field", "coords")

    def __init__(self, field: FiniteField, coords: tuple):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *args):
        raise AttributeError("FFElem is immutable")

    def _coerce(self, other):
        if isinstance(other, FFElem):
            if other.field != self.field:
                raise ValueError("elements of different finite fields")
            return other
        if isinstance(other, int):
            return self.field(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.field.p
        return FFElem(self.field, tuple((x + y) % p for x, y in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FFElem(self.field, tuple(-x % p for x in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.field.p
        if self.field.deg == 1:
            return FFElem(self.field, (self.coords[0] * o.coords[0] % p,))
        a0, a1 = self.coords
        b0, b1 = o.coords
        mb, mc = self.field.modulus  # t^2 = -mb*t - mc
        hi = a1 * b1
        return FFElem(
            self.field,
            ((a0 * b0 - mc * hi) % p, (a0 * b1 + a1 * b0 - mb * hi) % p),
        )

    __rmul__ = __mul__

    def inverse(self) -> "FFElem":
        p = self.field.p
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.field.deg == 1:
            return FFElem(self.field, (pow(self.coords[0], -1, p),))
        a0, a1 = self.coords
        mb, mc = self.field.modulus
        # conj(a0 + a1 t) = (a0 - a1 mb) - a1 t, norm = a0^2 - mb a0 a1 + mc a1^2
        nrm = (a0 * a0 - mb * a0 * a1 + mc * a1 * a1) % p
        inv = pow(nrm, -1, p)
        return FFElem(self.field, ((a0 - a1 * mb) * inv % p, -a1 * inv % p))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field(other)
        if not isinstance(other, FFElem):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.field.p, self.field.deg, self.coords))

    def __repr__(self):
        if self.field.deg == 1:
            return f"{self.coords[0]}"
        return f"({self.coords[0]}+{self.coords[1]}t)"


def reduce_quad(x, field: FiniteField) -> FFElem:
    """Ring homomorphism Q(sqrt(d)) -> F_{p^deg}, sending sqrt(d) to a fixed root."""
    rd = field.sqrt_of_int(x.d % field.p)
    return field.from_fraction(x.a) + field.from_fraction(x.b) * rd


class FFRing:
    def __init__(self, field: FiniteField):
        self.field = field
        self.zero = field.zero()
        self.one = field.one()

    def of(self, n):
        return self.field(n)

    def inv(self, x):
        return x.inverse()

    def __eq__(self, other):
        return isinstance(other, FFRing) and self.field == other.field

    def __hash__(self):
        return hash(("FF", self.field.p, self.field.deg))

    def __repr__(self):
        return repr(self.field)


def jacobian_order_enumerated(f_or_gh, field) -> int:
    """#J(F_q) by enumerating Mumford normal forms over F_q (oracle for zeta).

    Accepts either a sextic f (odd characteristic) or a pair (g, h) for
    y^2 + h y = g (characteristic 2).  Requires both infinite points to be
    F_q-rational and, in characteristic 2, no F_q-rational fixed point of
    the involution (true for the pipeline's curve; asserted).
    """
    ring = FFRing(field)
    if isinstance(f_or_gh, tuple):
        g, h = f_or_gh
        gq = UniPoly(ring, [field.from_fraction(c) for c in g.coeffs])
        hq = UniPoly(ring, [field.from_fraction(c) for c in h.coeffs])

        def norm_poly(v):
            return v * v + hq * v - gq

        if field.p == 2:
            for x in field.elements():
                assert not hq.eval(x).is_zero(), "involution-fixed point over F_q"
        h3 = field.from_fraction(h.coeff(3))
        g6 = field.from_fraction(g.coeff(6))
        inf_roots = [v for v in field.elements() if (v * v + h3 * v - g6).is_zero()]
        affine = sum(
            1
            for x in field.elements()
            for y in field.elements()
            if (y * y + hq.eval(x) * y - gq.eval(x)).is_zero()
        )
    else:
        fq = UniPoly(ring, [field.from_fraction(c) for c in f_or_gh.coeffs])

        def norm_poly(v):
            return v * v - fq

        lc = fq.lc()
        inf_roots = [v for v in field.elements() if v * v == lc]
        affine = sum(
            1 for x in field.elements() for y in field.elements() if (y * y - fq.eval(x)).is_zero()
        )
    assert len(inf_roots) == 2, "infinite points must be rational for this count"
    X = UniPoly.gen(ring)
    count2 = 0
    for a0 in field.elements():
        for a1 in field.elements():
            u = X * X + UniPoly.const(ring, a1) * X + UniPoly.const(ring, a0)
            for b0 in field.elements():
                for b1 in field.elements():
                    v = UniPoly.const(ring, b1) * X + UniPoly.const(ring, b0)
                    if norm_poly(v).divrem(u)[1].is_zero():
                        count2 += 1
    return count2 + 2 * affine + 3


def _reduced(poly: UniPoly, field: FiniteField) -> list:
    """Coefficients of poly in field, leading one first; [0] for the zero polynomial."""
    return [field.from_fraction(c) for c in reversed(poly.coeffs)] or [field.zero()]


def _horner(coeffs: list, x):
    out = coeffs[0]
    for c in coeffs[1:]:
        out = out * x + c
    return out


def good_reduction_oracle(curve: HypCurve, p: int) -> bool:
    """Good reduction at p of y^2 + h y = g, or y^2 = f.

    At odd p the model is (2y + h)^2 = F with F = h^2 + 4g: it is smooth iff
    p divides no denominator of F, F keeps its degree mod p, and F mod p is
    coprime to its derivative.  At p = 2 this is curves._smooth_mod_2, the
    exact test on the h-model (an f-model is bad at 2).
    """
    if p == 2:
        return curve.has_h_model() and _smooth_mod_2(curve)
    F = curve.completed_square()
    if any(c.denominator % p == 0 for c in F.coeffs):
        return False
    Fp = [reduce_fraction(c, p) for c in F.coeffs]
    # p | lc degenerates the model at infinity
    return Fp[-1] != 0 and _gcd(Fp, _deriv(Fp), p) == [1]


def enumerate_points(curve: HypCurve, p: int, deg: int, points: list | None = None) -> int:
    """#X(F_q), q = p^deg, of y^2 + s(x) y = r(x): (s, r) = (h, g), or (0, f).

    At odd p, (2y + s)^2 = F(x) with F = s^2 + 4r, so the y over each x come
    from one table of square roots, looked up at F(x); at p = 2 they are
    scanned.  The points at infinity are those of the chart
    v^2 + s_n v = r_2n with n = genus + 1.  When points is a list, the
    affine points (x, y) are appended to it.
    """
    assert good_reduction_oracle(curve, p), "the oracle counts curves of good reduction"
    field = FiniteField(p, deg)
    n = curve.genus() + 1
    s = _reduced(curve.h if curve.has_h_model() else UniPoly(QQ, ()), field)
    elems = list(field.elements())
    if p == 2:  # an f-model has bad reduction at 2, so r = g

        def fibre(sx, rx):
            return [y for y in elems if y * y + sx * y == rx]

        r = _reduced(curve.g, field)
        sn, r2n = (field.from_fraction(c) for c in (curve.h.coeff(n), curve.g.coeff(2 * n)))
        total = len(fibre(sn, r2n))
        for x in elems:
            ys = fibre(_horner(s, x), _horner(r, x))
            total += len(ys)
            if points is not None:
                points.extend((x, y) for y in ys)
        return total
    roots: dict = {}
    for t in elems:
        roots.setdefault((t * t).coords, []).append(t)
    F = curve.completed_square()
    total = len(roots.get(field.from_fraction(F.coeff(2 * n)).coords, ()))
    Fq, half = _reduced(F, field), field((p + 1) // 2)
    for x in elems:
        ts = roots.get(_horner(Fq, x).coords, ())
        total += len(ts)
        if points is not None and ts:
            sx = _horner(s, x)
            points.extend((x, (t - sx) * half) for t in ts)
    return total


_INF = "O"


def norm_form_count(curve: HypCurve, p: int, deg: int) -> int:
    """#X(F_q), q = p^deg, at an odd p of good reduction, for genus <= 2.

    The sum of curves._enumerate, one value at a time.  F = Fz/D with Fz
    integral; the table of square roots mod p is read at D Fz(x) for each x
    at deg 1, and at deg 2 at R(x0, 0) and, twice, at R(x0, v) for each
    non-residue v, with R(x, v) = Fz(x + y) Fz(x - y), y^2 = v, expanded
    here by the binomial theorem and read by Horner's rule in x, then in v.
    """
    assert p % 2 and deg in (1, 2) and curve.genus() <= 2
    F = curve.completed_square()
    D = math.lcm(*(c.denominator for c in F.coeffs))
    fz = [int(c * D) for c in F.coeffs]
    roots = [0] * p
    for t in range(p):
        roots[t * t % p] += 1
    n = curve.genus() + 1
    top = fz[2 * n] if 2 * n < len(fz) else 0
    if deg == 1:
        coeffs = [c * D % p for c in reversed(fz)]
        return roots[top * D % p] + sum(roots[_horner(coeffs, x) % p] for x in range(p))
    # Fz(x +- y) = sum over (a, i) of (+-1)^i c_ai x^a y^i
    shifted = {}
    for k, c in enumerate(fz):
        for i in range(k + 1):
            shifted[k - i, i] = shifted.get((k - i, i), 0) + c * math.comb(k, i)
    rows = [[0] * (2 * len(fz)) for _ in fz]  # rows[j][a]: the coefficient of x^a v^j
    for (a, i), c in shifted.items():
        for (b, k), e in shifted.items():
            if (i + k) % 2 == 0:
                rows[(i + k) // 2][a + b] += (-1) ** k * c * e
    rows = [[c % p for c in reversed(row)] for row in rows]
    nonresidues = [v for v in range(1, p) if not roots[v]]
    total = roots[top * top % p]
    for x0 in range(p):
        r = [_horner(row, x0) % p for row in rows]
        total += roots[r[0]] + 2 * sum(roots[_horner(r[::-1], v) % p] for v in nonresidues)
    return total


def _ec_add(curve_a: tuple, P, Q):
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


def _ec_mul(curve_a: tuple, k: int, P):
    out, base = _INF, P
    while k:
        if k & 1:
            out = _ec_add(curve_a, out, base)
        base = _ec_add(curve_a, base, base)
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


def group_structure(curve: WeierstrassCurve, p: int, deg: int = 1) -> tuple[int, int]:
    """Invariant factors (n1, n2), n1 | n2, of E(F_{p^deg}), from the order of every point."""
    field = FiniteField(p, deg)
    pts: list = []
    n = enumerate_points(curve, p, deg, pts)
    curve_a = tuple(field.from_fraction(v) for v in curve.a)
    primes = _factorize(n)
    exponent = 1
    for P in pts:
        order = n
        for q in primes:
            while order % q == 0 and _ec_mul(curve_a, order // q, P) is _INF:
                order //= q
        exponent = exponent * order // math.gcd(exponent, order)
        if exponent == n:
            break
    n1 = n // exponent
    assert exponent % n1 == 0, "group is not of rank <= 2 (bug)"
    return (n1, exponent)


