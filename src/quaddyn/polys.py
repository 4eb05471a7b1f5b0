"""Dense univariate polynomials over pluggable exact coefficient rings.

Supported rings: Q (fractions.Fraction), Q(sqrt(d)) (QuadElem), and Q[c]
(UniPoly over Q, for symbolic dynatomic work).  A ring handle supplies zero,
one, of(int) and inv(); the elements themselves carry the arithmetic through
operator overloading.

Polynomials are immutable.  The zero polynomial has an empty coefficient
tuple; trailing zero coefficients are always stripped, so degree == len - 1.
"""

from __future__ import annotations

from fractions import Fraction

from .quadfield import QuadElem


class ExactnessError(ArithmeticError):
    """A division that must be exact left a remainder (bug signal)."""


class RationalField:
    zero = Fraction(0)
    one = Fraction(1)
    is_field = True

    def of(self, n):
        return Fraction(n)

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class QuadField:
    is_field = True

    def __init__(self, d: int):
        self.zero = QuadElem(0, 0, d)
        self.one = QuadElem(1, 0, d)
        self.d = self.zero.d

    def of(self, n):
        return QuadElem(n, 0, self.d)

    def inv(self, x):
        return self.one / x

    def __eq__(self, other):
        return isinstance(other, QuadField) and self.d == other.d

    def __hash__(self):
        return hash(("QF", self.d))

    def __repr__(self):
        return f"Q(sqrt({self.d}))"


class PolyRing:
    """Coefficients that are themselves polynomials (e.g. Q[c])."""

    is_field = False

    def __init__(self, base, var: str):
        self.base = base
        self.var = var
        self.zero = UniPoly(base, (), var)
        self.one = UniPoly(base, (base.one,), var)

    def of(self, n):
        n = self.base.of(n)
        return UniPoly(self.base, (n,) if n != self.base.zero else (), self.var)

    def gen(self):
        return UniPoly(self.base, (self.base.zero, self.base.one), self.var)

    def inv(self, x):
        if x.degree() != 0:
            raise ZeroDivisionError("only constants are invertible in a polynomial ring")
        return UniPoly(self.base, (self.base.inv(x.coeffs[0]),), self.var)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.base == other.base and self.var == other.var

    def __hash__(self):
        return hash(("PR", self.base, self.var))

    def __repr__(self):
        return f"{self.base}[{self.var}]"


class UniPoly:
    __slots__ = ("ring", "coeffs", "var")

    def __init__(self, ring, coeffs, var: str = "x"):
        coeffs = tuple(coeffs)
        n = len(coeffs)
        zero = ring.zero
        while n and coeffs[n - 1] == zero:
            n -= 1
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs[:n])
        object.__setattr__(self, "var", var)

    def __setattr__(self, *args):
        raise AttributeError("UniPoly is immutable")

    def __reduce__(self):
        return UniPoly, (self.ring, self.coeffs, self.var)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def gen(ring, var: str = "x") -> "UniPoly":
        return UniPoly(ring, (ring.zero, ring.one), var)

    @staticmethod
    def const(ring, value, var: str = "x") -> "UniPoly":
        return UniPoly(ring, (value,), var)

    # -- structure ----------------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.ring.zero

    def is_monic(self) -> bool:
        return not self.is_zero() and self.lc() == self.ring.one

    def _check(self, other: "UniPoly"):
        if self.ring != other.ring or self.var != other.var:
            raise ValueError("polynomials over different rings or variables")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return self + UniPoly.const(self.ring, self._scalar(other), self.var)
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, val in enumerate(b):
            out[k] = out[k] + val
        return UniPoly(self.ring, out, self.var)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.ring, [-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            return self - UniPoly.const(self.ring, self._scalar(other), self.var)
        return self + (-other)

    def _scalar(self, other):
        if isinstance(other, int):
            return self.ring.of(other)
        return other

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            s = self._scalar(other)
            return UniPoly(self.ring, [c * s for c in self.coeffs], self.var)
        self._check(other)
        if self.is_zero() or other.is_zero():
            return UniPoly(self.ring, (), self.var)
        a, b = self.coeffs, other.coeffs
        zero = self.ring.zero
        out = [zero] * (len(a) + len(b) - 1)
        for ka, ca in enumerate(a):
            if ca == zero:
                continue
            for kb, cb in enumerate(b):
                out[ka + kb] = out[ka + kb] + ca * cb
        return UniPoly(self.ring, out, self.var)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = UniPoly(self.ring, (self.ring.one,), self.var)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divrem(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Division with remainder; the divisor's lc must be invertible."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lc = other.lc()
        lc_inv = None
        if lc != self.ring.one:
            lc_inv = self.ring.inv(lc)
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly(self.ring, (), self.var), self
        zero = self.ring.zero
        quot = [zero] * (dq + 1)
        for k in range(dq, -1, -1):
            top = rem[k + other.degree()]
            if top == zero:
                continue
            q = top if lc_inv is None else top * lc_inv
            quot[k] = q
            for j, c in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - q * c
        return UniPoly(self.ring, quot, self.var), UniPoly(self.ring, rem, self.var)

    def __mod__(self, other):
        return self.divrem(other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divrem(other)
        if not r.is_zero():
            raise ExactnessError(f"inexact division by {other!r}")
        return q

    def monic(self) -> "UniPoly":
        if self.is_zero() or self.is_monic():
            return self
        return self * self.ring.inv(self.lc())

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd via the Euclidean algorithm (field coefficients only)."""
        self._check(other)
        if not self.ring.is_field:
            raise ValueError("gcd requires field coefficients")
        a, b = self, other
        while not b.is_zero():
            a, b = b, (a % b.monic())
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "UniPoly":
        out = [self.coeffs[k] * k for k in range(1, len(self.coeffs))]
        return UniPoly(self.ring, out, self.var)

    def compose(self, other: "UniPoly") -> "UniPoly":
        """self(other(x)), by Horner evaluation in the polynomial ring."""
        self._check(other)
        out = UniPoly(self.ring, (), self.var)
        for c in reversed(self.coeffs):
            out = out * other + UniPoly.const(self.ring, c, self.var)
        return out

    def eval(self, point):
        """Horner evaluation; point may live in an extension of the ring."""
        if not self.coeffs:
            return self.ring.zero if not isinstance(point, QuadElem) else point * 0
        out = self.coeffs[-1]
        if isinstance(point, QuadElem) and not isinstance(out, QuadElem):
            out = point * 0 + out
        for c in reversed(self.coeffs[:-1]):
            out = out * point + c
        return out

    def resultant(self, other: "UniPoly"):
        """res(self, other) over a field, by the Euclidean product formula."""
        self._check(other)
        if not self.ring.is_field:
            raise ValueError("resultant requires field coefficients")
        a, b = self, other
        if a.is_zero() or b.is_zero():
            return self.ring.zero
        sign = 1
        res = self.ring.one
        while b.degree() > 0:
            r = a % b
            if r.is_zero():
                return self.ring.zero if a.degree() > 0 else res
            if (a.degree() * b.degree()) % 2 == 1:
                sign = -sign
            res = res * (b.lc() ** (a.degree() - r.degree()))
            a, b = b, r
        res = res * (b.lc() ** a.degree())
        return res * sign if sign == 1 else -res

    def squarefree_part(self) -> "UniPoly":
        if self.is_zero():
            raise ValueError("zero polynomial")
        return self.exact_div(self.gcd(self.derivative())).monic()

    # -- conversions ---------------------------------------------------------

    def map_coeffs(self, ring, fn, var: str | None = None) -> "UniPoly":
        return UniPoly(ring, [fn(c) for c in self.coeffs], var or self.var)

    def __eq__(self, other):
        if isinstance(other, int):
            other = UniPoly.const(self.ring, self.ring.of(other), self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.ring == other.ring and self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, self.var, self.coeffs))

    def __repr__(self):
        return f"UniPoly({format_poly(self)!r})"


# -- text and JSON forms ------------------------------------------------------


def format_poly(p: UniPoly) -> str:
    """Text form "c0 + c1*x + ...", constants through their ring's str form."""
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == p.ring.zero:
            continue
        if isinstance(c, QuadElem):
            from .quadfield import format_elem

            cs = format_elem(c)
        elif isinstance(c, UniPoly):
            cs = format_poly(c)
        else:
            cs = str(c)
        body = cs[1:] if cs.startswith("-") else cs
        if any(op in body for op in "+- ") and k > 0:
            cs = f"({cs})"
        if k == 0:
            parts.append(cs)
        elif k == 1:
            parts.append(f"{cs}*{p.var}" if cs != "1" else p.var)
        else:
            parts.append(f"{cs}*{p.var}^{k}" if cs != "1" else f"{p.var}^{k}")
    return " + ".join(parts).replace("+ -", "- ")


def poly_to_json(p: UniPoly) -> list:
    """Compact JSON array of coefficients, constant term first."""
    out = []
    for c in p.coeffs:
        if isinstance(c, QuadElem):
            from .quadfield import format_elem

            out.append(format_elem(c))
        elif isinstance(c, UniPoly):
            out.append(format_poly(c))
        else:
            out.append(str(c))
    return out
