"""QuadElem on a pair of Fractions: the oracle for quaddyn.quadfield.

quaddyn.quadfield stores an element of Q(sqrt(d)) as a normalized int triple
(A + B sqrt(d))/C and runs its operators on int kernels.  This is the class
it replaced, a + b sqrt(d) with a, b Fractions, with every operator built
from Fraction arithmetic, plus the square root and the text form written
against it.  Only the integer helpers squarefree_split and fraction_sqrt
are shared.
"""

from __future__ import annotations

from fractions import Fraction

from quaddyn.quadfield import fraction_sqrt, squarefree_split


class QuadElem:
    """Element a + b*sqrt(d) of Q(sqrt(d)), d squarefree, d != 0, 1."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        if not isinstance(d, int):
            raise TypeError("d must be an integer")
        s, m = squarefree_split(d)
        if m in (0, 1):
            raise ValueError(f"d = {d} is a perfect square (or zero); not a quadratic field")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b) * s)
        object.__setattr__(self, "d", m)

    def __setattr__(self, *args):
        raise AttributeError("QuadElem is immutable")

    # -- coercion ---------------------------------------------------------

    def _pair(self, other):
        """(self', other') in a common field; rational elements adapt."""
        if isinstance(other, QuadElem):
            if other.d == self.d:
                return self, other
            if other.b == 0:
                return self, QuadElem(other.a, 0, self.d)
            if self.b == 0:
                return QuadElem(self.a, 0, other.d), other
            raise ValueError(f"mixed fields: sqrt({self.d}) vs sqrt({other.d})")
        if isinstance(other, (int, Fraction)):
            return self, QuadElem(other, 0, self.d)
        return None, NotImplemented

    # -- ring/field structure ---------------------------------------------

    def __add__(self, other):
        s, o = self._pair(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(s.a + o.a, s.b + o.b, s.d)

    __radd__ = __add__

    def __sub__(self, other):
        s, o = self._pair(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(s.a - o.a, s.b - o.b, s.d)

    def __rsub__(self, other):
        s, o = self._pair(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(o.a - s.a, o.b - s.b, s.d)

    def __mul__(self, other):
        s, o = self._pair(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElem(
            s.a * o.a + s.d * s.b * o.b,
            s.a * o.b + s.b * o.a,
            s.d,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return QuadElem(-self.a, -self.b, self.d)

    def __truediv__(self, other):
        s, o = self._pair(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.a * o.a - o.d * o.b * o.b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        # 1/(a+b*sqrt(d)) = (a - b*sqrt(d)) / (a^2 - d*b^2)
        return s * QuadElem(o.a / n, -o.b / n, s.d)

    def __rtruediv__(self, other):
        s, o = self._pair(other)
        if o is NotImplemented:
            return NotImplemented
        return o / s

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return 1 / (self ** (-k))
        out = QuadElem(1, 0, self.d)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadElem):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    # -- field theory ------------------------------------------------------

    def conj(self) -> "QuadElem":
        return QuadElem(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        return self.a * self.a - self.d * self.b * self.b

    def trace(self) -> Fraction:
        return 2 * self.a

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def sort_key(self):
        """Deterministic ordering key: (norm, trace, text)."""
        return (self.norm(), self.trace(), format_elem(self))

    def __repr__(self):
        return f"QuadElem({format_elem(self)!r})"


def quad_conj_norm_trace(x) -> tuple:
    """Galois conjugate, norm and trace of x in one call."""
    return x.conj(), x.norm(), x.trace()


def quad_sqrt(x: QuadElem) -> QuadElem | None:
    """A square root of x in Q(sqrt(d)), or None when x is not a square there.

    Sign convention: the returned root r has r.a > 0, or r.a == 0 and
    r.b > 0, so downstream constructions are reproducible.
    """
    d = x.d
    if x.is_zero():
        return QuadElem(0, 0, d)
    u, v = x.a, x.b
    if v == 0:
        s = fraction_sqrt(u)
        if s is not None:
            return QuadElem(s if s > 0 else -s, 0, d)
        t = fraction_sqrt(u / d)
        if t is not None:
            return QuadElem(0, t if t > 0 else -t, d)
        return None
    n = u * u - d * v * v
    s = fraction_sqrt(n)
    if s is None:
        return None
    for sign in (1, -1):
        asq = (u + sign * s) / 2
        a = fraction_sqrt(asq)
        if a is not None and a != 0:
            b = v / (2 * a)
            r = QuadElem(a, b, d)
            if r.a < 0 or (r.a == 0 and r.b < 0):
                r = -r
            return r
    return None


def _fmt_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_elem(x: QuadElem, style: str = "sqrt") -> str:
    """Canonical text form.  style="w" prints d=-3 elements over w instead."""
    if style == "w" and x.d == -3:
        # a + b*sqrt(-3) = (a + b) + 2b*w  since sqrt(-3) = 1 + 2w
        ra, rb = x.a + x.b, 2 * x.b
        return _fmt_pair(ra, rb, "w")
    if x.d == -1:
        return _fmt_pair(x.a, x.b, "i")
    return _fmt_pair(x.a, x.b, f"sqrt({x.d})")


def _fmt_pair(ra: Fraction, rb: Fraction, symbol: str) -> str:
    if rb == 0:
        return _fmt_fraction(ra)
    if rb == 1:
        stem = symbol
    elif rb == -1:
        stem = f"-{symbol}"
    else:
        stem = f"{_fmt_fraction(rb)}*{symbol}"
    if ra == 0:
        return stem
    sign = "-" if stem.startswith("-") else "+"
    tail = stem[1:] if stem.startswith("-") else stem
    return f"{_fmt_fraction(ra)} {sign} {tail}"
