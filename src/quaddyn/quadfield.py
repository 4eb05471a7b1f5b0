"""Exact arithmetic in quadratic number fields Q(sqrt(d)).

Elements are a + b*sqrt(d) with a, b arbitrary-precision rationals
(fractions.Fraction) and d a squarefree integer, d != 0, 1.  Values are
immutable and hashable; all operations are pure functions.  Elements
carrying different d never mix in one operation; plain ints and Fractions
coerce to the rational element of the operand's field.

Text syntax: "a+b*sqrt(d)" with rationals "p/q", plus the shorthands
"i" (d = -1) and "w" (d = -3, w = (-1+sqrt(-3))/2).  parse_elem and
format_elem round-trip exactly.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from .finitefield import factorize


D_LIMIT = 10**12  # QuadElem factors d by trial division, up to sqrt|d|; callers cap |d| here


@lru_cache(maxsize=256)
def squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, m) with n = s^2 * m and m squarefree (sign kept on m)."""
    if n == 0:
        return 1, 0
    s, m = 1, -1 if n < 0 else 1
    for p, e in factorize(abs(n)).items():
        s *= p ** (e // 2)
        m *= p ** (e % 2)
    return s, m


def fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None if q is not a square."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn = math.isqrt(num)
    if rn * rn != num:
        return None
    rd = math.isqrt(den)
    if rd * rd != den:
        return None
    return Fraction(rn, rd)


def quadratic_roots(t: Fraction, n: Fraction, d: int) -> tuple | None:
    """The roots (t +- s sqrt(d))/2 in Q(sqrt(d)) of x^2 - t x + n over Q.

    They lie in Q(sqrt(d)) when (t^2 - 4n)/d = s^2 is a rational square;
    else None.
    """
    s = fraction_sqrt((t * t - 4 * n) / d)
    if s is None:
        return None
    return QuadElem(t / 2, s / 2, d), QuadElem(t / 2, -s / 2, d)


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


def quad_conj_norm_trace(x: QuadElem) -> tuple[QuadElem, Fraction, Fraction]:
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


# -- text syntax ------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|(sqrt)|([iw])|([()+\-*/]))")


class _Parser:
    """Recursive-descent parser for the field-element expression syntax."""

    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text: str):
        tokens, idx = [], 0
        while idx < len(text):
            m = _TOKEN.match(text, idx)
            if not m:
                if text[idx:].strip() == "":
                    break
                raise ValueError(f"bad field-element syntax near {text[idx:]!r}")
            idx = m.end()
            tokens.append(m.group(m.lastindex))
        return tokens

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise ValueError(f"bad field-element syntax: expected {tok!r}, got {_describe(got)}")

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise ValueError(f"bad field-element syntax: unexpected {self.peek()!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self):
        tok = self.peek()
        if tok == "-":
            self.take()
            return -self.factor()
        if tok == "+":
            self.take()
            return self.factor()
        if tok == "(":
            self.take()
            value = self.expr()
            self.expect(")")
            return value
        if tok == "sqrt":
            self.take()
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            if not (isinstance(arg, Fraction) or (isinstance(arg, QuadElem) and arg.b == 0)):
                raise ValueError("sqrt() argument must be rational")
            q = arg if isinstance(arg, Fraction) else arg.a
            if q.denominator != 1:
                raise ValueError("sqrt() argument must be an integer")
            n = q.numerator
            s = fraction_sqrt(Fraction(n))
            if s is not None:
                return Fraction(s)
            if abs(n) > D_LIMIT:
                raise ValueError(f"sqrt() argument must be at most 10^12 in absolute value, got {n}")
            return QuadElem(0, 1, n)
        if tok == "i":
            self.take()
            return QuadElem(0, 1, -1)
        if tok == "w":
            self.take()
            return QuadElem(Fraction(-1, 2), Fraction(1, 2), -3)
        if tok is None or not tok[0].isdigit():
            raise ValueError(f"bad field-element syntax: unexpected {_describe(tok)}")
        self.take()
        return Fraction(tok)


def _describe(tok) -> str:
    return "end of input" if tok is None else repr(tok)


def parse_elem(text: str, d: int | None = None) -> QuadElem:
    """Parse a field element; d fixes the ambient field for rational inputs."""
    try:
        value = _Parser(text).parse()
    except ZeroDivisionError:
        # a literal p/0 and a division by zero both land here, with one message
        raise ZeroDivisionError("division by zero") from None
    if isinstance(value, Fraction):
        if d is None:
            raise ValueError(f"{text!r} is rational; an ambient d is required")
        return QuadElem(value, 0, d)
    if d is not None and value.d != squarefree_split(d)[1] and value.b != 0:
        raise ValueError(f"element lives in Q(sqrt({value.d})), not Q(sqrt({d}))")
    if d is not None and value.b == 0:
        return QuadElem(value.a, 0, d)
    return value


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
