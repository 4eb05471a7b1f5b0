"""Exact arithmetic in quadratic number fields Q(sqrt(d)).

An element a + b*sqrt(d), d a squarefree integer other than 0 and 1, is
stored as the normalized int triple (A, B, C) with a = A/C, b = B/C, C > 0
and gcd(A, B, C) = 1, so equal elements of one field have equal triples.
The operators run on the int kernels _norm, _add, _mul, _inv and _neg, which
jacobian shares; the text form, the square root and the vertex order read the
triple too, and a and b are Fraction views of it.  Values are immutable and
hashable; all operations are pure functions.  Elements carrying different d
never mix in one operation; plain ints and Fractions coerce to the rational
element of the operand's field.  The two-Fraction class, text form and square
root this replaced are the oracle in tests/quadfield_oracle.py.

split_field decides what a raw d names, and to_field puts an element into
Q(sqrt(d)).  Text syntax: "a+b*sqrt(d)" with rationals "p/q", plus the
shorthands "i" (d = -1) and "w" (d = -3, w = (-1+sqrt(-3))/2).  The parser
computes on QuadElem alone: a rational met before any field carries d = 0,
"no field yet", the kernel's convention for Q, and takes the field of the
first operand it meets that has one.  parse_elem and format_elem round-trip
exactly.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .finitefield import factorize


D_LIMIT = 10**12  # QuadElem factors d by trial division, up to sqrt|d|; callers cap |d| here
_MODULUS, _INF = sys.hash_info.modulus, sys.hash_info.inf  # of Python's numeric hash


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


def split_field(d: int) -> tuple[int, int]:
    """(s, m) with d = s^2 m and m squarefree, so Q(sqrt(d)) = Q(sqrt(m)).

    A square or zero d names no quadratic field and is refused.
    """
    if not isinstance(d, int):
        raise TypeError("d must be an integer")
    s, m = squarefree_split(d)
    if m in (0, 1):
        raise ValueError(f"d = {d} is a perfect square (or zero); not a quadratic field")
    return s, m


def _isqrt_exact(n: int) -> int | None:
    """The r >= 0 with r^2 = n, or None when n is not the square of an int."""
    r = math.isqrt(max(n, 0))
    return r if r * r == n else None


def fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None if q is not a square."""
    rn, rd = _isqrt_exact(q.numerator), _isqrt_exact(q.denominator)
    return None if rn is None or rd is None else Fraction(rn, rd)


def quadratic_roots(t: Fraction, n: Fraction, d: int) -> tuple | None:
    """The roots (t +- s sqrt(d))/2 in Q(sqrt(d)) of x^2 - t x + n over Q.

    They lie in Q(sqrt(d)) when (t^2 - 4n)/d = s^2 is a rational square;
    else None.
    """
    s = fraction_sqrt((t * t - 4 * n) / d)
    if s is None:
        return None
    return QuadElem(t / 2, s / 2, d), QuadElem(t / 2, -s / 2, d)


def _norm(a: int, b: int, c: int) -> tuple:
    g = gcd(a, b, c)
    if c < 0:
        g = -g
    return (a // g, b // g, c // g)


def _add(x, y) -> tuple:
    a1, b1, c1 = x
    a2, b2, c2 = y
    if c1 == c2:
        return _norm(a1 + a2, b1 + b2, c1)
    return _norm(a1 * c2 + a2 * c1, b1 * c2 + b2 * c1, c1 * c2)


def _mul(x, y, d: int) -> tuple:
    a1, b1, c1 = x
    a2, b2, c2 = y
    return _norm(a1 * a2 + d * b1 * b2, a1 * b2 + a2 * b1, c1 * c2)


def _inv(x, d: int) -> tuple:
    a, b, c = x
    n = a * a - d * b * b
    if n == 0:
        raise ZeroDivisionError("division by zero in Q(sqrt(d))")
    return _norm(c * a, -c * b, n)


def _neg(x) -> tuple:
    return (-x[0], -x[1], x[2])


def _triple(c) -> tuple:
    """A QuadElem, Fraction or int as a normalized triple."""
    return c.triple if isinstance(c, QuadElem) else (c.numerator, 0, c.denominator)


def _quad(t: tuple, d: int) -> "QuadElem":
    """The element with normalized triple t of Q(sqrt(d)), d squarefree; nothing is checked."""
    x = object.__new__(QuadElem)
    object.__setattr__(x, "triple", t)
    object.__setattr__(x, "d", d)
    return x


class QuadElem:
    """Element (A + B*sqrt(d))/C of Q(sqrt(d)), d squarefree, d != 0, 1.

    triple = (A, B, C) is normalized: C > 0 and gcd(A, B, C) = 1.  The _hash slot
    is filled by the first __hash__ call.
    """

    __slots__ = ("triple", "d", "_hash")

    def __init__(self, a, b, d: int):
        s, m = split_field(d)
        a, b = Fraction(a), Fraction(b) * s
        (p, q), (r, t) = a.as_integer_ratio(), b.as_integer_ratio()
        object.__setattr__(self, "triple", _norm(p * t, r * q, q * t))
        object.__setattr__(self, "d", m)

    def __setattr__(self, *args):
        raise AttributeError("QuadElem is immutable")

    def __reduce__(self):
        return _quad, (self.triple, self.d)

    @property
    def a(self) -> Fraction:
        return Fraction(self.triple[0], self.triple[2])

    @property
    def b(self) -> Fraction:
        return Fraction(self.triple[1], self.triple[2])

    # -- coercion ---------------------------------------------------------

    def _with(self, other):
        """(x, y, d): the triples of self and other in one field; rational elements adapt.

        None when other is not a field element.
        """
        x, d = self.triple, self.d
        if isinstance(other, QuadElem):
            y = other.triple
            if other.d != d and (y[1] or not d):  # d = 0 is a rational of no field yet
                if x[1]:
                    raise ValueError(f"mixed fields: sqrt({d}) vs sqrt({other.d})")
                d = other.d
            return x, y, d
        if isinstance(other, (int, Fraction)):
            return x, (other.numerator, 0, other.denominator), d
        return None

    # -- ring/field structure ---------------------------------------------

    def __add__(self, other):
        p = self._with(other)
        return NotImplemented if p is None else _quad(_add(p[0], p[1]), p[2])

    __radd__ = __add__

    def __sub__(self, other):
        p = self._with(other)
        return NotImplemented if p is None else _quad(_add(p[0], _neg(p[1])), p[2])

    def __rsub__(self, other):
        p = self._with(other)
        return NotImplemented if p is None else _quad(_add(p[1], _neg(p[0])), p[2])

    def __mul__(self, other):
        p = self._with(other)
        return NotImplemented if p is None else _quad(_mul(p[0], p[1], p[2]), p[2])

    __rmul__ = __mul__

    def __neg__(self):
        return _quad(_neg(self.triple), self.d)

    def __truediv__(self, other):
        p = self._with(other)
        return NotImplemented if p is None else _quad(_mul(p[0], _inv(p[1], p[2]), p[2]), p[2])

    def __rtruediv__(self, other):
        p = self._with(other)
        return NotImplemented if p is None else _quad(_mul(p[1], _inv(p[0], p[2]), p[2]), p[2])

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return 1 / (self ** (-k))
        out, base, d = (1, 0, 1), self.triple, self.d
        while k:
            if k & 1:
                out = _mul(out, base, d)
            base = _mul(base, base, d)
            k >>= 1
        return _quad(out, d)

    def __eq__(self, other):
        if isinstance(other, QuadElem):
            return self.triple == other.triple and (self.d == other.d or not self.triple[1])
        if isinstance(other, (int, Fraction)):
            return self.triple == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        a, b, c = self.triple
        if b:
            h = hash((a, b, c, self.d))
        elif c == 1:
            h = hash(a)
        else:
            # hash(Fraction(a, c)), which __eq__ makes equal, from the ints: h >= 0, -1 reads -2
            h = hash(hash(abs(a)) * pow(c, -1, _MODULUS)) if c % _MODULUS else _INF
            h = h if a >= 0 else -2 if h == 1 else -h
        object.__setattr__(self, "_hash", h)
        return h

    # -- field theory ------------------------------------------------------

    def conj(self) -> "QuadElem":
        a, b, c = self.triple
        return _quad((a, -b, c), self.d)

    def norm(self) -> Fraction:
        a, b, c = self.triple
        return Fraction(a * a - self.d * b * b, c * c)

    def trace(self) -> Fraction:
        return Fraction(2 * self.triple[0], self.triple[2])

    def is_zero(self) -> bool:
        return self.triple == (0, 0, 1)

    def is_rational(self) -> bool:
        return not self.triple[1]

    def sort_key(self):
        """The vertex order: (norm, trace, -B if A else B) on the triple (A, B, C).

        Equal norm and trace leave a conjugate pair, which the sign of B orders as
        format_elem's text does: "a + ..." before "a - ...", "-" before a digit or a
        symbol.  sorted_elems sorts by this key, on ints.
        """
        a, b, _ = self.triple
        return (self.norm(), self.trace(), -b if a else b)

    def __repr__(self):
        return f"QuadElem({format_elem(self)!r})"


def sorted_elems(elems) -> list:
    """Elements of one field in sort_key order, on ints: over L, the lcm of the C
    of their triples (A, B, C), the norm is scaled by L^2 and the trace by L/2.
    The key of a rational element does not read its d."""
    elems = list(elems)
    d = next((x.d for x in elems if x.triple[1]), 0)
    L = math.lcm(*(x.triple[2] for x in elems))

    def key(x):
        a, b, c = x.triple
        s = L // c
        return (a * a - d * b * b) * s * s, a * s, -b if a else b

    return sorted(elems, key=key)


def quad_sqrt(x: QuadElem) -> QuadElem | None:
    """A square root of x in Q(sqrt(d)), or None when x is not a square there.

    Sign convention: the returned root r has r.a > 0, or r.a == 0 and
    r.b > 0, so downstream constructions are reproducible.

    On the triple, x = (u + v sqrt(d))/C^2 with u = AC, v = BC.  A root
    (a + b sqrt(d))/C has a^2 + d b^2 = u, 2ab = v and a^2 - d b^2 = +-n with
    n^2 = u^2 - d v^2, so m = 2a has m^2 = 2(u +- n); for m != 0 the root is
    (m^2 + 2v sqrt(d))/(2mC).  A root with a = 0 has v = 0 and (db)^2 = ud.
    """
    (A, B, C), d = x.triple, x.d
    u, v = A * C, B * C
    n = _isqrt_exact(u * u - d * v * v)
    if n is None:
        return None
    for w in (u + n, u - n):
        m = _isqrt_exact(2 * w)
        if m:
            return _quad(_norm(m * m, 2 * v, 2 * m * C), d)
    t = None if v else _isqrt_exact(u * d)
    return None if t is None else _quad(_norm(0, t, C * abs(d)), d)


# -- text syntax ------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|(sqrt)|([iw])|([()+\-*/]))")


class _Parser:
    """Recursive-descent parser for the field-element expression syntax.

    Every value is a QuadElem; a rational of no field yet has d = 0, and none
    leaves parse_elem.  Each "(", "sqrt(" and unary sign is one level of
    recursion; input nested more than MAX_NESTING levels deep is refused
    before the stack runs out.
    """

    MAX_NESTING = 100

    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.depth = 0

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

    def nested(self, parse):
        """parse() one nesting level deeper."""
        if self.depth == self.MAX_NESTING:
            raise ValueError(f"bad field-element syntax: nested more than {self.MAX_NESTING} deep")
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def factor(self):
        tok = self.peek()
        if tok == "-":
            self.take()
            return -self.nested(self.factor)
        if tok == "+":
            self.take()
            return self.nested(self.factor)
        if tok == "(":
            self.take()
            value = self.nested(self.expr)
            self.expect(")")
            return value
        if tok == "sqrt":
            self.take()
            self.expect("(")
            arg = self.nested(self.expr)
            self.expect(")")
            n, b, c = arg.triple
            if b:
                raise ValueError("sqrt() argument must be rational")
            if c != 1:
                raise ValueError("sqrt() argument must be an integer")
            s = _isqrt_exact(n)
            if s is not None:
                return _quad((s, 0, 1), 0)
            if abs(n) > D_LIMIT:
                raise ValueError(f"sqrt() argument must be at most 10^12 in absolute value, got {n}")
            s, m = split_field(n)
            return _quad((0, s, 1), m)
        if tok == "i":
            self.take()
            return _quad((0, 1, 1), -1)
        if tok == "w":
            self.take()
            return _quad((-1, 1, 2), -3)
        if tok is None or not tok[0].isdigit():
            raise ValueError(f"bad field-element syntax: unexpected {_describe(tok)}")
        self.take()
        p, _, q = tok.partition("/")
        p, q = int(p), int(q or 1)
        if not q:
            raise ZeroDivisionError  # parse_elem reports it
        return _quad(_norm(p, 0, q), 0)


def _describe(tok) -> str:
    return "end of input" if tok is None else repr(tok)


def to_field(x: QuadElem, d: int | None) -> QuadElem:
    """x as an element of Q(sqrt(d)), or x itself when d is None.

    A rational x adapts to any d; an x of another field is refused.
    """
    if d is None:
        return x
    m = split_field(d)[1]
    if x.triple[1] and x.d != m:
        raise ValueError(f"element lives in Q(sqrt({x.d})), not Q(sqrt({d}))")
    return x if x.d == m else _quad(x.triple, m)


def parse_elem(text: str, d: int | None = None) -> QuadElem:
    """Parse a field element; d fixes the ambient field for rational inputs."""
    try:
        value = _Parser(text).parse()
    except ZeroDivisionError:
        # a literal p/0 and a division by zero both land here, with one message
        raise ZeroDivisionError("division by zero") from None
    if value.d == 0 and d is None:
        raise ValueError(f"{text!r} is rational; an ambient d is required")
    return to_field(value, d)


def _ratio(n: int, c: int) -> str:
    """n/c in lowest terms, c > 0: "n" when it is an integer."""
    g = gcd(n, c)
    return str(n // g) if c == g else f"{n // g}/{c // g}"


def format_elem(x: QuadElem, style: str = "sqrt") -> str:
    """Canonical text form.  style="w" prints d=-3 elements over w instead."""
    (a, b, c), d = x.triple, x.d
    if style == "w" and d == -3:
        # (a + b*sqrt(-3))/c = ((a + b) + 2b*w)/c  since sqrt(-3) = 1 + 2w
        a, b, symbol = a + b, 2 * b, "w"
    else:
        symbol = "i" if d == -1 else f"sqrt({d})"
    if not b:
        return _ratio(a, c)
    stem = symbol if abs(b) == c else f"{_ratio(abs(b), c)}*{symbol}"
    if not a:
        return stem if b > 0 else f"-{stem}"
    return f"{_ratio(a, c)} {'+' if b > 0 else '-'} {stem}"
