"""Small finite fields F_p and F_{p^2} with full enumeration.

F_{p^2} is realized as F_p[t]/(t^2 - n) for the smallest positive quadratic
non-residue n mod p, so field construction is reproducible.  Elements are
immutable (field, coords) pairs; p is expected to be small (point counting
enumerates the whole field).
"""

from __future__ import annotations

from fractions import Fraction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p, values in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def smallest_nonresidue(p: int) -> int:
    if p == 2:
        raise ValueError("F_4 is not of the form F_2[t]/(t^2 - n)")
    n = 2
    while legendre(n, p) != -1:
        n += 1
    return n


def sqrt_mod_p(a: int, p: int) -> int | None:
    """Smallest square root of a mod p (Tonelli-Shanks), or None."""
    a %= p
    if p == 2 or a == 0:
        return a
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = smallest_nonresidue(p)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, idx = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            idx += 1
        b = pow(c, 1 << (m - idx - 1), p)
        m, c = idx, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


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


def reduce_fraction(x, p: int) -> int:
    """Residue of a rational mod p; errors when the denominator vanishes."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def reduce_quad(x, field: FiniteField) -> FFElem:
    """Ring homomorphism Q(sqrt(d)) -> F_{p^deg}, sending sqrt(d) to a fixed root."""
    rd = field.sqrt_of_int(x.d % field.p)
    return field.from_fraction(x.a) + field.from_fraction(x.b) * rd
