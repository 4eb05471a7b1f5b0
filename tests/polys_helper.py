"""Polynomial constructors and rings that only the tests use."""

from fractions import Fraction

from quaddyn.polys import QuadField, UniPoly
from quaddyn.quadfield import parse_elem


def from_ints(ring, ints, var: str = "x") -> UniPoly:
    return UniPoly(ring, [ring.of(n) for n in ints], var)


def poly_from_json(ring, data: list, var: str = "x") -> UniPoly:
    """The inverse of quaddyn.polys.poly_to_json."""
    coeffs = []
    for item in data:
        if isinstance(item, int):
            coeffs.append(ring.of(item))
        elif isinstance(ring, QuadField):
            coeffs.append(parse_elem(str(item), ring.d))
        else:
            coeffs.append(Fraction(str(item)))
    return UniPoly(ring, coeffs, var)


class PolyRing:
    """Coefficients that are themselves polynomials (e.g. Q[c]).

    src/ builds the symbolic dynatomic polynomials over Z[c][x] on int lists;
    the oracle in tests/dynatomic_oracle.py builds them over this ring.
    """

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
