"""Polynomial constructors that only the tests use."""

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
