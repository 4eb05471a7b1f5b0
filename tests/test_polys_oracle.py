"""The integer curve constants against Euclid over Q (tests/polys_oracle.py).

_zresultant (the Bareiss Sylvester determinant), the squarefree test of
HypCurve (z_gcd) and the Taylor-row shift of the Chabauty model run on
int lists; the oracle runs the Fraction Euclidean algorithm on UniPoly.
"""

import math
import random
from fractions import Fraction

import pytest

from quaddyn.chabauty import _shift_poly
from quaddyn.curves import HypCurve, load_registry
from quaddyn.factor import _mul, _taylor, _zresultant
from quaddyn.polys import QQ, UniPoly
from polys_oracle import derivative, resultant, squarefree_part

X = UniPoly.gen(QQ)


def as_poly(ints) -> UniPoly:
    return UniPoly(QQ, [Fraction(c) for c in ints])


def random_ints(rng: random.Random, degree: int, size: int = 9) -> list:
    """An int list of the given degree (-1 is the zero polynomial)."""
    if degree < 0:
        return []
    lead = rng.choice([-1, 1]) * rng.randint(1, size)
    return [rng.randint(-size, size) for _ in range(degree)] + [lead]


def test_zresultant_is_the_euclidean_resultant_on_random_pairs():
    rng = random.Random(40)
    cases = {"zero": 0, "constant": 0, "common factor": 0}
    for trial in range(2400):
        a, b = random_ints(rng, rng.randint(-1, 7)), random_ints(rng, rng.randint(-1, 7))
        if trial % 4 == 0:  # a forced common factor of degree 1..3
            common = random_ints(rng, rng.randint(1, 3), 4)
            a, b = _mul(a or [1], common), _mul(b or [1], common)
        cases["zero"] += not a or not b
        cases["constant"] += len(a) == 1 or len(b) == 1
        cases["common factor"] += trial % 4 == 0
        assert _zresultant(a, b) == resultant(as_poly(a), as_poly(b)), (a, b)
    assert min(cases.values()) >= 100, cases


def test_zresultant_edges():
    assert _zresultant([], [1, 1]) == _zresultant([3], []) == 0
    assert _zresultant([5], [7]) == 1
    assert _zresultant([2], [1, 0, 1]) == 4 and _zresultant([0, 0, 1], [3]) == 9
    # res(x - a, x - b) = a - b, and swapping odd-degree arguments flips the sign
    assert _zresultant([-2, 1], [-7, 1]) == -5 and _zresultant([-7, 1], [-2, 1]) == 5


def test_bad_reduction_integer_of_every_registry_model():
    for entry in {e.name: e for e in load_registry.__wrapped__().values()}.values():
        D, fz = entry.curve._integral_square
        F = as_poly(fz)
        assert entry.curve._bad_reduction_integer == D * resultant(F, derivative(F)), entry.name


def squarefree_by_euclid(F: UniPoly) -> bool:
    return not F.is_zero() and squarefree_part(F) == F.monic()


def accepted(**model) -> bool:
    try:
        HypCurve(**model)
    except ValueError as exc:
        assert str(exc) == "defining data is not squarefree"
        return False
    return True


def small_poly(rng: random.Random, max_degree: int) -> UniPoly:
    return UniPoly(QQ, [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
                        for _ in range(rng.randint(0, max_degree + 1))])


def test_hypcurve_accepts_exactly_the_squarefree_models():
    rng = random.Random(41)
    verdicts = {True: 0, False: 0}
    for trial in range(600):
        if trial % 3 == 0:  # a repeated factor
            f = small_poly(rng, 2) * small_poly(rng, 1) ** 2
        else:
            f = small_poly(rng, 6)
        verdict = squarefree_by_euclid(f)
        assert accepted(f=f) == verdict, f
        verdicts[verdict] += 1
        g, h = small_poly(rng, 6), small_poly(rng, 3)
        if trial % 3 == 1:  # 4 g + h^2 = h^2 (x - r)^2
            r = Fraction(rng.randint(-3, 3))
            g = h * h * ((X - r) ** 2 - 1) * Fraction(1, 4)
        verdict = squarefree_by_euclid(g * 4 + h * h)
        assert accepted(g=g, h=h) == verdict, (g, h)
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 100, verdicts


@pytest.mark.parametrize("shift", [-3, -1, 0, 2, 5])
def test_the_integer_shift_is_composition_with_x_plus_a(shift):
    rng = random.Random(42 + shift)
    for _ in range(40):
        p = small_poly(rng, 7)
        assert as_poly(_shift_poly(p.coeffs, shift)) == p.compose(X + shift), p
    good = load_registry()["X_good"].curve
    for poly in (good.g, good.h):
        assert as_poly(_shift_poly(poly.coeffs, shift)) == poly.compose(X + shift)


def test_taylor_rows_are_the_scaled_derivatives():
    rng = random.Random(43)
    for _ in range(50):
        a = random_ints(rng, rng.randint(0, 7))
        dk = as_poly(a)  # the k-th derivative of a
        for k, row in enumerate(_taylor(a)):
            assert as_poly(row) * math.factorial(k) == dk
            dk = derivative(dk)
        assert dk.is_zero()
