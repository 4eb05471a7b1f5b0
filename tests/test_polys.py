import random
from fractions import Fraction

import pytest

from quaddyn.curves import get_curve
from quaddyn.polys import (
    QQ,
    ExactnessError,
    PolyRing,
    QuadField,
    UniPoly,
    format_poly,
    poly_to_json,
)
from polys_helper import from_ints, poly_from_json
from ff_oracle import FFRing, FiniteField
from quaddyn.quadfield import QuadElem

F = Fraction
X = UniPoly.gen(QQ)


def test_divrem_symbolic_spec_example():
    # (x^4 + (2c-1) x^2 + c^2) / (x^2 - x + c) = x^2 + x + c exactly
    ring = PolyRing(QQ, "c")
    c = ring.gen()
    x = UniPoly.gen(ring, "x")

    def const(p):
        return UniPoly.const(ring, p, "x")

    num = x**4 + const(2 * c - ring.one) * x**2 + const(c * c)
    den = x * x - x + const(c)
    quot, rem = num.divrem(den)
    assert rem.is_zero()
    assert quot == x * x + x + const(c)


def test_gcd_example():
    assert (X**2 - 1).gcd(X**2 - X) == X - 1


def test_eval_x05_model_at_zero():
    f = get_curve("X0_5").curve.f
    assert f.eval(F(0)) == 1
    assert f.eval(F(-3)) == 1  # both finite rational points sit above y^2 = 1


def test_exact_div_raises_on_remainder():
    with pytest.raises(ExactnessError):
        (X**2 + 1).exact_div(X - 1)


def test_divrem_needs_invertible_lead_over_poly_ring():
    ring = PolyRing(QQ, "c")
    x = UniPoly.gen(ring, "x")
    c = UniPoly.const(ring, ring.gen(), "x")
    with pytest.raises(ZeroDivisionError):
        (x**2).divrem(c * x)  # leading coefficient c is not invertible in Q[c]


def test_compose_and_derivative():
    p = X**2 + 1
    assert p.compose(X + 1) == X**2 + 2 * X + 2
    assert p.derivative() == 2 * X


def test_resultant_and_squarefree():
    a = (X - 1) * (X - 2)
    b = (X - 1) * (X + 5)
    assert a.resultant(b) == 0
    assert (X**2 + 1).resultant(X**2 - 2) != 0
    p = (X - 1) ** 3 * (X + 2)
    assert p.squarefree_part() == (X - 1) * (X + 2)


def test_resultant_matches_root_product():
    # res(f, g) = lc(g)^deg f * prod f(roots of g) up to sign convention
    f = X**2 + 3
    g = (X - 1) * (X - 4)
    assert f.resultant(g) == f.eval(F(1)) * f.eval(F(4))


def test_zero_polynomial_invariants():
    z = UniPoly(QQ, ())
    assert z.is_zero() and z.degree() == -1
    assert (z + X) == X
    with pytest.raises(ValueError):
        z.lc()


def test_poly_over_quadfield_and_ff():
    K = QuadField(-1)
    x = UniPoly.gen(K)
    i = QuadElem(0, 1, -1)
    p = x * x + UniPoly.const(K, i)
    assert p.eval(i) == i - 1
    ring = FFRing(FiniteField(5))
    q = from_ints(ring, [1, 0, 1])
    assert q.eval(ring.field(2)).coords == (0,)
    assert q.gcd(from_ints(ring, [2, 1])) == from_ints(ring, [2, 1]).monic()


def test_text_and_json_round_trip():
    p = X**3 - F(1, 2) * X + 7
    assert format_poly(p) == "7 - 1/2*x + x^3"
    data = poly_to_json(p)
    assert poly_from_json(QQ, data) == p
    K = QuadField(-3)
    q = UniPoly(K, [QuadElem(F(1, 2), F(-1, 3), -3), K.one])
    assert poly_from_json(K, poly_to_json(q)) == q


def test_random_ring_laws():
    rng = random.Random(2)
    for _ in range(30):
        a = UniPoly(QQ, [F(rng.randint(-5, 5)) for _ in range(rng.randint(0, 5))])
        b = UniPoly(QQ, [F(rng.randint(-5, 5)) for _ in range(rng.randint(0, 5))])
        c = UniPoly(QQ, [F(rng.randint(-5, 5)) for _ in range(rng.randint(0, 5))])
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        if not b.is_zero():
            quot, rem = a.divrem(b)
            assert quot * b + rem == a
            assert rem.is_zero() or rem.degree() < b.degree()
