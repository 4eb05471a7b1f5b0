"""The divisor-class kernel of quaddyn.jacobian against the UniPoly oracle.

jacobian composes and reduces Mumford pairs on int triples; jacobian_oracle
runs the same Cantor routines on UniPoly over QuadElem and Fraction.  Sums,
multiples and negations must give the same normal form (u, v, n+, n-) under
both, on registry models and on random sextics over Q, Q(i), Q(w) and Q(sqrt(2)).
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jacobian_oracle as oracle
from polys_oracle import derivative, gcd
from quaddyn import jacobian
from quaddyn.curves import get_curve
from quaddyn.jacobian import JacModel
from quaddyn.polys import QQ, QuadField, UniPoly
from quaddyn.quadfield import QuadElem

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)
FIELDS = (None, -1, -3)  # Q, Q(i), Q(w)
SEXTIC_FIELDS = FIELDS + (2,)  # a real field too: there a norm can be negative


def ring_of(d):
    return QQ if d is None else QuadField(d)


def over(f: UniPoly, d) -> UniPoly:
    return f if d is None else f.map_coeffs(QuadField(d), lambda c: QuadElem(c, 0, d))


def assert_engines_agree(model, k1, D1, k2, D2):
    got = k1 * D1 + k2 * D2
    want = oracle.add(model, oracle.mul(model, k1, oracle.normal_form(D1)),
                      oracle.mul(model, k2, oracle.normal_form(D2)))
    assert oracle.normal_form(got) == want
    assert oracle.normal_form(-got) == oracle.neg(want)
    rebuilt = model.from_mumford(*want)  # the kernel form read from the oracle's UniPolys
    assert got == rebuilt and hash(got) == hash(rebuilt) and repr(got) == repr(rebuilt)


def x05_classes(d):
    """D2, D3 of the Flynn-Poonen-Schaefer generators over Q(i), or inf classes over Q."""
    model = JacModel(over(get_curve("X0_5").curve.f, d))
    if d is None:
        return model, [model.from_points("inf+", "inf+"), model.from_points("inf-", "inf-")]
    X = model.x
    d2 = model.from_mumford(X * X + model.const(3) * X + model.const(Fraction(1, 2)),
                            model.const(QuadElem(0, Fraction(1, 2), -1)) * X)
    d3 = model.from_mumford(X * X + model.const(3) * X + model.const(QuadElem(1, -1, -1)),
                            model.const(QuadElem(-1, -1, -1)) * X
                            + model.const(QuadElem(-2, -1, -1)))
    return model, [d2, d3, model.from_points("inf+", "inf+")]


def x113_classes(d):
    model = JacModel(over(get_curve("X1_1_3").curve.f, d))
    return model, [model.from_points("inf-", "inf-"), model.from_points("inf+", "inf+")]


@pytest.mark.parametrize("make, d", [(x05_classes, -1), (x05_classes, None),
                                     (x113_classes, None), (x113_classes, -3),
                                     (x113_classes, -1)])
def test_registry_models_match_the_oracle(make, d):
    model, pool = make(d)
    for i, D1 in enumerate(pool):
        for D2 in pool[i:]:
            for k1, k2 in ((1, 1), (2, -1), (-3, 2), (5, 4), (-7, -6)):
                assert_engines_agree(model, k1, D1, k2, D2)


@st.composite
def sextic_with_classes(draw):
    """A squarefree sextic y^2 = f over K with two affine classes D1, D2 on it.

    f = v^2 + u1 u2 h for monic quadratics u1, u2 and a cubic v, with lc(f)
    = s^2; then (u_i, v mod u_i) is a Mumford pair on f.  All coefficients
    are small and integral.
    """
    d = draw(st.sampled_from(SEXTIC_FIELDS))
    ring = ring_of(d)
    small = st.integers(-3, 3)

    def poly(deg, lead=None):
        coeffs = []
        for _ in range(deg + (lead is None)):
            a = draw(small)
            coeffs.append(ring.of(a) if d is None else QuadElem(a, draw(small), d))
        return UniPoly(ring, coeffs + ([] if lead is None else [ring.of(lead)]))

    u1, u2, v = poly(2, 1), poly(2, 1), poly(3)
    s = draw(st.integers(1, 3))
    h = poly(1) + UniPoly(ring, [ring.zero, ring.zero, ring.of(s * s) - v.coeff(3) * v.coeff(3)])
    f = v * v + u1 * u2 * h
    assume(f.degree() == 6 and gcd(f, derivative(f)).degree() == 0)
    model = JacModel(f)
    pool = [model.from_mumford(u1, v), model.from_mumford(u2, v),
            model.from_points("inf+", "inf+"), model.from_points("inf-", "inf-")]
    D1, D2 = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    return model, D1, D2


@DETERMINISTIC
@given(sextic_with_classes(), st.integers(-7, 7), st.integers(-7, 7))
def test_random_sextics_match_the_oracle(case, k1, k2):
    model, D1, D2 = case
    assert_engines_agree(model, k1, D1, k2, D2)


@pytest.mark.parametrize("d", FIELDS)
def test_infinity_difference_on_x1_1_3_has_21_classes(d):
    # <inf- - inf+>, in normal form {inf-, inf-}: the lower bound for J(K)_tors
    model = JacModel(over(get_curve("X1_1_3").curve.f, d))
    D = model.from_points("inf-", "inf-")
    seen, cur = [], model.zero()
    for _ in range(21):
        seen.append(cur)
        cur = cur + D
    assert cur.is_zero() and (21 * D).is_zero()
    assert len(set(seen)) == 21
    assert [k for k, cls in enumerate(seen) if cls.is_zero()] == [0]


def test_compose_and_reduce_do_no_quadelem_or_unipoly_arithmetic(monkeypatch):
    model, (d2, d3, _) = x05_classes(-1)
    expected = d2 + d3
    # D2 and D3 of x05_classes in kernel form: (a + b i)/c as (a, b, c)
    u2, v2 = [(1, 0, 2), (3, 0, 1), (1, 0, 1)], [(0, 0, 1), (0, 1, 2)]
    u3, v3 = [(1, -1, 1), (3, 0, 1), (1, 0, 1)], [(-2, -1, 1), (-1, -1, 1)]

    def forbidden(*args):
        raise AssertionError("QuadElem or UniPoly arithmetic in the kernel")

    for cls, name in ((QuadElem, "__add__"), (QuadElem, "__mul__"), (QuadElem, "__truediv__"),
                      (UniPoly, "__mul__"), (UniPoly, "divrem")):
        monkeypatch.setattr(cls, name, forbidden)
    (u, v), cancelled = jacobian._compose(model, (u2, v2), (u3, v3))
    got = jacobian._reduce(model, u, v, cancelled, cancelled, 2)
    monkeypatch.undo()
    assert got == expected
    assert oracle.normal_form(got) == oracle.normal_form(expected)
