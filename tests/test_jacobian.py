import random
from fractions import Fraction

import pytest

from quaddyn.curves import get_curve, jacobian_orders
from quaddyn.jacobian import (
    JacModel,
    order3_certify,
    point_order,
    rebase_at,
)
from quaddyn.polys import QQ, QuadField, UniPoly
from ff_oracle import jacobian_order_enumerated
from quaddyn.quadfield import QuadElem, parse_elem

F = Fraction
K = QuadField(-1)


def q(a, b=0):
    return QuadElem(F(a), F(b), -1)


def x05_model() -> JacModel:
    f = get_curve("X0_5").curve.f.map_coeffs(K, lambda c: QuadElem(c, 0, -1))
    return JacModel(f)


def generators(model):
    X = model.x
    u2 = X * X + model.const(3) * X + model.const(F(1, 2))
    d2 = model.from_mumford(u2, model.const(q(0, F(1, 2))) * X)
    u3 = X * X + model.const(3) * X + model.const(q(1, -1))
    d3 = model.from_mumford(u3, model.const(q(-1, -1)) * X + model.const(q(-2, -1)))
    return d2, d3


def test_model_requires_sextic_with_square_lead():
    X = UniPoly.gen(QQ)
    with pytest.raises(ValueError):
        JacModel(X**5 + 1)
    with pytest.raises(ValueError):
        JacModel(3 * X**6 + X + 1)


def test_zero_and_negation():
    model = x05_model()
    d2, d3 = generators(model)
    assert model.zero().is_zero()
    assert (d2 - d2).is_zero()
    assert (d2 + (-d2)).is_zero()
    assert -(-d3) == d3


def test_from_points_cases():
    model = x05_model()
    p = (q(0), q(1))
    assert model.on_curve(*p)
    # {P, iota P} is the zero class
    assert model.from_points((q(0), q(1)), (q(0), q(-1))).is_zero()
    assert model.from_points("inf+", "inf-").is_zero()
    single = model.from_points((q(0), q(1)), "inf+")
    assert single.u.degree() == 1 and single.nplus == 1
    doubled = model.from_points(p, p)
    assert doubled.u.degree() == 2 and not doubled.is_zero()
    with pytest.raises(ValueError):
        model.from_points((q(1), q(1)), "inf+")  # not on the curve


def test_group_axioms_random():
    model = x05_model()
    d2, d3 = generators(model)
    pool = [d2, d3, model.from_points("inf+", "inf+"), d2 + d3, -d3, model.zero(), 2 * d2]
    rng = random.Random(13)
    for _ in range(20):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
    for k in range(6):
        a, b = rng.choice(pool), rng.choice(pool)
        assert k * (a + b) == k * a + k * b


def test_two_d3_is_d1_plus_d2():
    model = x05_model()
    d2, d3 = generators(model)
    d1 = model.from_points("inf+", "inf+")
    assert 2 * d3 == d1 + d2


def test_kernel_generator_minimal_polynomials():
    model = x05_model()
    d2, d3 = generators(model)
    base = (q(0), q(-1))
    u1, _ = rebase_at(d2, *base)
    assert u1.coeffs[1] == parse_elem("742/325 - 44/325*i", -1)
    assert u1.coeffs[0] == parse_elem("-512/325 - 66/325*i", -1)
    e2 = 19 * d3 - 9 * d2
    u2, _ = rebase_at(e2, *base)
    assert u2.coeffs[1] == parse_elem("7801337/2442505 - 1823949/2442505*i", -1)
    assert u2.coeffs[0] == parse_elem("948975/488501 + 120593/488501*i", -1)
    # D1 and D3 themselves are not in the kernel: their rebased supports
    # reduce to x = 1
    u_d1, _ = rebase_at(model.from_points("inf+", "inf+"), *base)
    assert u_d1.coeffs == (F(1, 3), F(4), F(1))
    u_d3, _ = rebase_at(d3, *base)
    assert u_d3.coeffs[1] == F(13, 5)
    assert u_d3.coeffs[0] == parse_elem("3/5 - 7/5*i", -1)


def test_order_21_at_infinity():
    model = JacModel(get_curve("X1_1_3").curve.f)
    inf_class = model.from_points("inf-", "inf-")
    assert point_order(inf_class, 50) == 21
    assert point_order(model.zero(), 10) == 1


def test_two_torsion_pair_has_order_two():
    # a sextic with a rational quadratic factor: its conjugate Weierstrass
    # pair with v = 0 is 2-torsion
    X = UniPoly.gen(QQ)
    f = (X * X + 1) * (X**4 + X + 1)
    model = JacModel(f)
    pair = model.from_mumford(X * X + 1, UniPoly(QQ, ()))
    assert point_order(pair, 5) == 2


def test_point_order_absent():
    model = x05_model()
    d2, _ = generators(model)
    assert point_order(d2, 25) is None  # infinite order generator


def test_point_order_bound_cap():
    model = x05_model()
    with pytest.raises(ValueError):
        point_order(model.zero(), 500)


def test_order3_certify_known_parameters():
    f18 = get_curve("X1_1_3").curve.f
    model = JacModel(f18)
    assert order3_certify(model, F(-1), F(1))
    assert not order3_certify(model, F(0), F(1))
    Kw = QuadField(-3)
    model_w = JacModel(f18.map_coeffs(Kw, lambda c: QuadElem(c, 0, -3)))
    w = QuadElem(F(-1, 2), F(1, 2), -3)
    assert order3_certify(model_w, -2 * (w + 1), w)
    assert order3_certify(model_w, -2 * (w * w + 1), w * w)


def test_global_torsion_divides_good_reduction_orders():
    # Z/21 inside J_1(1,3)(Q) must land inside J(F_p) for good p
    x113 = get_curve("X1_1_3").curve
    for p in (5, 11):
        assert jacobian_orders(x113, p)[0] % 21 == 0


def test_reduction_keeps_sums_on_the_curve():
    # 3 is inert in Q(i): reduce Mumford data into F_9 and check the image
    # of sums and scalar multiples still satisfies the curve congruence
    from ff_oracle import FiniteField
    from ff_oracle import FFRing

    model = x05_model()
    d2, d3 = generators(model)
    field = FiniteField(3, 2)
    ring = FFRing(field)
    f9 = UniPoly(ring, [field.from_fraction(c) for c in get_curve("X0_5").curve.f.coeffs])
    root_m1 = field.sqrt_of_int(-1 % 3)

    def red(c):
        return field.from_fraction(c.a) + field.from_fraction(c.b) * root_m1

    checked = 0
    for cls in (d2, d3, d2 + d3, 2 * d3, 3 * d2 - d3, d3 - d2):
        coeffs = list(cls.u.coeffs) + list(cls.v.coeffs)
        if any(c.a.denominator % 3 == 0 or c.b.denominator % 3 == 0 for c in coeffs):
            continue  # support meets infinity mod 3; representative degenerates
        u = UniPoly(ring, [red(c) for c in cls.u.coeffs])
        v = UniPoly(ring, [red(c) for c in cls.v.coeffs])
        assert u.degree() == cls.u.degree()  # good reduction of the support
        assert (f9 - v * v).divrem(u)[1].is_zero()
        checked += 1
    assert checked >= 4


def test_enumeration_oracle_matches_zeta_mod3():
    from ff_oracle import FiniteField

    x05 = get_curve("X0_5").curve
    assert jacobian_order_enumerated(x05.f, FiniteField(3)) == 9


def test_from_points_two_affine_points_is_a_sum_of_one_point_classes():
    model = x05_model()
    p, q_ = (q(0), q(1)), (q(-3), q(1))
    pair = model.from_points(p, q_)
    assert pair.u.degree() == 2 and (pair.nplus, pair.nminus) == (0, 0)
    assert pair == model.from_points(p, "inf+") + model.from_points(q_, "inf-")
