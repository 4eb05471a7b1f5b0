import math
from fractions import Fraction

import pytest

from quaddyn.curves import (
    HypCurve,
    WeierstrassCurve,
    _Fq,
    _good_reduction,
    count_points_ff,
    curve_genus,
    elliptic_count,
    elliptic_group_structure,
    get_curve,
    jacobian_orders,
    load_registry,
    torsion_bound,
    weierstrass_and_2torsion,
)
from ff_oracle import FiniteField, jacobian_order_enumerated
from quaddyn.polys import QQ, UniPoly
from quaddyn.quadfield import QuadElem

F = Fraction
X = UniPoly.gen(QQ)


def test_genus_examples():
    assert curve_genus(get_curve("X1_4").curve) == 2  # quintic model
    assert curve_genus(get_curve("8(1,1)b").curve) == 1
    assert curve_genus(HypCurve(f=X**2 - 1)) == 0
    assert curve_genus(get_curve("X_good").curve) == 2


def test_squarefree_model_required():
    with pytest.raises(ValueError):
        HypCurve(f=(X - 1) ** 2 * (X + 1))


@pytest.mark.parametrize("model", [dict(f=X**6 + 3 * X + 1, h=X), dict(f=X**6 + 3 * X + 1, g=X),
                                   dict(h=X), dict()])
def test_a_model_is_an_f_or_a_g_h_pair(model):
    # an f-model has no h: y^2 = f(x) would ignore it while curve.h still returned it
    with pytest.raises(ValueError, match=r"give exactly one of f or \(g, h\)"):
        HypCurve(**model)


def test_good_model_count_over_f2():
    curve = get_curve("X_good").curve
    assert count_points_ff(curve, 2, 1) == 6
    # the four affine points are (0,0), (0,1), (1,1), (1,0); two more at infinity
    field = FiniteField(2)
    affine = {
        (x.coords[0], y.coords[0])
        for x in field.elements()
        for y in field.elements()
        if (y * y + field.from_fraction(curve.h.eval(F(x.coords[0]))) * y
            - field.from_fraction(curve.g.eval(F(x.coords[0])))).is_zero()
    }
    assert affine == {(0, 0), (0, 1), (1, 1), (1, 0)}


def test_bad_reduction_rejected():
    with pytest.raises(ValueError):
        count_points_ff(get_curve("X0_5").curve, 2, 1)  # f model is bad at 2
    curve = HypCurve(f=X**3 + 1)
    with pytest.raises(ValueError):
        count_points_ff(curve, 3, 1)  # x^3 + 1 is not squarefree mod 3


def test_elliptic_count_example():
    curve = WeierstrassCurve(0, 0, 0, 0, 1)  # y^2 = x^3 + 1
    assert elliptic_count(curve, 5, 1) == 6


def test_jacobian_orders_pinned():
    assert jacobian_orders(get_curve("X0_5").curve, 3) == (9, 81)
    assert jacobian_orders(get_curve("X0_5").curve, 5) == (41, 1189)
    assert jacobian_orders(get_curve("X1_2_3").curve, 3)[1] == 57
    assert jacobian_orders(get_curve("X1_2_3").curve, 5)[1] == 361
    assert jacobian_orders(get_curve("X1_(2,3)").curve, 3)[1] == 81
    assert jacobian_orders(get_curve("X1_(2,3)").curve, 5)[1] == 817
    assert jacobian_orders(get_curve("X1_4").curve, 3)[1] == 80
    assert jacobian_orders(get_curve("X1_4").curve, 5)[1] == 640  # 2^7 * 5
    assert jacobian_orders(get_curve("X1_1_3").curve, 5)[1] == 441


def test_jacobian_orders_pinned_at_large_primes():
    # inert in Q(i) and in Q(w): the counts over F_{p^2} behind a per-field bound
    x113 = get_curve("X1_1_3").curve
    assert jacobian_orders(x113, 97) == (9828, 86958144)
    assert jacobian_orders(x113, 997) == (965853, 986851610073)


def test_odd_counts_build_their_constants_once_and_draw_no_f_q_values(monkeypatch):
    lazy = ("_integral_square", "_norm_form", "_bad_reduction_integer")
    fresh = load_registry.__wrapped__()  # a registry no other test has counted on
    assert not any(name in vars(entry.curve) for entry in fresh.values() for name in lazy)

    def values(self, poly):
        raise AssertionError("an odd-p count evaluated F over F_q")

    monkeypatch.setattr(_Fq, "values", values)
    curve = fresh["X1_1_3"].curve
    jacobian_orders(curve, 23)
    built = {name: vars(curve)[name] for name in lazy}
    jacobian_orders(curve, 29)
    assert all(vars(curve)[name] is built[name] for name in lazy)


def test_odd_counts_need_genus_at_most_2():
    curve = HypCurve(f=X**7 + 1)
    assert curve.genus() == 3
    with pytest.raises(ValueError, match="genus <= 2"):
        count_points_ff(curve, 3, 1)


def test_elliptic_structures_pinned():
    e17 = get_curve("E17").curve
    e40 = get_curve("E40").curve
    assert elliptic_group_structure(e17, 3, 2) == (4, 4)
    assert elliptic_group_structure(e17, 5, 2) == (2, 16)
    assert elliptic_group_structure(e40, 3, 2) == (4, 4)
    assert elliptic_group_structure(e40, 17, 2) == (2, 160)


def test_torsion_bounds():
    assert torsion_bound(get_curve("X0_5").curve, [3, 5]) == 1
    assert torsion_bound(get_curve("X1_2_3").curve, [3, 5]) == 19
    assert torsion_bound(get_curve("X1_(2,3)").curve, [3, 5]) == 1
    # genus-1 models reduce to point counts
    bound = torsion_bound(get_curve("E17").curve, [3, 5])
    assert bound == 16  # gcd(16, 32)


def test_torsion_bound_rejects_an_empty_prime_list():
    # the gcd over no prime would read 0, which is not a bound
    with pytest.raises(ValueError, match="at least one prime"):
        torsion_bound(get_curve("X0_5").curve, [])


@pytest.mark.parametrize("deg", [0, 3, -1])
def test_torsion_bound_rejects_other_degrees(deg):
    with pytest.raises(ValueError, match=f"deg must be 1 or 2, got {deg}"):
        torsion_bound(get_curve("X0_5").curve, [3], deg)


def test_zeta_vs_enumeration_oracle():
    x05 = get_curve("X0_5").curve
    assert jacobian_order_enumerated(x05.f, FiniteField(3)) == jacobian_orders(x05, 3)[0]
    good = get_curve("X_good").curve
    assert jacobian_order_enumerated((good.g, good.h), FiniteField(2)) == 19


def test_weierstrass_and_2torsion_table():
    x14 = get_curve("X1_4").curve
    for d, npts, nclasses in ((-1, 4, 8), (2, 4, 8), (5, 2, 4), (-3, 2, 4), (7, 2, 4)):
        pts, classes = weierstrass_and_2torsion(x14, d)
        assert len(pts) == npts
        assert len(classes) == nclasses
        assert classes[0] == ()  # the zero class
    pts, classes = weierstrass_and_2torsion(x14, -1)
    assert pts[0].kind == "inf"
    xs = {p.x for p in pts if p.kind == "affine"}
    assert QuadElem(0, 0, -1) in xs and QuadElem(0, 1, -1) in xs


def test_two_torsion_from_a_quartic_that_splits_over_k():
    # x^5 + x = x (x^4 + 1), and x^4 + 1 is irreducible over Q
    curve = HypCurve(f=X**5 + X)
    i, r2, rm2 = QuadElem(0, 1, -1), QuadElem(0, 1, 2), QuadElem(0, 1, -2)
    splits = {-1: [(i, 0), (-i, 0)], 2: [(1, r2), (1, -r2)], -2: [(-1, rm2), (-1, -rm2)]}
    for d, factors in splits.items():
        points, classes = weierstrass_and_2torsion(curve, d)
        assert repr(points) == "[inf, (QuadElem('0'), QuadElem('0'))]"
        # J[2](K) = {0, [inf - (0,0)], and the root pairs of the two factors}
        assert len(classes) == 4 and classes[:2] == [(), tuple(points)]
        for (q, minus_s), cls in zip(factors, classes[2:]):
            assert [pt.kind for pt in cls] == ["root", "root"]
            assert cls[0].x.coeffs == (q, minus_s, 1)
    assert repr(weierstrass_and_2torsion(curve, -1)[1][2]) == (
        "((root+ of i + x^2, QuadElem('0')), (root- of i + x^2, QuadElem('0')))")
    for d in (-3, 5, -7):  # x^4 + 1 stays irreducible: the Q-level classes
        assert len(weierstrass_and_2torsion(curve, d)[1]) == 2


def test_two_torsion_partition_is_nested():
    x14 = get_curve("X1_4").curve

    def keyset(classes):
        out = set()
        for cls in classes:
            if cls == ():
                out.add(("O",))
            else:
                out.add(tuple(sorted(repr(p) for p in cls)))
        return out

    base = keyset(weierstrass_and_2torsion(x14, 7)[1])
    for d in (-1, 2):
        bigger = keyset(weierstrass_and_2torsion(x14, d)[1])
        assert base <= bigger


def test_registry_aliases():
    registry = load_registry()
    assert registry["X1_13"] is registry["X1_2_3"]
    assert registry["8(3)"] is registry["X1_(2,3)"]
    assert registry["17A4"] is registry["E17"]
    with pytest.raises(KeyError):
        get_curve("X9_99")


def test_c_map_evaluation():
    entry = get_curve("X1_4")
    i = QuadElem(0, 1, -1)
    c_plus = entry.c_value(i)
    c_minus = entry.c_value(-i)
    expected = {QuadElem(F(1, 4), F(1, 2), -1), QuadElem(F(1, 4), F(-1, 2), -1)}
    assert {c_plus, c_minus} == expected


@pytest.mark.parametrize("name", ["8(1,1)a", "8(1,1)b"])
@pytest.mark.parametrize("deg", [1, 2])
def test_genus1_torsion_bound_is_the_gcd_of_direct_counts(name, deg):
    curve = get_curve(name).curve
    assert curve.genus() == 1
    counts = [count_points_ff(curve, p, deg) for p in (5, 7)]
    assert torsion_bound(curve, [5, 7], deg) == math.gcd(*counts)


def test_reduction_at_2_is_exact():
    one = UniPoly.const(QQ, F(1))
    # smooth over F_2 and F_4, singular at the three points with x^3 + x + 1 = 0
    # over F_8, where h = 0 and g'^2 + h'^2 g = 0
    curve = HypCurve(g=X**4 + X**3, h=X**3 + X + one)
    assert not _good_reduction(curve, 2)
    with pytest.raises(ValueError, match="bad reduction at 2"):
        count_points_ff(curve, 2, 1)
    assert _good_reduction(get_curve("X_good").curve, 2)
    assert not _good_reduction(get_curve("X0_5").curve, 2)  # an f-model is bad at 2
    # genus 1: y^2 + y = x^3 is smooth at 2, its chart at infinity is (u^2, u)
    e = HypCurve(g=X**3, h=one)
    assert _good_reduction(e, 2)
    for deg in (1, 2):
        assert count_points_ff(e, 2, deg) == elliptic_count(WeierstrassCurve(0, 0, 1, 0, 0), 2, deg)


# (p, structure over F_p, structure over F_{p^2}) at every good p <= 50
STRUCTURES = {
    "E17": [(2, (1, 4), (1, 8)), (3, (1, 4), (4, 4)), (5, (1, 8), (2, 16)), (7, (1, 4), (4, 12)),
            (11, (1, 12), (12, 12)), (13, (2, 8), (4, 48)), (19, (2, 12), (8, 48)),
            (23, (1, 20), (4, 140)), (29, (1, 24), (6, 144)), (31, (1, 28), (4, 252)),
            (37, (1, 40), (2, 720)), (41, (1, 48), (6, 288)), (43, (2, 20), (8, 240)),
            (47, (2, 24), (48, 48))],
    "E40": [(3, (1, 4), (4, 4)), (7, (1, 12), (4, 12)), (11, (2, 4), (8, 16)),
            (13, (1, 16), (2, 96)), (17, (1, 16), (2, 160)), (19, (2, 8), (8, 48)),
            (23, (1, 20), (4, 140)),
            (29, (2, 16), (4, 224)), (31, (2, 20), (8, 120)), (37, (1, 32), (2, 704)),
            (41, (2, 24), (12, 144)), (43, (1, 52), (4, 468)), (47, (1, 44), (4, 572))],
}


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_elliptic_structures_at_every_good_prime_up_to_50(name):
    curve = get_curve(name).curve
    primes = [p for p in range(2, 51) if all(p % q for q in range(2, p))]
    table = STRUCTURES[name]
    assert [p for p, _, _ in table] == [p for p in primes if _good_reduction(curve, p)]
    for p, over_p, over_p2 in table:
        assert elliptic_group_structure(curve, p, 1) == over_p, p
        assert elliptic_group_structure(curve, p, 2) == over_p2, p
        assert over_p[0] * over_p[1] == elliptic_count(curve, p, 1)
        assert over_p2[0] * over_p2[1] == elliptic_count(curve, p, 2)


@pytest.mark.parametrize("p, deg", [(3, 3), (3, 0), (2, 3), (5, -1)])
def test_count_points_ff_rejects_other_degrees(p, deg):
    # F_27 would be counted as F_9 if the odd-p path read deg 3 as deg 2
    with pytest.raises(ValueError, match="deg must be 1 or 2"):
        count_points_ff(get_curve("X1_4").curve, p, deg)


def test_count_points_ff_checks_primality_before_degree():
    with pytest.raises(ValueError, match="9 is not prime"):
        count_points_ff(get_curve("X1_4").curve, 9, 3)
