"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is exact (no tolerances anywhere).
"""

import random
import time
from collections import Counter
from fractions import Fraction

from quaddyn.chabauty import expand_differentials, full_theorem
from quaddyn.curves import (
    elliptic_group_structure,
    get_curve,
    jacobian_orders,
    weierstrass_and_2torsion,
)
from quaddyn.dynatomic import dn_rn, dynatomic, gen_dynatomic
from dynatomic_oracle import verify_factorizations
from quaddyn.factor import roots_in_quadfield
from factor_oracle import factor_rational
from ff_oracle import FiniteField, jacobian_order_enumerated
from quaddyn.graphcat import canonical_code, classify
from quaddyn.jacobian import JacModel, order3_certify, point_order, rebase_at
from quaddyn.orbit import build_graph, cycle_structure
from quaddyn.polys import QQ, QuadField, UniPoly
from quaddyn.quadfield import QuadElem, parse_elem, quad_sqrt

F = Fraction


def ok(number: int, message: str) -> None:
    print(f"[acceptance] criterion {number} PASS: {message}")


# criterion 1 ----------------------------------------------------------------

TABLE3 = [
    ("0", -1, "2", 0, (), ()),
    ("3(2)", -1, "-1", 3, (2,), ("0", "1")),
    ("4(1)", -3, "1/4", 4, (1,), ("1/2", "1/2 + w")),
    ("4(1,1)", -1, "-6", 4, (1, 1), ("2", "3")),
    ("4(2)", -1, "-3", 4, (2,), ("1", "2")),
    ("5(1,1)a", -1, "-2", 5, (1, 1), ("0", "1", "2")),
    ("5(1,1)b", -1, "0", 5, (1, 1), ("0", "1", "i")),
    ("5(2)a", -1, "i", 5, (2,), ("0", "i", "-1 + i")),
    ("6(1,1)", -1, "-10/9", 6, (1, 1), ("2/3", "4/3", "5/3")),
    ("6(2)", -1, "-13/9", 6, (2,), ("1/3", "4/3", "5/3")),
    ("6(2,1)", -1, "1/4", 6, (1, 2), ("1/2", "-1/2 + i", "1/2 + i")),
    ("6(3)", -1, "-301/144", 6, (3,), ("5/12", "19/12", "23/12")),
    ("7(2,1,1)a", -3, "0", 7, (1, 1, 2), ("0", "1", "w", "1 + w")),
    ("8(2)a", -3, "-5/12", 8, (2,),
     ("1/6 - 2/3*w", "5/6 + 2/3*w", "5/6 - 1/3*w", "7/6 + 1/3*w")),
    ("8(2,1,1)", -1, "-21/16", 8, (1, 1, 2), ("1/4", "3/4", "5/4", "7/4")),
    ("8(3)", -1, "-29/16", 8, (3,), ("1/4", "3/4", "5/4", "7/4")),
    ("10(2,1,1)a", -1, "-1/4 + 3/8*i", 10, (1, 1, 2),
     ("1/4 - 1/4*i", "1/4 + 3/4*i", "3/4 + 1/4*i", "3/4 - 3/4*i", "5/4 - 1/4*i")),
]


def test_criterion_1_table_3_reproduction():
    classify(build_graph(parse_elem("2", -1), -1, 2))  # warm the catalog cache
    worst = 0.0
    for label, d, c_text, size, cycles, generators in TABLE3:
        started = time.monotonic()
        c = parse_elem(c_text, d)
        graph = build_graph(c, d)
        assert graph.size() == size, label
        assert cycle_structure(graph) == cycles, label
        expected = set()
        for text in generators:
            p = parse_elem(text, d)
            expected.add(p)
            expected.add(-p)
        assert set(graph.vertices) == expected, label
        assert classify(graph) == label
        elapsed = time.monotonic() - started
        worst = max(worst, elapsed)
        assert elapsed < 2.0, f"{label} took {elapsed:.2f}s"
    ok(1, f"all 17 Table-3 rows reproduced exactly (worst row {worst:.2f}s)")


# criterion 2 ----------------------------------------------------------------


def test_criterion_2_dynatomic_identities():
    report = verify_factorizations(6, 3)
    assert all(report.values()) and len(report) >= 6
    assert [dn_rn(n)[0] for n in range(1, 7)] == [2, 2, 6, 12, 30, 54]
    # over Z[c][x]: x-coefficients, constant first, each an int tuple in c
    assert dynatomic(1) == ((0, 1), (-1,), (1,))  # x^2 - x + c
    assert dynatomic(2) == ((1, 1), (1,), (1,))  # x^2 + x + c + 1
    assert gen_dynatomic(1, 1) == ((0, 1), (1,), (1,))  # x^2 + x + c
    ok(2, "f^N - x factorization for N <= 6; d(N) = (2,2,6,12,30,54); pinned polynomials")


# criterion 3 ----------------------------------------------------------------


def test_criterion_3_finite_field_counts():
    assert jacobian_orders(get_curve("X0_5").curve, 3)[1] == 81
    assert jacobian_orders(get_curve("X0_5").curve, 5)[1] == 1189
    assert jacobian_orders(get_curve("X1_2_3").curve, 3)[1] == 57
    assert jacobian_orders(get_curve("X1_2_3").curve, 5)[1] == 361
    assert jacobian_orders(get_curve("X1_(2,3)").curve, 3)[1] == 81
    assert jacobian_orders(get_curve("X1_(2,3)").curve, 5)[1] == 817
    assert jacobian_orders(get_curve("X1_4").curve, 3)[1] == 80
    assert jacobian_orders(get_curve("X1_1_3").curve, 5)[1] == 441  # (Z/3)^2+(Z/7)^2
    ok(3, "Jacobian orders over F_9/F_25 match: 81, 1189, 57, 361, 81, 817, 80, 441")


# criterion 4 ----------------------------------------------------------------


def test_criterion_4_elliptic_structures():
    e17, e40 = get_curve("E17").curve, get_curve("E40").curve
    assert elliptic_group_structure(e17, 3, 2) == (4, 4)
    assert elliptic_group_structure(e17, 5, 2) == (2, 16)
    assert elliptic_group_structure(e40, 3, 2) == (4, 4)
    assert elliptic_group_structure(e40, 17, 2) == (2, 160)
    ok(4, "E17: (4,4) / (2,16); E40: (4,4) / (2,160)")


# criterion 5 ----------------------------------------------------------------


def test_criterion_5_two_torsion_fields():
    x14 = get_curve("X1_4").curve
    counts = {}
    keysets = {}
    for d in (-1, 2, 7):
        pts, classes = weierstrass_and_2torsion(x14, d)
        counts[d] = len(classes)
        keysets[d] = {
            ("O",) if cls == () else tuple(sorted(repr(p) for p in cls)) for cls in classes
        }
    assert counts[7] == 4  # a field with no new Weierstrass points: the Q-level
    assert counts[-1] == 8 and counts[2] == 8
    assert keysets[7] <= keysets[-1] and keysets[7] <= keysets[2]
    assert keysets[-1] != keysets[2]  # the two enlargements are different rows
    ok(5, "J_1(4)[2]: 4 classes over Q, 8 over Q(i), 8 over Q(sqrt(2)), nested as in the table")


# criterion 6 ----------------------------------------------------------------


def test_criterion_6_divisor_arithmetic():
    model18 = JacModel(get_curve("X1_1_3").curve.f)
    assert point_order(model18.from_points("inf-", "inf-"), 50) == 21

    assert order3_certify(model18, F(-1), F(1))
    Kw = QuadField(-3)
    model18w = JacModel(get_curve("X1_1_3").curve.f.map_coeffs(
        Kw, lambda q: QuadElem(q, 0, -3)))
    w = QuadElem(F(-1, 2), F(1, 2), -3)
    assert order3_certify(model18w, -2 * (w + 1), w)
    assert order3_certify(model18w, -2 * (w * w + 1), w * w)

    K = QuadField(-1)
    model = JacModel(get_curve("X0_5").curve.f.map_coeffs(K, lambda q: QuadElem(q, 0, -1)))
    X = model.x
    d2 = model.from_mumford(
        X * X + model.const(3) * X + model.const(F(1, 2)),
        model.const(QuadElem(0, F(1, 2), -1)) * X,
    )
    d3 = model.from_mumford(
        X * X + model.const(3) * X + model.const(QuadElem(1, -1, -1)),
        model.const(QuadElem(-1, -1, -1)) * X + model.const(QuadElem(-2, -1, -1)),
    )
    d1 = model.from_points("inf+", "inf+")
    assert 2 * d3 == d1 + d2

    base = (QuadElem(0, 0, -1), QuadElem(-1, 0, -1))
    u1, _ = rebase_at(d2, *base)
    assert u1.coeffs[1] == parse_elem("742/325 - 44/325*i", -1)
    assert u1.coeffs[0] == parse_elem("-512/325 - 66/325*i", -1)
    u2, _ = rebase_at(19 * d3 - 9 * d2, *base)
    assert u2.coeffs[1] == parse_elem("7801337/2442505 - 1823949/2442505*i", -1)
    assert u2.coeffs[0] == parse_elem("948975/488501 + 120593/488501*i", -1)
    ok(6, "order 21 at infinity; order-3 certificates over Q and Q(w); "
          "2D3 = D1 + D2; kernel minimal polynomials exact")


# criterion 7 ----------------------------------------------------------------

OMEGA1_FROZEN = [
    -1, 3, -11, 56, -283, 1438, -7506, 39723, -211939, 1139043, -6157964,
    33448053, -182389282, 997848854, -5474673325, 30110184065, -165957302527,
    916424740644, -5069007570927, 28080034612882, -155759823221656,
    865048247560705, -4809544720320519, 26767288658743629,
    -149109354289320238, 831329586241569831, -4638535883774463494,
    25900170663332468144, -144715739340500871241, 809096110462736894221,
    -4526238826848117522585, 25334445278892249580026,
]


def test_criterion_7_chabauty_pinned_values():
    omega1, _ = expand_differentials()
    assert [int(c) for c in omega1.coeffs[:32]] == OMEGA1_FROZEN
    report = full_theorem()
    values = {key: (v.re, v.im) for key, v in report.lambdas.items()}
    assert values[(1, 1)] == (0, 30)
    assert values[(2, 1)] == (0, 42)
    assert values[(1, 2)] == (17, 47)
    assert values[(2, 2)] == (50, 53)
    assert report.annihilators == ((2, 0, 7, 0), (0, 1, 0, 13))
    p0 = report.certificates["P0"]
    assert p0.solution_classes == ((0, 0), (6, 2))
    assert p0.det_valuations == (2, 2)
    assert report.verdict()
    record = report.to_record()
    assert record["points_on_X0_5"] == [
        "(0, -1)", "(0, 1)", "(-3, -1)", "(-3, 1)", "inf+", "inf-",
    ]
    ok(7, "all 32 series integers; Lambda = 30i, 42i, 17+47i, 50+53i; "
          "annihilators (2ReL1+7ReL2, ImL1+13ImL2); disk classes {(0,0),(6,2)}, "
          "det valuation 2; verdict: the six rational points")


# criterion 8 ----------------------------------------------------------------


def test_criterion_8_cross_module_consistency():
    x14 = get_curve("X1_4")
    i = QuadElem(0, 1, -1)
    c_values = {x14.c_value(i), x14.c_value(-i)}
    expected = {parse_elem("1/4 + 1/2*i", -1), parse_elem("1/4 - 1/2*i", -1)}
    assert c_values == expected
    for c in c_values:
        assert classify(build_graph(c, -1, 4)) == "4(1,1)"
    g = build_graph(parse_elem("0", -3), -3, 4)
    assert g.size() == 7 and classify(g) == "7(2,1,1)a"
    g = build_graph(parse_elem("-3/4", 5), 5, 4)
    assert classify(g) == "6(1,1)"
    g = build_graph(parse_elem("-2", 5), 5, 4)
    assert g.size() == 9 and cycle_structure(g) == (1, 1, 2)
    g = build_graph(parse_elem("3/16", -15), -15, 4)
    assert g.size() == 10 and cycle_structure(g) == (1, 1, 2)
    ok(8, "Weierstrass-point parameters (1 +/- 2i)/4 give 4(1,1); 7(2,1,1)a at 0 over Q(w); "
          "6(1,1), 9(2,1,1), 10(2,1,1) checks over real quadratic fields")


# criterion 9 ----------------------------------------------------------------


def _random_quad(rng, d, span=6):
    return QuadElem(
        F(rng.randint(-span, span), rng.randint(1, 4)),
        F(rng.randint(-span, span), rng.randint(1, 4)),
        d,
    )


def test_criterion_9_property_suites():
    rng = random.Random(2024)

    # field axioms
    for d in (-1, -3, 2, 5, 17, -15):
        for _ in range(10):
            a, b, c = (_random_quad(rng, d) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * (1 / a) == 1
            r = quad_sqrt(a * a)
            assert r is not None and r * r == a * a

    # factorization round-trip
    X = UniPoly.gen(QQ)
    for _ in range(6):
        product = UniPoly.const(QQ, F(rng.randint(1, 4)))
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            coeffs = [F(rng.randint(-4, 4)) for _ in range(deg)] + [F(1)]
            product = product * UniPoly(QQ, coeffs)
        assert factor_rational(product).product() == product

    # roots in K vs the full norm-factorization oracle, degree <= 8
    for d in (-1, 5):
        K = QuadField(d)
        x = UniPoly.gen(K)
        for _ in range(6):
            poly = UniPoly.const(K, K.one)
            deg_budget = 8
            while deg_budget > 2 and rng.random() < 0.7:
                root = _random_quad(rng, d, 3)
                poly = poly * (x - UniPoly.const(K, root))
                deg_budget -= 1
            poly = poly * (x * x + UniPoly.const(K, K.of(rng.choice([7, 11]))))
            fast = Counter(roots_in_quadfield(poly))
            oracle = Counter(_roots_by_full_factorization(poly))
            assert fast == oracle

    # Jacobian group law on random small-height classes over Q(i)
    K = QuadField(-1)
    model = JacModel(get_curve("X0_5").curve.f.map_coeffs(K, lambda q: QuadElem(q, 0, -1)))
    X = model.x
    d2 = model.from_mumford(
        X * X + model.const(3) * X + model.const(F(1, 2)),
        model.const(QuadElem(0, F(1, 2), -1)) * X,
    )
    d3 = model.from_mumford(
        X * X + model.const(3) * X + model.const(QuadElem(1, -1, -1)),
        model.const(QuadElem(-1, -1, -1)) * X + model.const(QuadElem(-2, -1, -1)),
    )
    pool = [d2, d3, model.zero(), model.from_points("inf+", "inf+"), d2 - d3, 2 * d3]
    for _ in range(12):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a - a).is_zero()
    for k in range(1, 6):
        a, b = rng.choice(pool), rng.choice(pool)
        assert k * (a + b) == k * a + k * b

    # canonical-code isomorphism invariance, 100 relabelings
    g = build_graph(parse_elem("-1/4 + 3/8*i", -1), -1, 3)
    succ = {v: g.succ[v] for v in g.vertices}
    code = canonical_code(succ)
    names = list(succ)
    for _ in range(100):
        shuffled = list(names)
        rng.shuffle(shuffled)
        relabel = dict(zip(names, shuffled))
        assert canonical_code({relabel[v]: relabel[succ[v]] for v in succ}) == code

    # zeta formula vs brute-force divisor enumeration at p = 2, 3
    x05 = get_curve("X0_5").curve
    assert jacobian_order_enumerated(x05.f, FiniteField(3)) == jacobian_orders(x05, 3)[0]
    good = get_curve("X_good").curve
    assert jacobian_order_enumerated((good.g, good.h), FiniteField(2)) == 19
    ok(9, "field axioms, factorization round-trip, root completeness vs oracle, "
          "Jacobian group law, 100 relabelings, zeta vs enumeration at p = 2, 3")


def _roots_by_full_factorization(poly):
    """Independent oracle: complete rational factorization of the norm."""
    from quaddyn.quadfield import fraction_sqrt

    field = poly.ring
    d = field.d
    a_part = UniPoly(QQ, [c.a for c in poly.coeffs])
    b_part = UniPoly(QQ, [c.b for c in poly.coeffs])
    norm = a_part * a_part - b_part * b_part * d if not b_part.is_zero() else a_part
    candidates = []
    for factor, _ in factor_rational(norm).factors:
        if factor.degree() == 1:
            candidates.append(QuadElem(-factor.coeffs[0], 0, d))
        elif factor.degree() == 2:
            t, n = -factor.coeffs[1], factor.coeffs[0]
            s = fraction_sqrt((t * t - 4 * n) / d)
            if s is not None:
                candidates.append(QuadElem(t / 2, s / 2, d))
                candidates.append(QuadElem(t / 2, -s / 2, d))
    roots = []
    xgen = UniPoly.gen(field, poly.var)
    for cand in candidates:
        cur, mult = poly, 0
        while True:
            quot, rem = cur.divrem(xgen - UniPoly.const(field, cand, poly.var))
            if not rem.is_zero():
                break
            mult += 1
            cur = quot
        roots.extend([cand] * mult)
    return roots
