import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from quaddyn.dynatomic import dynatomic, specialize
from quaddyn.factor import (
    _mul,
    _norm_over_z,
    low_degree_rational_factors,
    roots_in_quadfield,
    z_gcd,
)
from factor_oracle import (
    _hensel_lift,
    certify_irreducible,
    factor_mod_p,
    factor_rational,
    rational_roots,
    z_squarefree_decomposition,
)
from polys_helper import from_ints
from polys_oracle import derivative, gcd
from ff_oracle import FFRing, FiniteField
from quaddyn.polys import QQ, QuadField, UniPoly
from quaddyn.quadfield import QuadElem

F = Fraction
X = UniPoly.gen(QQ)


def test_difference_of_squares():
    fl = factor_rational(X**2 - 1)
    assert fl.content == 1
    assert sorted(g.coeffs for g, _ in fl.factors) == [(F(-1), F(1)), (F(1), F(1))]


def test_cyclotomic_irreducible():
    fl = factor_rational(X**2 + X + 1)
    assert len(fl.factors) == 1 and fl.factors[0][0].degree() == 2


def test_phi3_at_c_from_the_three_cycle():
    c = QuadElem(F(-301, 144), 0, -1)
    phi = specialize(dynatomic(3), c)
    rational = UniPoly(QQ, [q.a for q in phi.coeffs])
    fl = factor_rational(rational)
    degrees = sorted(g.degree() for g, _ in fl.factors)
    assert degrees == [1, 1, 1, 3]
    roots = sorted(-g.coeffs[0] for g, _ in fl.factors if g.degree() == 1)
    assert roots == [F(-23, 12), F(5, 12), F(19, 12)]
    cubic = next(g for g, _ in fl.factors if g.degree() == 3)
    ok, method = certify_irreducible(cubic)
    assert ok and method == "rational-root"


def test_factorization_round_trip_property():
    rng = random.Random(31)
    for _ in range(15):
        polys = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            coeffs = [F(rng.randint(-4, 4)) for _ in range(deg)] + [F(rng.randint(1, 3))]
            polys.append(UniPoly(QQ, coeffs))
        product = UniPoly.const(QQ, F(rng.randint(1, 5), rng.randint(1, 4)))
        for p in polys:
            product = product * p ** rng.randint(1, 2)
        fl = factor_rational(product)
        assert fl.product() == product
        for g, _ in fl.factors:
            assert g.is_monic()
            assert certify_irreducible(g)[0]


def test_multiplicity_tracking():
    fl = factor_rational((X - 1) ** 3 * (X + 2) ** 2 * 5)
    assert fl.content == 5
    mults = {tuple(g.coeffs): m for g, m in fl.factors}
    assert mults[(F(-1), F(1))] == 3 and mults[(F(2), F(1))] == 2


def test_zero_rejected():
    with pytest.raises(ValueError):
        factor_rational(UniPoly(QQ, ()))


def test_z_gcd_and_squarefree():
    a = [2, 0, -2]  # 2(x-1)(x+1)
    b = [-3, 0, 3]  # 3(x-1)(x+1)
    assert z_gcd(a, b) == [-1, 0, 1]
    parts = z_squarefree_decomposition([0, 0, 1, 1])  # x^2 (x + 1)
    assert sorted((tuple(p), m) for p, m in parts) == [((0, 1), 2), ((1, 1), 1)]


def test_low_degree_factors():
    p = (X - 1) * (X + F(2, 3)) * (X**2 + 1) * (X**4 + X + 1)
    got = low_degree_rational_factors(p)
    assert [g.degree() for g in got] == [1, 1, 2]
    assert rational_roots(p) == [F(-2, 3), F(1)] or sorted(rational_roots(p)) == [F(-2, 3), F(1)]


def test_low_degree_pair_recombination():
    # x^2 - 7 is irreducible over Q but splits into two linears mod good primes
    p = (X**2 - 7) * (X**3 + X + 1)
    got = low_degree_rational_factors(p)
    assert [tuple(g.coeffs) for g in got if g.degree() == 2] == [(F(-7), F(0), F(1))]


def test_low_degree_factors_match_full_factorization():
    # Differential check of the partial split + Hensel lift + recombination
    # against the complete Zassenhaus factorization.  Quadratics such as
    # x^2 - 7 split into two linears mod good primes and must be recombined;
    # roots up to 10^5 push the lift exponent, and so the number of
    # quadratic Hensel steps, well past one.
    rng = random.Random(2024)
    for _ in range(25):
        parts = []
        for _ in range(rng.randint(1, 3)):
            parts.append(rng.randint(1, 3) * X - rng.randint(-10**5, 10**5))
        for _ in range(rng.randint(0, 2)):
            s = rng.choice([2, 3, 5, 7, 11, 13, -1, -3])
            parts.append(X**2 - s * rng.randint(1, 40) ** 2 * rng.choice([1, 1, 4]))
        if rng.random() < 0.5:
            parts.append(X**2 + rng.randint(-900, 900) * X + rng.randint(-10**4, 10**4))
        parts.append(rng.choice([X**3 + X + 1, X**4 + X + 1, X**3 - 2, UniPoly.const(QQ, F(1))]))
        f = UniPoly.const(QQ, F(rng.randint(1, 9), rng.randint(1, 9)))
        for part in parts:
            f = f * part ** rng.randint(1, 2)
        full = [g for g, _ in factor_rational(f).factors if g.degree() <= 2]
        assert low_degree_rational_factors(f) == full
        assert low_degree_rational_factors(f, 1) == [g for g in full if g.degree() == 1]


def test_factor_mod_p_against_brute_force():
    rng = random.Random(77)
    checked = 0
    for _ in range(120):
        p = rng.choice([5, 7, 11, 13, 31, 101])
        f = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(2, 9))] + [rng.randint(1, 50)]
        ring = FFRing(FiniteField(p))
        fp = from_ints(ring, f)
        if fp.degree() != len(f) - 1 or gcd(fp, derivative(fp)).degree() != 0:
            with pytest.raises(ValueError):  # factor_mod_p expects a squarefree reduction
                factor_mod_p(f, p)
            continue
        factors = factor_mod_p(f, p)
        product = UniPoly.const(ring, ring.one)
        for g in factors:
            assert g[-1] == 1 and all(0 <= c < p for c in g)
            product = product * from_ints(ring, g)
        assert product == fp.monic()
        roots = sum(1 for r in range(p) if fp.eval(ring.field(r)).is_zero())
        assert sum(1 for g in factors if len(g) == 2) == roots
        checked += 1
    assert checked >= 40


def test_factor_mod_p_rejects_a_square_factor():
    # g^2 * h mod 5: the equal-degree split of a non-squarefree block never ends
    with pytest.raises(ValueError):
        factor_mod_p([0, 0, 4, 4, 13, 10, 11, 6, 1], 5)
    with pytest.raises(ValueError):
        factor_mod_p([1, 1, 5], 5)  # leading coefficient 0 mod 5


def test_hensel_lift_to_p_k_is_the_lift_to_p_2k_reduced():
    # the monic lifts are unique, so stopping the last quadratic step at p^k
    # must give the lift to p^(2k) reduced mod p^k
    rng = random.Random(2024)
    checked = 0
    for _ in range(60):
        p = rng.choice([3, 5, 7, 11])
        f = [1]
        for _ in range(rng.randint(2, 4)):
            low_terms = [rng.randint(-30, 30) for _ in range(rng.randint(1, 3))]
            f = _mul(f, low_terms + [rng.randint(1, 4)])
        try:
            factors = factor_mod_p(f, p)
        except ValueError:  # not squarefree mod p, or p divides the leading coefficient
            continue
        k = rng.randint(1, 9)
        low, high = _hensel_lift(f, factors, p, k), _hensel_lift(f, factors, p, 2 * k)
        assert low == [[c % p**k for c in fac] for fac in high]
        checked += len(factors) > 1
    assert checked >= 20


def test_degree_pattern_certificate():
    ok, method = certify_irreducible(X**4 + X + 1)
    assert ok and method in ("degree-pattern", "hensel-uniqueness")
    ok, _ = certify_irreducible(X**4 + 4)  # = (x^2-2x+2)(x^2+2x+2)
    assert not ok
    # x^2 (x - 1)^3 is squarefree mod no prime, so no good prime exists
    assert certify_irreducible(X**2 * (X - 1) ** 3) == (False, "not squarefree")


# --- roots in quadratic fields ---------------------------------------------


def test_roots_examples_over_qi():
    K = QuadField(-1)
    x = UniPoly.gen(K)
    i = QuadElem(0, 1, -1)
    phi1 = x * x - x + UniPoly.const(K, i)
    assert roots_in_quadfield(phi1) == []
    phi2 = x * x + x + UniPoly.const(K, 1 + i)
    assert set(roots_in_quadfield(phi2)) == {-i, QuadElem(-1, 1, -1)}
    p = X**2 + 3 * X + UniPoly.const(QQ, F(1, 2))
    assert roots_in_quadfield(p, -1) == []


def test_roots_multiplicities():
    roots = roots_in_quadfield((X - 1) ** 2 * (X**2 + 1), -1)
    counts = Counter(roots)
    i = QuadElem(0, 1, -1)
    assert counts[QuadElem(1, 0, -1)] == 2 and counts[i] == 1 and counts[-i] == 1


def test_roots_completeness_against_planted_roots():
    rng = random.Random(17)
    for d in (-1, 5, -3):
        K = QuadField(d)
        x = UniPoly.gen(K)
        for _ in range(10):
            planted = []
            poly = UniPoly.const(K, K.one)
            for _ in range(rng.randint(1, 3)):
                r = QuadElem(
                    F(rng.randint(-4, 4), rng.randint(1, 3)),
                    F(rng.randint(-2, 2), rng.randint(1, 2)),
                    d,
                )
                planted.append(r)
                poly = poly * (x - UniPoly.const(K, r))
                conj = r.conj()
                if conj != r:
                    planted.append(conj)
                    poly = poly * (x - UniPoly.const(K, conj))
            # pad with a rationally irreducible, K-root-free quadratic
            poly = poly * (x * x + UniPoly.const(K, K.of(7)))
            found = roots_in_quadfield(poly)
            assert Counter(found) == Counter(planted) or set(found) >= set(planted)
            for r in found:
                assert poly.eval(r).is_zero()


def test_roots_commute_with_conjugation():
    rng = random.Random(23)
    K = QuadField(-1)
    x = UniPoly.gen(K)
    for _ in range(8):
        coeffs = [
            QuadElem(F(rng.randint(-3, 3)), F(rng.randint(-3, 3)), -1) for _ in range(4)
        ] + [K.one]
        poly = UniPoly(K, coeffs)
        conj_poly = UniPoly(K, [c.conj() for c in coeffs])
        roots = roots_in_quadfield(poly)
        conj_roots = roots_in_quadfield(conj_poly)
        assert Counter(r.conj() for r in roots) == Counter(conj_roots)


def test_integer_norm_matches_norm_over_q():
    # f = A + B sqrt(d): the int-list norm is L^2 (A*A - d*B*B), L the least
    # common denominator of f's coefficients, and L*A for a rational f (B = 0)
    rng = random.Random(808)
    for d in (-1, -2, -3, -7, -11, 2, 5):
        K = QuadField(d)
        for rational in (False, True, False):
            coeffs = []
            for _ in range(rng.randint(1, 7)):
                b = 0 if rational else F(rng.randint(-10**4, 10**4), rng.randint(1, 10**3))
                coeffs.append(QuadElem(F(rng.randint(-10**4, 10**4), rng.randint(1, 10**3)), b, d))
            coeffs.append(QuadElem(F(rng.randint(1, 50), rng.randint(1, 60)), coeffs[0].b, d))
            f = UniPoly(K, coeffs)
            a_part = UniPoly(QQ, [c.a for c in f.coeffs])
            b_part = UniPoly(QQ, [c.b for c in f.coeffs])
            lcd = 1
            for c in f.coeffs:
                lcd = math.lcm(lcd, c.a.denominator, c.b.denominator)
            if rational:
                assert b_part.is_zero()
                expected = a_part * lcd
            else:
                expected = (a_part * a_part - b_part * b_part * d) * (lcd * lcd)
            assert all(c.denominator == 1 for c in expected.coeffs)
            assert _norm_over_z(f) == [int(c) for c in expected.coeffs]


def test_root_count_matches_cofactor_degree():
    K = QuadField(-1)
    x = UniPoly.gen(K)
    i = QuadElem(0, 1, -1)
    poly = (x - UniPoly.const(K, i)) ** 2 * (x * x + UniPoly.const(K, K.of(7)))
    roots = roots_in_quadfield(poly)
    cofactor = poly
    for r in roots:
        cofactor = cofactor.exact_div(x - UniPoly.const(K, r))
    assert poly.degree() - len(roots) == cofactor.degree()
    assert roots_in_quadfield(cofactor) == []
