"""Differential tests for the F_q point enumerator behind every curve count.

The oracle scans all (x, y) in F_q^2 with polynomials evaluated as UniPoly
over FFRing, and the chart at infinity v^2 + s_n v = r_2n over all v; it
shares nothing with the square-root table of the enumerator.  That scan is
quadratic in q, so the counts at odd p up to 43, with rational
coefficients, are checked against ff_oracle.enumerate_points instead, which
evaluates F at every element of F_q and reads a table of squares over F_q,
where the enumerator sums a norm form over half of them at deg 2.  Good
reduction is checked against discriminants computed here, from the
b-invariants for Weierstrass models and as a resultant for f-models, and
against the gcd mod p of ff_oracle.good_reduction_oracle for f- and
h-models.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quaddyn.curves import (
    HypCurve,
    WeierstrassCurve,
    _good_reduction,
    count_points_ff,
    elliptic_count,
    elliptic_group_structure,
)
from ff_oracle import FFRing, FiniteField, enumerate_points, good_reduction_oracle
from polys_oracle import derivative, resultant
from quaddyn.polys import QQ, UniPoly

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)

fields = st.tuples(st.sampled_from([2, 3, 5, 7, 11]), st.sampled_from([1, 2]))
# the odd primes up to 43, both 1 and 3 mod 4
ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
small = st.integers(-3, 3).map(Fraction)
fractional = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 5]))


def brute_force_count(curve: HypCurve, p: int, deg: int) -> int:
    field = FiniteField(p, deg)
    ring = FFRing(field)
    s, r = (curve.h, curve.g) if curve.has_h_model() else (UniPoly(QQ, ()), curve.f)
    s_q = UniPoly(ring, [field.from_fraction(c) for c in s.coeffs])
    r_q = UniPoly(ring, [field.from_fraction(c) for c in r.coeffs])
    elems = list(field.elements())
    total = 0
    for x in elems:
        sx, rx = s_q.eval(x), r_q.eval(x)
        total += sum(1 for y in elems if (y * y + sx * y - rx).is_zero())
    n = curve.genus() + 1
    sn, r2n = field.from_fraction(s.coeff(n)), field.from_fraction(r.coeff(2 * n))
    return total + sum(1 for v in elems if (v * v + sn * v - r2n).is_zero())


def make_curve(**model):
    try:
        curve = HypCurve(**model)
    except ValueError:  # not squarefree over Q
        assume(False)
    assume(curve.genus() in (1, 2))
    return curve


def check_count(curve: HypCurve, p: int, deg: int, count=count_points_ff):
    if _good_reduction(curve, p):
        assert count(curve, p, deg) == brute_force_count(curve, p, deg)
    else:
        with pytest.raises(ValueError, match=f"bad reduction at {p}"):
            count(curve, p, deg)


def check_counts_at_odd_p(curve: HypCurve, p: int, count=count_points_ff):
    for deg in (1, 2):
        if good_reduction_oracle(curve, p):
            assert count(curve, p, deg) == enumerate_points(curve, p, deg), deg
        else:
            with pytest.raises(ValueError, match=f"bad reduction at {p}"):
                count(curve, p, deg)


# enumerate_points takes about 50 ms at q = 43^2
LARGER_P = settings(DETERMINISTIC, max_examples=40)


@LARGER_P
@given(st.lists(fractional, min_size=4, max_size=7), st.sampled_from(ODD_PRIMES))
def test_f_model_counts_at_odd_p_match_the_root_table(coeffs, p):
    assume(coeffs[-1] != 0)
    check_counts_at_odd_p(make_curve(f=UniPoly(QQ, coeffs)), p)


@LARGER_P
@given(st.integers(1, 2), st.lists(fractional, min_size=4, max_size=4),
       st.lists(fractional, min_size=7, max_size=7), st.sampled_from(ODD_PRIMES))
def test_h_model_counts_at_odd_p_match_the_root_table(genus, h, g, p):
    n = genus + 1
    curve = make_curve(g=UniPoly(QQ, g[:2 * n + 1]), h=UniPoly(QQ, h[:n + 1]))
    assume(curve.genus() == genus)
    check_counts_at_odd_p(curve, p)


@DETERMINISTIC
@given(st.lists(small, min_size=4, max_size=7), fields)
def test_f_model_counts_match_brute_force(coeffs, field):
    assume(coeffs[-1] != 0)
    check_count(make_curve(f=UniPoly(QQ, coeffs)), *field)


@DETERMINISTIC
@given(st.integers(1, 2), st.lists(small, min_size=4, max_size=4),
       st.lists(small, min_size=7, max_size=7), fields)
def test_h_model_counts_match_brute_force(genus, h, g, field):
    n = genus + 1
    curve = make_curve(g=UniPoly(QQ, g[:2 * n + 1]), h=UniPoly(QQ, h[:n + 1]))
    assume(curve.genus() == genus)
    check_count(curve, *field)


def weierstrass(a):
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    assume(disc != 0)
    return WeierstrassCurve(*a), disc


invariants = st.lists(st.integers(-4, 4), min_size=5, max_size=5)


@DETERMINISTIC
@given(invariants, fields)
def test_weierstrass_counts_and_structures(a, field):
    curve, _ = weierstrass(a)
    p, deg = field
    check_count(curve, p, deg, count=elliptic_count)
    check_count(curve, p, deg)
    if _good_reduction(curve, p):
        n1, n2 = elliptic_group_structure(curve, p, deg)
        assert n2 % n1 == 0 and (p**deg - 1) % n1 == 0
        assert n1 * n2 == elliptic_count(curve, p, deg)


@LARGER_P
@given(invariants, st.sampled_from(ODD_PRIMES))
def test_weierstrass_counts_at_odd_p_match_the_root_table(a, p):
    curve, _ = weierstrass(a)
    check_counts_at_odd_p(curve, p, count=elliptic_count)


PRIMES_BELOW_200 = [p for p in range(2, 200) if all(p % k for k in range(2, math.isqrt(p) + 1))]


@DETERMINISTIC
@given(invariants)
def test_weierstrass_reduction_is_the_discriminant_test(a):
    curve, disc = weierstrass(a)
    for p in PRIMES_BELOW_200:
        assert _good_reduction(curve, p) == (disc % p != 0), p


@DETERMINISTIC
@given(st.lists(small, min_size=4, max_size=7))
def test_odd_reduction_is_the_discriminant_and_leading_coefficient_test(coeffs):
    assume(coeffs[-1] != 0)
    curve = make_curve(f=UniPoly(QQ, coeffs))
    f = curve.f
    disc = resultant(f, derivative(f))  # disc(f) up to a unit at every p not dividing lc(f)
    for p in PRIMES_BELOW_200[1:]:
        assert _good_reduction(curve, p) == (coeffs[-1] % p != 0 and disc % p != 0), p
        assert _good_reduction(curve, p) == good_reduction_oracle(curve, p), p


@DETERMINISTIC
@given(st.integers(1, 2), st.lists(fractional, min_size=4, max_size=4),
       st.lists(fractional, min_size=7, max_size=7))
def test_odd_reduction_of_h_models_is_the_completed_square_test(genus, h, g):
    n = genus + 1
    curve = make_curve(g=UniPoly(QQ, g[:2 * n + 1]), h=UniPoly(QQ, h[:n + 1]))
    for p in PRIMES_BELOW_200[1:]:
        assert _good_reduction(curve, p) == good_reduction_oracle(curve, p), p
