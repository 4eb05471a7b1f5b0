"""Differential tests for the F_q point enumerator behind every curve count.

The oracle scans all (x, y) in F_q^2 with polynomials evaluated as UniPoly
over FFRing, and the chart at infinity v^2 + s_n v = r_2n over all v; it
shares nothing with the square-root table of the enumerator.  That scan is
quadratic in q, so the counts at odd p up to 43, with rational
coefficients, are checked against ff_oracle.enumerate_points instead, which
evaluates F at every element of F_q and reads a table of squares over F_q,
where the enumerator sums a norm form over half of them at deg 2.  The
packed counts, which read one 64-bit lane per x, are checked against
ff_oracle.norm_form_count, the same sum one value at a time, past one
block of lanes at deg 1 and up to p = 997 at deg 2.  Good
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
    Q_LIMIT,
    HypCurve,
    WeierstrassCurve,
    _BLOCK,
    _fp_tables,
    _good_reduction,
    count_points_ff,
    elliptic_count,
    elliptic_group_structure,
)
from ff_oracle import (FFRing, FiniteField, enumerate_points, good_reduction_oracle,
                       norm_form_count)
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


def f_or_h_model(coeffs, genus_h_g):
    """An f-model from coeffs, or an h-model from (genus, h, g) when that is given."""
    if genus_h_g is None:
        assume(coeffs[-1] != 0)
        return make_curve(f=UniPoly(QQ, coeffs))
    genus, h, g = genus_h_g
    n = genus + 1
    return make_curve(g=UniPoly(QQ, g[:2 * n + 1]), h=UniPoly(QQ, h[:n + 1]))


models = (st.lists(fractional, min_size=4, max_size=7),
          st.none() | st.tuples(st.integers(1, 2), st.lists(fractional, min_size=4, max_size=4),
                                st.lists(fractional, min_size=7, max_size=7)))


def check_packed_count(curve: HypCurve, p: int, deg: int):
    assume(good_reduction_oracle(curve, p))
    assert count_points_ff(curve, p, deg) == norm_form_count(curve, p, deg), (p, deg)


@DETERMINISTIC
@given(*models, st.sampled_from(ODD_PRIMES))
def test_packed_counts_match_the_norm_form_one_value_at_a_time(coeffs, genus_h_g, p):
    curve = f_or_h_model(coeffs, genus_h_g)
    for deg in (1, 2):
        check_packed_count(curve, p, deg)


# the oracle takes about 10 ms at p = 8209, deg 1, and 0.5 s at p = 997, deg 2
FEW = settings(DETERMINISTIC, max_examples=3)


@pytest.mark.parametrize("p", [4099, 8209])
@FEW
@given(*models)
def test_packed_counts_run_in_blocks_past_block_size(p, coeffs, genus_h_g):
    assert p > _BLOCK
    check_packed_count(f_or_h_model(coeffs, genus_h_g), p, 1)


@pytest.mark.parametrize("p", [97, 101, 997])
@FEW
@given(*models)
def test_packed_counts_over_f_p2_at_larger_p(p, coeffs, genus_h_g):
    check_packed_count(f_or_h_model(coeffs, genus_h_g), p, 2)


@settings(DETERMINISTIC, max_examples=10)
@given(*models, *models, st.sampled_from(ODD_PRIMES))
def test_a_count_does_not_depend_on_the_counts_before_it(coeffs, genus_h_g, coeffs2, genus_h_g2, p):
    curve, other = f_or_h_model(coeffs, genus_h_g), f_or_h_model(coeffs2, genus_h_g2)
    assume(good_reduction_oracle(curve, p))
    _fp_tables.cache_clear()
    first = [count_points_ff(curve, p, deg) for deg in (1, 2)]
    assert first == [norm_form_count(curve, p, deg) for deg in (1, 2)]
    for q in [*ODD_PRIMES, 97, 101, 4099, 8209]:
        if good_reduction_oracle(other, q):
            for deg in (1, 2) if q * q <= Q_LIMIT else (1,):
                count_points_ff(other, q, deg)
    assert [count_points_ff(curve, p, deg) for deg in (1, 2)] == first
    # fill the cache with other primes, so that p's tables are dropped and rebuilt
    for q in [q for q in PRIMES_BELOW_200[1:] if q != p][:_fp_tables.cache_parameters()["maxsize"]]:
        _fp_tables(q)
    assert [count_points_ff(curve, p, deg) for deg in (1, 2)] == first


def test_lanes_cannot_overflow_below_the_enumeration_limit():
    """A lane is 64 bits.  At deg 1 it holds D Fz(x) = sum of 7 terms (c_k mod p)(x^k mod p),
    so at most 7 (p - 1)^2 with p <= Q_LIMIT; at deg 2 a column holds sum over j <= 6 of
    (v^j mod p) r_j(x0), and r_j(x0) sums 13 such terms, so at most 91 (p - 1)^3 with
    p^2 <= Q_LIMIT.  Raising Q_LIMIT past either bound fails here."""
    assert 7 * (Q_LIMIT - 1) ** 2 < 2**64
    assert 91 * (math.isqrt(Q_LIMIT) - 1) ** 3 < 2**64
    assert _BLOCK ** 2 > Q_LIMIT  # so no F_{p^2} count needs a block
    assert _fp_tables.cache_parameters()["maxsize"] is not None


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
