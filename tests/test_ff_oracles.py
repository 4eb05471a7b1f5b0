"""The integer F_q engine of quaddyn.curves against the FFElem oracles.

curves counts points with the quadratic character (the norm test at
deg 2) on plain ints and pairs, and reads E(F_q) structures from Sylow
subgroups.  The oracles in ff_oracle count with a table of square roots
over FFElem objects, and find the exponent of E(F_q) from the order of
every point.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ff_oracle import enumerate_points, group_structure
from quaddyn.curves import (
    HypCurve,
    WeierstrassCurve,
    _good_reduction,
    count_points_ff,
    elliptic_group_structure,
)
from quaddyn.finitefield import factorize as _factorize
from quaddyn.polys import QQ, UniPoly

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)

count_fields = st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13, 23]), st.sampled_from([1, 2]))
structure_fields = st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13]), st.sampled_from([1, 2]))
small = st.integers(-3, 3).map(Fraction)


def good_curve(p: int, **model) -> HypCurve:
    try:
        curve = HypCurve(**model)
    except ValueError:  # not squarefree over Q
        assume(False)
    assume(curve.genus() in (1, 2) and _good_reduction(curve, p))
    return curve


@DETERMINISTIC
@given(st.lists(small, min_size=4, max_size=7), count_fields)
def test_f_model_counts_match_the_root_table(coeffs, field):
    p, deg = field
    assume(coeffs[-1] != 0)
    curve = good_curve(p, f=UniPoly(QQ, coeffs))
    assert count_points_ff(curve, p, deg) == enumerate_points(curve, p, deg)


@DETERMINISTIC
@given(st.integers(1, 2), st.lists(small, min_size=4, max_size=4),
       st.lists(small, min_size=7, max_size=7), count_fields)
def test_h_model_counts_match_the_root_table(genus, h, g, field):
    p, deg = field
    n = genus + 1
    curve = good_curve(p, g=UniPoly(QQ, g[:2 * n + 1]), h=UniPoly(QQ, h[:n + 1]))
    assert count_points_ff(curve, p, deg) == enumerate_points(curve, p, deg)


def weierstrass(a, p: int) -> WeierstrassCurve:
    try:
        curve = WeierstrassCurve(*a)
    except ValueError:  # singular over Q
        assume(False)
    assume(_good_reduction(curve, p))
    return curve


# the point scan takes up to 0.6 s at q = 169
@settings(DETERMINISTIC, max_examples=30)
@given(st.lists(st.integers(-4, 4), min_size=5, max_size=5), structure_fields)
def test_structures_match_the_point_scan(a, field):
    p, deg = field
    curve = weierstrass(a, p)
    assert elliptic_group_structure(curve, p, deg) == group_structure(curve, p, deg)


# One curve for each (n1, [(ell, v) with ell^v || n, v >= 2, ell | q - 1])
# that a scan of random a-invariants in [-4, 4] met at p <= 13; the first four
# have a cyclic group although a Sylow subgroup is searched.
SYLOW_CASES = [
    ((-1, -4, -2, -3, 1), 3, 1),  # (1, 4)
    ((0, 1, 4, -4, 3), 5, 1),  # (1, 8)
    ((3, 2, -2, -4, -4), 13, 1),  # (1, 16)
    ((-1, -4, -2, -3, 1), 7, 2),  # (1, 63)
    ((0, 1, 4, -4, 3), 7, 2),  # (2, 30)
    ((-1, -4, -1, 2, 0), 13, 2),  # (2, 90)
    ((-1, 2, 0, -4, 1), 5, 1),  # (2, 4)
    ((0, 1, 4, -4, 3), 11, 1),  # (2, 8)
    ((0, 1, 4, -4, 3), 5, 2),  # (2, 16)
    ((-2, 2, -2, -3, -2), 13, 2),  # (2, 96)
    ((-1, 2, 0, -4, 1), 7, 1),  # (3, 3)
    ((-1, -1, -2, -2, 0), 5, 2),  # (3, 9)
    ((-1, -4, -2, -3, 1), 3, 2),  # (4, 4)
    ((-1, 2, 0, -4, 1), 5, 2),  # (4, 8)
    ((-2, 3, 3, -2, -4), 13, 2),  # (4, 48)
    ((1, -1, 4, -1, -2), 11, 2),  # (4, 32)
    ((-1, -4, -1, 2, 0), 5, 2),  # (6, 6)
    ((3, -1, 2, 4, -3), 11, 2),  # (6, 18)
    ((0, 1, 4, -4, 3), 13, 2),  # (7, 21)
    ((3, -1, 2, 4, -3), 7, 2),  # (8, 8)
    ((0, 1, 4, -4, 3), 11, 2),  # (8, 16)
    ((3, -2, 4, 3, 3), 11, 2),  # (12, 12)
    ((-2, 3, 1, -2, -3), 13, 2),  # (14, 14)
]


@pytest.mark.parametrize("a, p, deg", SYLOW_CASES)
def test_sylow_structures_match_the_point_scan(a, p, deg):
    curve = WeierstrassCurve(*a)
    n1, n2 = group_structure(curve, p, deg)
    q = p**deg
    assert any(v >= 2 and (q - 1) % ell == 0 for ell, v in _factorize(n1 * n2).items())
    assert elliptic_group_structure(curve, p, deg) == (n1, n2)
