"""DiskMap against the bivariate expansion it replaced.

quaddyn.chabauty.disk_series builds each annihilating map on a residue disk
as Re H(T + Ui) for one polynomial H over Z[i] and reads values, partials and
coefficients off H by Horner's rule.  Its oracle, in chabauty_oracle, expands
lambda((1+i)(T+Ui)) binomially into bivariate polynomials and combines their
real and imaginary parts term by term.  Both must agree on every coefficient,
on every value and partial over a grid of points, and on the certificate.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chabauty_oracle import annihilating_series
from quaddyn.chabauty import (
    _disk_maps,
    certify_disk,
    disk_differentials,
    disk_series,
    lambda_stage,
    required_degree,
)

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def assert_same_maps(fast, slow, points, disk):
    for mu, ref in zip(fast, slow):
        assert mu.prec == ref.prec
        for k in range(ref.cap + 2):
            for j in range(k + 1):
                assert mu.coeff(k - j, j) == ref.coeff(k - j, j), (k - j, j)
        pairs = [(mu, ref)] + [(mu.partial(var), ref.partial(var)) for var in (0, 1)]
        for t, u in points:
            assert [f.eval(t, u) for f, _ in pairs] == [s.eval(t, u) for _, s in pairs], (t, u)
    assert certify_disk(*fast, disk) == certify_disk(*slow, disk)


# `chabauty --prec p` builds the disk maps from lambda_stage(p) and, when a
# disk escalates, from lambda_stage(p + 2): 3..14 covers p = 3..12 and both
@pytest.mark.parametrize("lam_prec", range(3, 15))
@pytest.mark.parametrize("disk", ["P0", "P2", "P4"])
def test_disk_maps_equal_the_bivariate_expansion_on_the_pipeline(disk, lam_prec):
    anni = lambda_stage(lam_prec)[1]
    prec, deg = lam_prec - 1, required_degree(lam_prec)
    fast = disk_series(disk, anni, prec, deg)
    omegas = [[int(c) for c in omega.coeffs] for omega in disk_differentials(disk, deg)]
    slow = annihilating_series(omegas, anni, prec)
    m = 1 << prec
    points = [(t, u) for t in (0, 1, 6, m - 1) for u in (0, 2, 3, m + 5)]
    assert_same_maps(fast, slow, points, disk)


@st.composite
def random_maps(draw):
    cap = draw(st.integers(0, 24))
    omega = st.lists(st.integers(-10**6, 10**6), min_size=cap + 1, max_size=cap + 1)
    omegas = [draw(omega), draw(omega)]
    vectors = [tuple(draw(st.integers(-99, 99)) for _ in range(4)) for _ in range(2)]
    points = draw(st.lists(st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
                           min_size=1, max_size=6))
    return omegas, vectors, draw(st.integers(1, 10)), points


@DETERMINISTIC
@given(random_maps())
def test_disk_maps_equal_the_bivariate_expansion(case):
    omegas, vectors, prec, points = case
    fast = _disk_maps(omegas, vectors, prec)
    slow = annihilating_series(omegas, vectors, prec)
    assert_same_maps(fast, slow, points, "R")
