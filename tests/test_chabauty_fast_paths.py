"""Differential tests for the fast paths of the differentials, the
annihilators and the per-disk certification.

disk_differentials solves y^2 + h y = g by a coefficient recurrence on ints;
its oracle, in chabauty_oracle, runs series Newton iteration over Q.

annihilator_solve takes the first hit of a lexicographic search on each
support; its oracle lists all 4^bits vectors of the solution module and picks
the least supported ones.  certify_disk lifts common zeros one bit at a time;
its oracle scans all 4^prec residue pairs with one pow per term.
_lambda_bivariate substitutes t = (1+i)(T+Ui) on integers mod 2^prec; its
oracle expands the powers of L = (1+i)T + (i-1)U with exact Fractions and
reduces the sums at the end.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chabauty_oracle
from chabauty_oracle import BiTruncSeries, _lambda_bivariate
from quaddyn.chabauty import (
    CLASS_PREC,
    DiskCertificate,
    TruncSeries,
    _branch_series,
    annihilator_solve,
    certify_disk,
    disk_differentials,
    integrate,
    lambda_stage,
    required_degree,
)

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)


# --- oracles ------------------------------------------------------------------


def _ord2_or_inf(x: int) -> int:
    return 999 if x == 0 else (x & -x).bit_length() - 1


def _annihilator_oracle(values: dict, prec: int) -> tuple:
    """The least Re- and Im-supported vectors of a listing of the whole
    solution module, built from a kernel basis of the content-reduced rows."""
    rows = [(*values[(1, j)], *values[(2, j)]) for j in (1, 2)]
    contents = [min(_ord2_or_inf(x) for x in row) for row in rows]
    bits = prec - max(1, *contents)
    if bits < 2:
        raise RuntimeError("degenerate annihilator rows; data or precision failure")
    m = 1 << bits
    r1, r2 = [[(x >> a) % m for x in row] for row, a in zip(rows, contents)]
    piv1 = next((k for k in range(4) if r1[k] % 2), None)
    if piv1 is None:
        raise RuntimeError("no unit pivot in the annihilator system")
    factor = r2[piv1] * pow(r1[piv1], -1, m) % m
    r2 = [(r2[k] - factor * r1[k]) % m for k in range(4)]
    piv2 = next((k for k in range(4) if k != piv1 and r2[k] % 2), None)
    if piv2 is None:
        raise RuntimeError("annihilator system does not have rank 2 with unit pivots")
    basis = []
    for fk in (k for k in range(4) if k not in (piv1, piv2)):
        vec = [0, 0, 0, 0]
        vec[fk] = 1
        vec[piv2] = -r2[fk] * pow(r2[piv2], -1, m) % m
        vec[piv1] = -(r1[fk] + r1[piv2] * vec[piv2]) * pow(r1[piv1], -1, m) % m
        basis.append(vec)
    module = {tuple((a * basis[0][k] + b * basis[1][k]) % m for k in range(4))
              for a in range(m) for b in range(m)}
    assert len(module) == m * m
    gens = []
    for support in ((0, 2), (1, 3)):
        keyed = [(tuple(vec[k] for k in support), vec) for vec in module
                 if not any(vec[k] for k in range(4) if k not in support)
                 and any(vec[k] % 2 for k in support)]
        if not keyed:
            raise RuntimeError("annihilator module does not split into Re/Im generators")
        gens.append(min(keyed)[1])
    return tuple(gens)


def _outcome(solve, values: dict, prec: int):
    try:
        return solve(values, prec)
    except RuntimeError as err:
        return str(err)


def _eval_oracle(terms: dict, prec: int, t: int, u: int) -> int:
    m = 1 << prec
    return sum(c * pow(t, i, m) * pow(u, j, m) for (i, j), c in terms.items()) % m


def _partial_oracle(terms: dict, var: int) -> dict:
    out: dict = {}
    for (i, j), c in terms.items():
        e = (i, j)[var]
        if e:
            key = (i - 1, j) if var == 0 else (i, j - 1)
            out[key] = out.get(key, 0) + e * c
    return out


def _scan_certificate(mu1: BiTruncSeries, mu2: BiTruncSeries, disk: str) -> DiskCertificate:
    """The certificate from the zero set of a scan over all 4^prec pairs."""
    prec = mu1.prec
    m = 1 << prec
    cm = 1 << CLASS_PREC
    zeros = [(t, u) for t in range(m) for u in range(m)
             if _eval_oracle(mu1.terms, prec, t, u) == 0
             and _eval_oracle(mu2.terms, prec, t, u) == 0]
    classes = sorted({(t % cm, u % cm) for t, u in zeros})
    jac = [_partial_oracle(mu.terms, var) for mu in (mu1, mu2) for var in (0, 1)]
    det_vals = []
    for t, u in classes:
        a, b, c, d = (_eval_oracle(p, prec, t, u) for p in jac)
        det = (a * d - b * c) % m
        det_vals.append(prec if det == 0 else (det & -det).bit_length() - 1)
    return DiskCertificate(
        disk=disk,
        solution_classes=tuple(classes),
        det_valuations=tuple(det_vals),
        certified=all(prec >= 2 * dv + 1 for dv in det_vals),
        solutions=len(classes),
        prec=prec,
    )


def _lambda_bivariate_oracle(lam: TruncSeries, prec: int):
    """Exact Fraction expansion of the powers L^k, reduced mod 2^prec at the end."""
    m = 1 << prec
    acc: dict = {}
    power = {(0, 0): (Fraction(1), Fraction(0))}
    for k in range(1, lam.cap + 1):
        new: dict = {}
        for (a, b), (re, im) in power.items():
            r, s = new.get((a + 1, b), (Fraction(0), Fraction(0)))
            new[(a + 1, b)] = (r + re - im, s + re + im)  # times (1+i) T
            r, s = new.get((a, b + 1), (Fraction(0), Fraction(0)))
            new[(a, b + 1)] = (r - re - im, s + re - im)  # times (i-1) U
        power = new
        ck = lam.coeffs[k]
        for key, (re, im) in power.items():
            r, s = acc.get(key, (Fraction(0), Fraction(0)))
            acc[key] = (r + ck * re, s + ck * im)
    parts: tuple = ({}, {})
    for key, pair in acc.items():
        for out, q in zip(parts, pair):
            if q.denominator % 2 == 0:
                raise ValueError("non-integral coefficient after substitution")
            out[key] = q.numerator * pow(q.denominator, -1, m) % m
    return tuple(BiTruncSeries(out, prec, lam.cap) for out in parts)


# --- annihilator_solve against the module listing --------------------------------


@st.composite
def row_pairs(draw):
    """Lambda values at prec 2..8 whose two rows have 2-power contents 0..2.
    Half of them are built to vanish on (x0, 0, y0, 0) and (0, x1, 0, y1),
    so that the search has a hit on each support."""
    prec = draw(st.integers(2, 8))
    entry = st.integers(0, (1 << prec) - 1)
    x0, y0, x1, y1 = (draw(entry) for _ in range(4))
    split = draw(st.booleans())
    values = {}
    for j in (1, 2):
        if split:
            a, b = draw(entry), draw(entry)
            row = [a * y0, b * y1, -a * x0, -b * x1]
        else:
            row = [draw(entry) for _ in range(4)]
        scale = 1 << draw(st.integers(0, 2))
        re1, im1, re2, im2 = (scale * x % (1 << prec) for x in row)
        values[(1, j)], values[(2, j)] = (re1, im1), (re2, im2)
    return values, prec


@DETERMINISTIC
@given(row_pairs())
def test_annihilator_search_equals_the_module_listing(case):
    assert _outcome(annihilator_solve, *case) == _outcome(_annihilator_oracle, *case)


@pytest.mark.parametrize("prec", range(3, 12))
def test_annihilator_search_equals_the_module_listing_on_the_pipeline(prec):
    values = lambda_stage(prec)[0]
    assert annihilator_solve(values, prec) == _annihilator_oracle(values, prec)


# --- certify_disk against the scan ----------------------------------------------


@st.composite
def series_pairs(draw):
    prec = draw(st.integers(1, 6))
    m = 1 << prec
    pair = []
    for _ in range(2):
        keys = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8))
        terms = {key: draw(st.integers(0, m - 1)) for key in keys}
        if draw(st.booleans()):
            terms.pop((0, 0), None)  # (0, 0) is a common zero, as on the disks
        pair.append(BiTruncSeries(terms, prec, 8))
    return pair


@DETERMINISTIC
@given(series_pairs())
def test_lifted_zeros_equal_the_scan(pair):
    assert certify_disk(*pair, "R") == _scan_certificate(*pair, "R")


@pytest.mark.parametrize("prec", range(1, 7))
def test_lifted_zeros_equal_the_scan_on_degenerate_pairs(prec):
    half = 1 << (prec - 1)
    cases = [
        ({}, {}),  # every pair is a zero
        ({(2, 0): 1}, {}),  # t = 0 mod 2^ceil(prec/2), any u
        ({(1, 0): half, (0, 1): half}, {(1, 1): 2}),
        ({(2, 0): 1, (0, 2): 1}, {(1, 1): 4}),
    ]
    for terms1, terms2 in cases:
        mu1, mu2 = BiTruncSeries(terms1, prec, 4), BiTruncSeries(terms2, prec, 4)
        assert certify_disk(mu1, mu2, "D") == _scan_certificate(mu1, mu2, "D")


# --- _lambda_bivariate against the Fraction expansion ----------------------------


@pytest.mark.parametrize("disk", ["P0", "P2", "P4"])
def test_substitution_equals_the_fraction_expansion_on_the_disks(disk):
    # series precision prec with the degree of working precision prec + 1:
    # what `chabauty --prec 5..10` uses before any escalation
    for prec in range(4, 10):
        for omega in disk_differentials(disk, required_degree(prec + 1)):
            lam = integrate(omega)
            fast = _lambda_bivariate(lam, prec)
            slow = _lambda_bivariate_oracle(lam, prec)
            assert [s.terms for s in fast] == [s.terms for s in slow]


@st.composite
def integral_series(draw):
    """lambda_k = a / (b 2^e) with b odd and e <= k // 2, so that
    lambda_k (1+i)^k is integral at (1+i)."""
    cap = draw(st.integers(1, 12))
    coeffs = [Fraction(0)]
    for k in range(1, cap + 1):
        a = draw(st.integers(-50, 50))
        b = 2 * draw(st.integers(0, 10)) + 1
        coeffs.append(Fraction(a, b << draw(st.integers(0, k // 2))))
    return TruncSeries(coeffs, cap)


@DETERMINISTIC
@given(integral_series(), st.integers(1, 8))
def test_substitution_equals_the_fraction_expansion(lam, prec):
    fast = _lambda_bivariate(lam, prec)
    slow = _lambda_bivariate_oracle(lam, prec)
    assert [s.terms for s in fast] == [s.terms for s in slow]


@DETERMINISTIC
@given(integral_series(), st.data())
def test_a_non_integral_term_raises_in_both(lam, data):
    k = data.draw(st.integers(1, lam.cap))
    coeffs = list(lam.coeffs)
    coeffs[k] = Fraction(2 * data.draw(st.integers(-20, 20)) + 1, 1 << (k // 2 + 1))
    bad = TruncSeries(coeffs, lam.cap)
    for substitute in (_lambda_bivariate, _lambda_bivariate_oracle):
        with pytest.raises(ValueError, match="non-integral"):
            substitute(bad, 6)


# --- disk_differentials against the Fraction Newton iteration --------------------


@pytest.mark.parametrize("disk", ["P0", "P2", "P4"])
def test_differentials_equal_the_fraction_oracle_on_the_disks(disk):
    for deg in sorted({required_degree(prec) for prec in range(4, 17)}):
        fast = disk_differentials(disk, deg)
        slow = chabauty_oracle.disk_differentials(disk, deg)
        assert [(s.coeffs, s.cap) for s in fast] == [(s.coeffs, s.cap) for s in slow]


@st.composite
def unit_branches(draw):
    """(g, h, y0, cap) with deg g, deg h <= 8 and 2 y0 + h_0 = +-1."""
    coeffs = st.lists(st.integers(-30, 30), min_size=8, max_size=8)
    y0 = draw(st.integers(-20, 20))
    h0 = draw(st.sampled_from([1, -1])) - 2 * y0
    g = [y0 * y0 + h0 * y0] + draw(coeffs)
    h = [h0] + draw(coeffs)
    return g, h, y0, draw(st.integers(0, 24))


@DETERMINISTIC
@given(unit_branches())
def test_recurrence_equals_the_newton_iteration(branch):
    g, h, y0, cap = branch
    y, inv = _branch_series(g, h, y0, cap)
    y_slow, inv_slow = chabauty_oracle.branch_series(g, h, y0, cap)
    assert y == list(y_slow.coeffs) and inv == list(inv_slow.coeffs)


@pytest.mark.parametrize("g, h, y0, match", [
    ([0, 1], [0, 1], 0, "not a unit"),  # 2 y0 + h0 = 0
    ([2, 1], [1, 1], 1, "not a unit"),  # 2 y0 + h0 = 3
    ([5, 1], [-1, 1], 1, "not on the curve"),
    ([0, 1], [-1, Fraction(1, 2)], 0, "not an integer"),
])
def test_the_recurrence_refuses_what_it_cannot_solve_over_z(g, h, y0, match):
    with pytest.raises(ValueError, match=match):
        _branch_series(g, h, y0, 8)


def test_an_unknown_disk_raises():
    with pytest.raises(ValueError, match="disk must be one of"):
        disk_differentials("P1", 32)


@DETERMINISTIC
@given(st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 12)), st.integers(-999, 999),
                       max_size=40),
       st.integers(1, 12), st.integers(-300, 300), st.integers(-300, 300))
def test_series_evaluation_equals_one_pow_per_term(terms, prec, t, u):
    # eval runs Horner's rule on the rows of the series; the oracle reduces each power
    series = BiTruncSeries(terms, prec, 12)
    assert series.eval(t, u) == _eval_oracle(series.terms, prec, t, u)
    assert series.partial(0).eval(t, u) == _eval_oracle(_partial_oracle(series.terms, 0), prec, t, u)
