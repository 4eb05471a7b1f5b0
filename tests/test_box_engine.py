"""Agreement of the height-box engine behind build_graph with the dynatomic oracle.

The oracle takes the K-rational periodic points from the roots of the
dynatomic polynomials (periodic_points) and closes them under K-rational
preimages; it shares no code with the box, the coset classes or the orbit
walk.  Each box-path case also asserts that the box decided it, so a silent
fallback to the dynatomic path cannot make the comparison vacuous.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quaddyn import orbit
from quaddyn.dynatomic import specialize, symbolic_dynatomic
from quaddyn.factor import roots_in_quadfield
from quaddyn.graphcat import _TABLE
from quaddyn.orbit import build_graph, periodic_points, portrait, portraits_of
from quaddyn.quadfield import QuadElem, format_elem, parse_elem, quad_sqrt

F = Fraction
FIELDS = (-1, -2, -3, -7, -11, 2, 5)
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def closure(c, points):
    vertices = set(points)
    frontier = list(vertices)
    while frontier:
        r = quad_sqrt(frontier.pop() - c)
        for pre in () if r is None else (r, -r):
            if pre not in vertices:
                vertices.add(pre)
                frontier.append(pre)
    return vertices


def oracle(c, n_max):
    """{vertex: portrait} from periodic_points and a backward closure."""
    per = periodic_points(c, None, n_max)
    return {v: portrait(c, v) for v in closure(c, set().union(*per.values()))}


def assert_agrees(c, n_max, engine="box"):
    assert (orbit._box_points(c) is None) == (engine == "fallback")
    graph = build_graph(c, None, n_max)
    assert graph.portraits == oracle(c, n_max)
    assert set(graph.vertices) == set(graph.portraits)
    return graph


@pytest.mark.parametrize("label, d, c_text, size", [row[:4] for row in _TABLE])
def test_catalog_witnesses(label, d, c_text, size):
    assert assert_agrees(parse_elem(c_text, d), 6).size() == size


@pytest.mark.parametrize("d", FIELDS)
@pytest.mark.parametrize("height, n_max", [(3, 4), (2, 6)])
def test_surveys(d, height, n_max):
    span = range(-height, height + 1)
    params = {QuadElem(F(u, w), F(v, w), d)
              for w in range(1, height + 1) for u in span for v in span}
    for c in params:
        assert orbit._box_points(c) is not None
        assert build_graph(c, None, n_max).portraits == oracle(c, n_max), c


@pytest.mark.parametrize("d, c_text, n_max", [
    (-1, "1/4 + 1/2*i", 4), (-1, "1/4 - 1/2*i", 4), (-3, "0", 4),
    (5, "-3/4", 4), (5, "-2", 4), (-15, "3/16", 4),
    (-1, "-29/16", 1), (-1, "-29/16", 2), (-1, "-1/4 + 3/8*i", 1), (-1, "-1/4 + 3/8*i", 2),
])
def test_criterion_8_graphs_and_small_n_max(d, c_text, n_max):
    assert_agrees(parse_elem(c_text, d), n_max)


def _seven_digit_params():
    rng = random.Random("seven-digit parameters")

    def large():
        return F(rng.randint(10**6, 10**7 - 1) * rng.choice((-1, 1)), rng.randint(10**6, 10**7 - 1))

    return [QuadElem(large(), large(), d) for d in FIELDS] + [
        parse_elem("222195/60817 + 907787/532085*sqrt(-3)", -3),
        parse_elem("-307122/30041 - 45290/219243*sqrt(-2)", -2),
        parse_elem("-58727/301925 + 277079/76757*sqrt(2)", 2),
    ]


@pytest.mark.parametrize("c", _seven_digit_params(), ids=str)
def test_seven_digit_parameters(c):
    assert assert_agrees(c, 6).size() == 0


heights = st.integers(-12, 12)
denominators = st.integers(1, 12)


@DETERMINISTIC
@given(st.sampled_from(FIELDS), heights, denominators, heights, denominators, st.integers(1, 6))
def test_small_height_parameters(d, u, w, v, z, n_max):
    assert_agrees(QuadElem(F(u, w), F(v, z), d), n_max)


def fixed_from(x):
    """c = x - x^2, for which x is a fixed point."""
    return x - x * x


def fixed_point_family(d, a, b, m):
    """c = x - x^2 with x = (a + b sqrt(d))/m: x and 1 - x are fixed, -x and x - 1 map to them."""
    x = QuadElem(F(a, m), F(b, m), d)
    return fixed_from(x), {x, 1 - x, -x, x - 1}


# 65537 and 10^9 + 7 are left as cofactors that trial division below 2^16 proves prime
ODD_PRIMES = (3, 5, 7, 11, 13, 97, 1009, 65521, 65537, 10**9 + 7)


@settings(DETERMINISTIC, max_examples=15)
@given(st.sampled_from(FIELDS), st.integers(0, 30),
       st.lists(st.tuples(st.sampled_from(ODD_PRIMES), st.integers(1, 12)), max_size=3),
       st.integers(-3 * 10**6, 3 * 10**6), st.integers(-3, 3))
def test_coset_cut_on_square_denominators(d, twos, powers, r, b):
    m = 2**twos
    for p, e in powers:
        if m * p**e <= 10**30:
            m *= p**e
    c, points = fixed_point_family(d, r * m // 10**6, b, m)
    assert points <= set(assert_agrees(c, 6).vertices)


@settings(DETERMINISTIC, max_examples=6)
@given(st.sampled_from(FIELDS), st.sampled_from((10**13 + 37, 10**20 + 39, 2**61 - 1)),
       st.integers(1, 10**9), st.integers(-3 * 10**6, 3 * 10**6))
def test_fallback_on_large_prime_denominators(d, prime, cofactor, r):
    m = prime * cofactor
    a = r * m // 10**6
    c, points = fixed_point_family(d, a + (a % prime == 0), 0, m)
    assert points <= set(assert_agrees(c, 6, engine="fallback").vertices)


def power(z, k):
    y = QuadElem(1, 0, z.d)
    for _ in range(k):
        y = y * z
    return y


# Parameters whose box is over BOX_LIMIT (2^14) at its default value.
BOX_LIMIT_EXITS = {
    # the candidate count: the boxes hold 16,641 and 19,092 candidates
    "box, d=-1": QuadElem(4000, 0, -1),
    "box, d=-3": QuadElem(-4000, 0, -3),
    # the class count: y lies in (2 + i)^6, which leaves 2 * 5^6 classes mod 5^12
    "classes, p=5": fixed_from(power(QuadElem(2, 1, -1), 12) / 5**12),
    # a digit line: 16417 = 64^2 + 111^2 splits and y lies in one prime above it,
    # so each of the 2 classes mod 16417 lifts to 16417 classes mod 16417^2
    "line, p=16417": fixed_from(power(QuadElem(64, 111, -1), 2) / 16417**2),
    # the first digit at the ramified 16411: y may be any element of the prime above it
    "ramified, p=16411": fixed_from(QuadElem(0, F(-1, 16411), -16411)),
}


@pytest.mark.parametrize("c", BOX_LIMIT_EXITS.values(), ids=BOX_LIMIT_EXITS.keys())
def test_box_limit_exits_fall_back_to_the_same_graph(c):
    graph = assert_agrees(c, 6, engine="fallback")
    with mock.patch.object(orbit, "BOX_LIMIT", 1 << 20):
        box = orbit._box_points(c)
    assert box == set(graph.vertices)


def test_a_huge_ramified_prime_falls_back_without_listing_its_residues():
    """The 2^31 - 1 classes at the ramified prime are cut off at BOX_LIMIT + 1."""
    p = 2**31 - 1
    assert assert_agrees(fixed_from(QuadElem(0, F(-1, p), -p)), 6, engine="fallback").size() == 4


@DETERMINISTIC
@given(st.sampled_from(FIELDS), st.sampled_from((3, 5, 7, 11, 13, 10**9 + 7, 10**20 + 39)),
       st.integers(0, 3), st.integers(0, 10**90), st.integers(-10**100, 10**100),
       st.integers(-10**100, 10**100))
def test_large_odd_valuation_denominators_are_empty(d, p, k, s, u, v):
    """v_p(c) odd at an odd p not dividing d: no point is preperiodic (the non-square shortcut)."""
    if d % p == 0:
        p = 10**9 + 7
    w = p ** (2 * k + 1) * (s * p + 1)
    c = QuadElem(F(u * p + 1, w), F(v, w), d)
    with mock.patch.object(orbit, "_smooth_factors", side_effect=AssertionError("factored")):
        assert build_graph(c).size() == 0


def brute_portrait(succ, v):
    """(preperiod, period) of v from its first 2 |succ| iterates."""
    orbit = [v]
    for _ in range(2 * len(succ)):
        orbit.append(succ[orbit[-1]])
    m = next(k for k in range(len(orbit)) if orbit[k] in orbit[k + 1:])
    return m, next(p for p in range(1, len(orbit)) if orbit[m + p] == orbit[m])


maps = st.integers(0, 12).flatmap(
    lambda n: st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n))


@DETERMINISTIC
@given(maps)
def test_portraits_of_matches_iteration(images):
    succ = dict(enumerate(images))
    assert portraits_of(succ) == {v: brute_portrait(succ, v) for v in succ}


def test_catalog_witnesses_build_without_portrait():
    """The box path takes every portrait from one walk over the successor map."""
    with mock.patch.object(orbit, "portrait", side_effect=AssertionError("portrait called")):
        for label, d, c_text, size, _code in _TABLE:
            assert build_graph(parse_elem(c_text, d), d).size() == size, label


def test_smooth_factors_stop_at_the_trial_bound():
    assert orbit._smooth_factors(65537 * 65539) is None
    assert orbit._smooth_factors(3 * 65537) == {3: 1, 65537: 1}


def periodic_by_portrait(c, n_max):
    """periodic_points as one portrait per root of each Phi_n."""
    return {n: {r for r in roots_in_quadfield(specialize(symbolic_dynatomic(n), c))
                if portrait(c, r) == (0, n)}
            for n in range(1, n_max + 1)}


X = F(1, 10**20 + 39)
FALLBACK = [(-1, "4000"), (-3, "-4000")] + [
    (d, format_elem(QuadElem(X - X * X, 0, d))) for d in (-1, 5)]


@pytest.mark.parametrize("d, c_text", [(d, c) for _, d, c, _, _ in _TABLE] + FALLBACK)
def test_periodic_points_match_one_portrait_per_root(d, c_text):
    c = parse_elem(c_text, d)
    expected = periodic_by_portrait(c, 6)
    with mock.patch.object(orbit, "portrait", side_effect=AssertionError("portrait called")):
        assert periodic_points(c, None, 6) == expected
