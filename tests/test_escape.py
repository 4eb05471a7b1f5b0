"""portrait decides every orbit by walking the box's candidate set, with no step or size cap.

The walk of y = 2 w v, w c's denominator, repeats only when v is preperiodic
and otherwise leaves the candidate set.  The box engine's _box_points(c),
which holds every preperiodic point of every period, is the independent
oracle: portrait must decide each point in it and reject each point outside
it.  The box itself is checked against a norm inequality proved apart from
it.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quaddyn import orbit
from quaddyn.cli import main
from quaddyn.orbit import build_graph, cycle_structure, portrait
from quaddyn.quadfield import QuadElem, format_elem

F = Fraction
FIELDS = (-1, -2, -3, -7, -11, 2, 5)
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=40)

# x = 1/M with M = (10^20 + 39)^16: c = x - x^2 has a 2,128-bit denominator,
# and the 1,064-bit M is left to the dynatomic fallback, since trial division
# cannot clear it; a cap of 1,000 bits on coordinates would reject x itself
HUGE = (10**20 + 39) ** 16


@pytest.mark.parametrize("d", [-1, -3, 5])
def test_fixed_points_with_a_1064_bit_denominator(capsys, d):
    x = QuadElem(F(1, HUGE), 0, d)
    c = x - x * x
    assert orbit._box_points(c) is None
    graph = build_graph(c, None, 2)
    assert graph.size() == 4 and set(graph.vertices) == {x, 1 - x, -x, x - 1}
    assert cycle_structure(graph) == (1, 1)
    code = main(["graph", "--d", str(d), "--c", format_elem(c), "--n-max", "2", "--json"])
    out, err = capsys.readouterr()
    record = json.loads(out)
    assert code == 0 and err == ""
    assert len(record["vertices"]) == 4 and record["cycle_structure"] == [1, 1]
    if d == -1:
        assert record["label"] == "4(1,1)"


heights = st.integers(-6, 6)
denominators = st.integers(1, 6)
numerators = st.integers(-24, 24)


@DETERMINISTIC
@given(st.sampled_from(FIELDS), heights, denominators, heights, denominators,
       numerators, numerators, heights, denominators, heights, denominators)
def test_portrait_decides_exactly_the_box_points(d, u, w, v, z, s, t, p, q, r, k):
    c = QuadElem(F(u, w), F(v, z), d)
    box = orbit._box_points(c)
    assert box is not None
    graph = build_graph(c, None, 6)
    for vertex in graph.vertices:
        assert portrait(c, vertex) == graph.portraits[vertex]
    # one point v with 2 w v in Z[sqrt(d)], which passes the denominator test,
    # where the size test and the orbit decide, and one point anywhere
    scale = 2 * math.lcm(c.a.denominator, c.b.denominator)
    for point in (QuadElem(F(s, scale), F(t, scale), d), QuadElem(F(p, q), F(r, k), d)):
        if point in box:
            portrait(c, point)
        else:
            with pytest.raises(RuntimeError, match="does not repeat: not preperiodic"):
                portrait(c, point)


def n(x):
    """a^2 + |d| b^2 for x = a + b sqrt(d)."""
    return x.a ** 2 + abs(x.d) * x.b ** 2


@DETERMINISTIC
@given(st.sampled_from(FIELDS), heights, denominators, heights, denominators)
def test_box_points_satisfy_the_norm_inequality(d, u, w, v, z):
    """Every preperiodic v has 2 w v in Z[sqrt(d)], w c's denominator, and
    n(v) <= 2 or (n(v) - 2)^2 <= 8 n(c).

    A preperiodic v has v_P(v) >= min(0, v_P(c)/2) at every prime P, so w v
    lies in O_K.  At the place sigma where |sigma(v)| is largest,
    |sigma(v)|^2 >= n(v) and |sigma(c)|^2 <= 2 n(c), while
    R_sigma = (1 + sqrt(1 + 4 |sigma(c)|))/2 has R_sigma^2 <= 2 + 2 |sigma(c)|.
    So (n(v) - 2)^2 > 8 n(c) with n(v) > 2 gives |sigma(v)| > R_sigma, past
    which the orbit grows without bound.
    """
    c = QuadElem(F(u, w), F(v, z), d)
    scale = 2 * c.triple[2]
    for point in orbit._box_points(c):
        scaled = scale * point
        assert scaled.a.denominator == scaled.b.denominator == 1, point
        assert n(point) <= 2 or (n(point) - 2) ** 2 <= 8 * n(c), point
