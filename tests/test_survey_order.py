"""survey's parameter order: an integer key on (u, v, w) against QuadElem.sort_key.

cli._survey_params sorts the triples by (norm, trace, sign rule) in integers;
survey/v1 rows are in sort_key order, (norm, trace, sign rule) on the triple,
so the two orders must be the same list.  sort_key in turn must order as the
text key it replaced, (norm, trace, format_elem), which fixed every vertex
order that graph/v1 and survey/v1 print.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quaddyn import quadfield
from quaddyn.cli import _survey_params
from quaddyn.orbit import build_graph
from quaddyn.quadfield import QuadElem, format_elem, parse_elem, sorted_elems

# the seven benchmark fields, and two d that are not squarefree
FIELDS = (-1, -2, -3, -7, -11, 2, 5, -4, 12)
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@pytest.mark.parametrize("d", FIELDS)
def test_survey_order_is_sort_key_order(d):
    for height in range(1, 11):
        box = [QuadElem(Fraction(u, w), Fraction(v, w), d) for w in range(1, height + 1)
               for u in range(-height, height + 1) for v in range(-height, height + 1)
               if math.gcd(u, v, w) == 1]
        expected = sorted(box, key=lambda e: e.sort_key())
        got = _survey_params(d, height)
        assert [(e.a, e.b, e.d) for e in got] == [(e.a, e.b, e.d) for e in expected], height


def text_key(e):
    """The key sort_key replaced: norm, trace, then the text."""
    return (e.norm(), e.trace(), format_elem(e))


parts = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@DETERMINISTIC
@given(st.sampled_from(FIELDS + (13,)), st.lists(st.tuples(parts, parts), max_size=6))
def test_sort_key_orders_as_the_text_key(d, pairs):
    elems = [QuadElem(a, b, d) for a, b in pairs]
    elems += [e.conj() for e in elems] + [-e for e in elems]
    by_triple = sorted(elems, key=lambda e: e.sort_key())
    assert [(e.a, e.b) for e in by_triple] == [(e.a, e.b) for e in sorted(elems, key=text_key)]


X = QuadElem(Fraction(1, 10**20 + 39), 0, 5)


@pytest.mark.parametrize("c, n_max", [(parse_elem("-1/4 + 3/8*i", -1), 6),
                                      (parse_elem("-5/12", -3), 6),
                                      (X - X * X, 2)])  # the dynatomic fallback
def test_vertex_sort_builds_no_text(c, n_max):
    with mock.patch.object(quadfield, "format_elem", side_effect=AssertionError("text built")):
        assert build_graph(c, None, n_max).size() in (4, 8, 10)


ORDER_FIELDS = FIELDS + (-27,)
MIXED = st.one_of(st.fractions(min_value=-6, max_value=6, max_denominator=12),
                  st.builds(Fraction, st.integers(-10**13, 10**13), st.integers(10**12 - 9, 10**12 + 9)))


def triples(elems) -> list:
    return [(e.triple, e.d) for e in elems]


@DETERMINISTIC
@given(st.sampled_from(ORDER_FIELDS), st.lists(st.tuples(MIXED, MIXED), max_size=6), st.booleans(),
       st.sampled_from([-1, 7]))
def test_the_int_key_orders_as_sort_key(d, pairs, rational_only, other_d):
    elems = [QuadElem(a, 0 if rational_only else b, d) for a, b in pairs]
    elems += [e.conj() for e in elems] + [-e for e in elems]
    elems += [QuadElem(a, 0, other_d) for a, _ in pairs[:2]]  # rational, carrying another d
    for given_order in (elems, elems[::-1]):
        expected = sorted(given_order, key=lambda e: e.sort_key())
        assert triples(sorted_elems(given_order)) == triples(expected)


def test_the_int_key_on_empty_and_one_element_lists():
    assert sorted_elems([]) == []
    x = parse_elem("-1/4 + 3/8*i")
    assert triples(sorted_elems([x])) == triples([x])
