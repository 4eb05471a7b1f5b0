"""survey's parameter order: an integer key on (u, v, w) against QuadElem.sort_key.

cli._survey_params sorts the triples by (norm, trace, sign rule) in integers;
survey/v1 rows are in sort_key order, (norm, trace, text), so the two orders
must be the same list.
"""

import math
from fractions import Fraction

import pytest

from quaddyn.cli import _survey_params
from quaddyn.quadfield import QuadElem

# the seven benchmark fields, and two d that are not squarefree
FIELDS = (-1, -2, -3, -7, -11, 2, 5, -4, 12)


@pytest.mark.parametrize("d", FIELDS)
def test_survey_order_is_sort_key_order(d):
    for height in range(1, 11):
        box = [QuadElem(Fraction(u, w), Fraction(v, w), d) for w in range(1, height + 1)
               for u in range(-height, height + 1) for v in range(-height, height + 1)
               if math.gcd(u, v, w) == 1]
        expected = sorted(box, key=lambda e: e.sort_key())
        got = _survey_params(d, height)
        assert [(e.a, e.b, e.d) for e in got] == [(e.a, e.b, e.d) for e in expected], height
