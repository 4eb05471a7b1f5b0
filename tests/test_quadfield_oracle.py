"""QuadElem on int triples against the two-Fraction oracle.

Every operator (reflected ones, negative powers and division by zero
included), ==, hash, the field functions, both text styles, parse_elem and
quad_sqrt must give the same value, or raise the same error, under both
classes.  The fields are every non-square d in [-60, 60], so non-squarefree
d are normalized too, and the two large primes at the |d| bound.
"""

import math
import operator
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import quadfield_oracle as oracle
from quaddyn import quadfield
from quaddyn.quadfield import QuadElem, format_elem, parse_elem, quad_sqrt

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=300)
DS = st.one_of(
    st.sampled_from([d for d in range(-60, 61) if d < 0 or math.isqrt(d) ** 2 != d]),
    st.sampled_from([999999999989, -999999999989]),
)
PARTS = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-50, max_value=50, max_denominator=30))


@st.composite
def pairs(draw):
    """Two elements x, y as (quaddyn, oracle) pairs; y lies in x's field half the time."""
    d = draw(DS)
    dy = d if draw(st.booleans()) else draw(DS)
    a, b, ya, yb = (draw(PARTS) for _ in range(4))
    return ((QuadElem(a, b, d), oracle.QuadElem(a, b, d)),
            (QuadElem(ya, yb, dy), oracle.QuadElem(ya, yb, dy)))


def outcome(thunk):
    try:
        return thunk()
    except (ValueError, ZeroDivisionError) as err:
        return type(err), str(err)


def normalized(x: QuadElem) -> bool:
    A, B, C = x.triple
    return C > 0 and math.gcd(A, B, C) == 1


def same(new, old) -> bool:
    """new (quaddyn) is normalized and the same value as old (oracle), or the same error."""
    if isinstance(old, oracle.QuadElem):
        return (type(new) is QuadElem and normalized(new)
                and (new.a, new.b, new.d) == (old.a, old.b, old.d))
    return type(new) is type(old) and new == old


@DETERMINISTIC
@given(pairs(), PARTS, st.integers(-6, 6), st.integers(-3, 3))
def test_operators_agree_with_the_oracle(xy, q, n, k):
    (xn, xo), (yn, yo) = xy
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for left, right in (((xn, xo), (yn, yo)), ((xn, xo), (q, q)), ((q, q), (xn, xo)),
                            ((xn, xo), (n, n)), ((n, n), (xn, xo))):
            got = outcome(lambda: op(left[0], right[0]))
            assert same(got, outcome(lambda: op(left[1], right[1]))), (op, left, right)
    assert same(outcome(lambda: xn**k), outcome(lambda: xo**k))
    assert same(-xn, -xo)


@DETERMINISTIC
@given(pairs(), PARTS, st.integers(-6, 6))
def test_equality_and_hash_agree_with_the_oracle(xy, q, n):
    (xn, xo), (yn, yo) = xy
    for other_new, other_old in ((yn, yo), (q, q), (n, n)):
        equal = xn == other_new
        assert equal == (xo == other_old) == (other_new == xn) and (xn != other_new) == (not equal)
    if xn == yn:
        assert hash(xn) == hash(yn)
    if xn.is_rational():  # a rational element is its Fraction, in any field
        assert hash(xn) == hash(xo) == hash(xn.a)
        for d in (yn.d, 7):
            assert QuadElem(xn.a, 0, d) == xn and hash(QuadElem(xn.a, 0, d)) == hash(xn)


@DETERMINISTIC
@given(pairs(), st.sampled_from(["sqrt", "w"]))
def test_field_functions_and_text_agree_with_the_oracle(xy, style):
    (xn, xo), (yn, yo) = xy
    A, B, C = xn.triple
    assert normalized(xn) and (Fraction(A, C), Fraction(B, C)) == (xn.a, xn.b)
    assert same(xn.conj(), xo.conj()) and same(xn.norm(), xo.norm()) and same(xn.trace(), xo.trace())
    news = [xn, xn.conj(), -xn, -xn.conj(), yn, yn.conj()]
    olds = [xo, xo.conj(), -xo, -xo.conj(), yo, yo.conj()]
    order = range(len(news))
    assert (sorted(order, key=lambda i: news[i].sort_key())
            == sorted(order, key=lambda i: olds[i].sort_key())) and repr(xn) == repr(xo)
    assert (xn.is_zero(), xn.is_rational()) == (xo.is_zero(), xo.is_rational())
    text = format_elem(xn, style)
    assert text == oracle.format_elem(xo, style)
    back = parse_elem(text, xn.d)
    assert back == xn and (back.triple, back.d) == (xn.triple, xn.d)
    for zn, zo in ((xn, xo), (xn * xn, xo * xo)):
        assert same(quad_sqrt(zn), oracle.quad_sqrt(zo))


NEAR_BOUND = st.builds(Fraction, st.integers(-10**13, 10**13), st.integers(10**12 - 40, 10**12 + 40))


@DETERMINISTIC
@given(DS, st.one_of(PARTS, NEAR_BOUND), st.one_of(PARTS, NEAR_BOUND), st.one_of(PARTS, NEAR_BOUND),
       st.sampled_from(["sqrt", "w"]))
def test_text_and_square_roots_agree_with_the_oracle_beyond_squares(d, a, b, r, style):
    x, xo = QuadElem(a, b, d), oracle.QuadElem(a, b, d)
    m = x.d  # the squarefree part of d
    cases = [(-x * x, -xo * xo), (m * x * x, m * xo * xo),  # -x^2 and d x^2
             (QuadElem(m * r * r, 0, d), oracle.QuadElem(m * r * r, 0, d)),  # r with r/d a square
             (QuadElem(r, 0, d), oracle.QuadElem(r, 0, d)), (x, xo), (x * x, xo * xo)]
    for zn, zo in cases:
        assert format_elem(zn, style) == oracle.format_elem(zo, style)
        assert same(quad_sqrt(zn), oracle.quad_sqrt(zo)), (zn, style)


def test_text_and_square_roots_build_no_fraction():
    x = parse_elem("-5/12 + 7/10*sqrt(-3)")
    elems = [x, x * x, -3 * x * x, x.conj(), x * 0, QuadElem(Fraction(-27, 4), 0, -3)]
    with mock.patch.object(quadfield, "Fraction", side_effect=AssertionError("Fraction built")):
        texts = [format_elem(y, style) for y in elems for style in ("sqrt", "w")]
        roots = [quad_sqrt(y) for y in elems]
    assert texts[:2] == ["-5/12 + 7/10*sqrt(-3)", "17/60 + 7/5*w"]
    assert texts == [oracle.format_elem(oracle.QuadElem(y.a, y.b, y.d), style)
                     for y in elems for style in ("sqrt", "w")]
    assert roots[0] is None and roots[1] == -x and roots[2] * roots[2] == elems[2]
    assert roots[4].is_zero() and roots[5] == QuadElem(0, Fraction(3, 2), -3)
