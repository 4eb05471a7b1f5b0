"""weierstrass_and_2torsion against the two-engine oracle in factor_oracle.

The library reads the Weierstrass points and the conjugate-pair classes from
one split into factors of degree <= 2; the oracle takes the points from
roots_in_quadfield and the pairs from the complete factorization over Q.
Points and classes must agree in value, in field and in order.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factor_oracle import weierstrass_and_2torsion_oracle
from quaddyn.curves import HypCurve, load_registry, weierstrass_and_2torsion
from quaddyn.polys import QQ, UniPoly

# the seven benchmark fields, and three d that are not squarefree
FIELDS = (-1, -2, -3, -7, -11, 2, 5, -4, 8, 12)
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def exact(answer):
    """repr of (points, classes), and every coordinate as (a, b, d)."""
    points, classes = answer

    def coords(pt):
        return tuple(None if e is None else (e.a, e.b, e.d) for e in (pt.x, pt.y))

    return (repr(points), repr(classes), [coords(pt) for pt in points],
            [[coords(pt) for pt in cls] for cls in classes])


def assert_agrees(curve, d):
    expected = weierstrass_and_2torsion_oracle(curve, d)
    assert exact(weierstrass_and_2torsion(curve, d)) == exact(expected)


def f_model_curves():
    registry = load_registry()
    names = sorted({entry.name for entry in registry.values()
                    if entry.curve.f is not None and entry.curve.genus() == 2})
    return [registry[name].curve for name in names]


def test_registry_f_models_match_the_oracle():
    curves = f_model_curves()
    assert len(curves) == 5
    for curve in curves:
        for d in FIELDS:
            assert_agrees(curve, d)


coefficient = st.integers(-4, 4)
leading = st.integers(1, 3)


@st.composite
def sextics_and_quintics(draw):
    """Small-coefficient f of degree 5 or 6, mostly with factors of degree <= 2."""
    degree = draw(st.sampled_from((5, 6)))
    f = UniPoly.const(QQ, Fraction(draw(st.sampled_from((1, -1, 2, Fraction(1, 2))))))
    for _ in range(draw(st.integers(0, 3))):
        part = draw(st.sampled_from((1, 2)))
        if f.degree() + part > degree:
            break
        low = [Fraction(draw(coefficient)) for _ in range(part)]
        f = f * UniPoly(QQ, low + [Fraction(draw(leading))])
    rest = degree - f.degree()
    cofactor = [Fraction(draw(coefficient)) for _ in range(rest)] + [Fraction(draw(leading))]
    return f * UniPoly(QQ, cofactor)


@DETERMINISTIC
@given(sextics_and_quintics(), st.sampled_from(FIELDS))
def test_squarefree_f_matches_the_oracle(f, d):
    assert f.degree() in (5, 6)
    try:
        curve = HypCurve(f=f)
    except ValueError:  # not squarefree
        assume(False)
    assert_agrees(curve, d)
