"""weierstrass_and_2torsion against the two-engine oracle in factor_oracle.

The library reads the Weierstrass points and the conjugate-pair classes from
one split into factors of degree <= 2; the oracle takes the points from
roots_in_quadfield and the pairs from the complete factorization over Q.
Points and classes must agree in value, in field and in order.  The oracle
knows nothing of a quartic factor over Q that splits over K: the library's
root-point pairs from such a split are checked apart, by multiplying the two
factors back, and on curves built from chosen factors over K.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factor_oracle import factor_rational, weierstrass_and_2torsion_oracle
from quaddyn.curves import HypCurve, load_registry, weierstrass_and_2torsion
from quaddyn.polys import QQ, QuadField, UniPoly
from quaddyn.quadfield import QuadElem

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


def over_k(poly, d):
    return poly.map_coeffs(QuadField(d), lambda c: QuadElem(c, 0, d))


def assert_agrees(curve, d):
    """The oracle's answer, plus the root-point pairs of a quartic that splits over K.

    Returns the quadratic factors over K behind the root-point pairs.
    """
    points, classes = weierstrass_and_2torsion(curve, d)
    split = [cls for cls in classes if cls and cls[0].kind == "root"]
    rest = [cls for cls in classes if cls not in split]
    assert exact((points, rest)) == exact(weierstrass_and_2torsion_oracle(curve, d))
    assert classes[len(rest):] == split  # the split pairs come last
    factors = [cls[0].x for cls in split]
    if factors:
        quartics = [g for g, _ in factor_rational(curve.f).factors if g.degree() == 4]
        assert len(quartics) == 1 and len(factors) == 2
        assert factors[0] * factors[1] == over_k(quartics[0], factors[0].ring.d)
        for cls in split:
            assert [pt.sign for pt in cls] == [1, -1] and cls[0].x is cls[1].x
            assert any(c.b for c in cls[0].x.coeffs)  # not a polynomial over Q
    return factors


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


@st.composite
def split_quartic_curves(draw):
    """(curve, d, u): f = u conj(u) w, with u = x^2 - s x + q over K not over Q,
    u conj(u) irreducible over Q, and w rational, linear or quadratic."""
    d = draw(st.sampled_from((-1, -2, -3, -7, 2, 5)))
    s = QuadElem(draw(coefficient), draw(coefficient), d)
    q = QuadElem(draw(coefficient), draw(coefficient), d)
    assume(s.b or q.b)
    field = QuadField(d)
    u = UniPoly(field, (q, -s, field.one))
    conj_u = UniPoly(field, (q.conj(), -s.conj(), field.one))
    quartic = UniPoly(QQ, [c.a for c in (u * conj_u).coeffs])
    assume([g.degree() for g, _ in factor_rational(quartic).factors] == [4])
    w = UniPoly(QQ, [Fraction(draw(coefficient)) for _ in range(draw(st.sampled_from((1, 2))))]
                + [Fraction(draw(leading))])
    try:
        curve = HypCurve(f=quartic * w)
    except ValueError:  # not squarefree
        assume(False)
    return curve, d, u


@DETERMINISTIC
@given(split_quartic_curves())
def test_a_quartic_split_over_k_gives_two_classes(case):
    curve, d, u = case
    factors = assert_agrees(curve, d)
    assert len(factors) == 2 and u in factors
    # the Galois orbits over K on the six Weierstrass points are the two root
    # pairs and either two single points or one more pair; J[2](K) has
    # 2^(r - 2) elements for r orbits when one is odd, 2^(r - 1) otherwise
    assert len(weierstrass_and_2torsion(curve, d)[1]) == 4
