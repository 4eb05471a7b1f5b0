import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ff_oracle import FiniteField, reduce_quad
from quaddyn.quadfield import (
    QuadElem,
    _Parser,
    _norm,
    _quad,
    format_elem,
    fraction_sqrt,
    parse_elem,
    quad_sqrt,
    squarefree_split,
)
from quadfield_oracle import quad_conj_norm_trace

F = Fraction
I = QuadElem(0, 1, -1)
W = QuadElem(F(-1, 2), F(1, 2), -3)

FIELDS = (-1, -3, 2, 5, 17, -15)


def rand_elem(rng, d):
    return QuadElem(
        F(rng.randint(-9, 9), rng.randint(1, 9)),
        F(rng.randint(-9, 9), rng.randint(1, 9)),
        d,
    )


def test_norm_of_one_plus_i():
    assert (1 + I) * (1 - I) == 2


def test_omega_is_cube_root_of_unity():
    assert W * W == -1 - W
    assert W**3 == 1


def test_inverse_of_sqrt_minus_three():
    x = 1 + 2 * W  # sqrt(-3)
    assert 1 / x == QuadElem(0, F(-1, 3), -3)
    assert x * (1 / x) == 1


def test_conj_norm_trace_examples():
    assert quad_conj_norm_trace(I) == (-I, F(1), F(0))
    conj, norm, trace = quad_conj_norm_trace(W)
    assert conj == -1 - W and norm == 1 and trace == -1
    assert quad_conj_norm_trace(QuadElem(3, 0, 5))[1:] == (F(9), F(6))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        I / QuadElem(0, 0, -1)


def test_mixed_fields_refuse_to_combine():
    with pytest.raises(ValueError):
        I + QuadElem(0, 1, 5)


def test_rational_elements_cross_fields():
    # a rational element may meet any field
    assert QuadElem(2, 0, 5) + I == QuadElem(2, 1, -1)


def test_d_normalization():
    e = QuadElem(0, 1, -4)
    assert e.d == -1 and e.b == 2
    with pytest.raises(ValueError):
        QuadElem(1, 1, 4)
    with pytest.raises(ValueError):
        QuadElem(1, 1, 0)
    assert squarefree_split(18) == (3, 2)
    assert squarefree_split(-12) == (2, -3)


def test_quad_sqrt_examples():
    assert quad_sqrt(QuadElem(0, 2, -1)) == 1 + I
    assert quad_sqrt(QuadElem(-2, 2, -3)) == QuadElem(1, 1, -3)
    assert quad_sqrt(QuadElem(2, 0, -1)) is None
    assert quad_sqrt(QuadElem(0, 0, 5)) == 0


def test_quad_sqrt_sign_convention():
    r = quad_sqrt(QuadElem(0, 2, -1))
    assert r.a > 0 or (r.a == 0 and r.b > 0)


def test_quad_sqrt_round_trip_property():
    rng = random.Random(11)
    for _ in range(60):
        for d in FIELDS:
            x = rand_elem(rng, d)
            r = quad_sqrt(x * x)
            assert r is not None and r * r == x * x
            direct = quad_sqrt(x)
            if direct is not None:
                assert direct * direct == x


def test_field_axioms_property():
    rng = random.Random(5)
    for d in FIELDS:
        for _ in range(25):
            a, b, c = (rand_elem(rng, d) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a
            if not a.is_zero():
                assert a * (1 / a) == 1


def test_norm_is_multiplicative_and_conj_involutive():
    rng = random.Random(6)
    for d in FIELDS:
        for _ in range(20):
            a, b = rand_elem(rng, d), rand_elem(rng, d)
            assert (a * b).norm() == a.norm() * b.norm()
            assert a.conj().conj() == a
            assert (a * b).conj() == a.conj() * b.conj()
            assert (a + b).conj() == a.conj() + b.conj()


def test_reduction_is_ring_homomorphism():
    rng = random.Random(7)
    field = FiniteField(7, 2)

    def elem():
        return QuadElem(
            F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 5, 6))),
            F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 5, 6))),
            5,
        )

    for _ in range(25):
        a, b = elem(), elem()
        assert reduce_quad(a + b, field) == reduce_quad(a, field) + reduce_quad(b, field)
        assert reduce_quad(a * b, field) == reduce_quad(a, field) * reduce_quad(b, field)


@pytest.mark.parametrize(
    "text,d",
    [
        ("-301/144", -1),
        ("i", None),
        ("w", None),
        ("1/2 - 1/3*sqrt(-3)", None),
        ("( -1/4 ) + (3/8)*i", None),
        ("2 + sqrt(5)", None),
        ("-6", -3),
    ],
)
def test_parse_format_round_trip(text, d):
    e = parse_elem(text, d)
    assert parse_elem(format_elem(e), e.d) == e


def test_w_style_formatting():
    assert format_elem(W, style="w") == "w"
    e = parse_elem("1/6 - 2/3*w", None)
    assert parse_elem(format_elem(e, style="w"), -3) == e
    assert e == QuadElem(F(1, 2), F(-1, 3), -3)


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("sqrt(", ")"), ("-", ""), ("+", "")])
def test_parser_nests_to_the_cap_and_no_deeper(opening, closing):
    cap = _Parser.MAX_NESTING
    one = QuadElem(1, 0, -1)
    assert parse_elem(opening * cap + "1" + closing * cap, -1) in (one, -one)
    with pytest.raises(ValueError, match=f"nested more than {cap} deep"):
        parse_elem(opening * (cap + 1) + "1" + closing * (cap + 1), -1)


def test_fraction_sqrt():
    assert fraction_sqrt(F(9, 4)) == F(3, 2)
    assert fraction_sqrt(F(2)) is None
    assert fraction_sqrt(F(-1)) is None


# every non-square d in [-60, 60] and the primes just inside |d| <= 10^12; the
# d with squarefree part -3, where the two styles differ, and the large primes
# are drawn as often as the rest together, which sampled_from alone does not do
ROUND_TRIP_DS = st.one_of(
    st.sampled_from([d for d in range(-60, 61) if d < 0 or math.isqrt(d) ** 2 != d]),
    st.sampled_from([-3, -12, -27, -48]),
    st.sampled_from([999999999989, -999999999989]),
)
SMALL_FRACTIONS = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(ROUND_TRIP_DS, SMALL_FRACTIONS, SMALL_FRACTIONS, st.sampled_from(["sqrt", "w"]))
def test_parse_format_round_trip_for_every_d(d, a, b, style):
    x = QuadElem(a, b, d)
    assert parse_elem(format_elem(x, style), d) == x


P = sys.hash_info.modulus


@pytest.mark.parametrize("a, c", [(-1, P), (-1, 2 * P), (-1, P + 1), (1, P + 1), (3, P * P),
                                  (-5, 2 * P - 1)])
def test_rational_hash_is_the_fraction_hash_at_the_modulus(a, c):
    # C = P and 2P have no inverse mod P (the hash is inf); C = P + 1 gives
    # a = -1 the hash -1, which Python reports as -2
    q = F(a, c)
    assert hash(QuadElem(q, 0, -1)) == hash(q) == hash(QuadElem(q, 0, 5))


def test_the_modulus_cases_are_the_special_ones():
    assert hash(F(-1, P + 1)) == -2 and hash(F(1, P)) == sys.hash_info.inf


def test_rational_hash_is_the_fraction_hash_on_large_values():
    rng = random.Random(36)
    for _ in range(2000):
        q = F(rng.randint(-10**40, 10**40), rng.randint(1, 10**40))
        assert hash(QuadElem(q, 0, -3)) == hash(q), q


BENCHMARK_FIELDS = (-1, -2, -3, -7, -11, 2, 5)


def seeded_triples(rng, count=3000):
    """Normalized (A, B, C) with d: small, large, integral and rational values."""
    for k in range(count):
        size = 10**rng.choice([1, 3, 30])
        a, c = rng.randint(-size, size), rng.choice([1, rng.randint(1, size)])
        yield _norm(a, 0 if k % 3 else rng.randint(-size, size), c), rng.choice(BENCHMARK_FIELDS)


def test_the_hash_is_kept_and_is_the_hash_of_every_build_of_the_value():
    rng = random.Random(2026)
    for (a, b, c), d in seeded_triples(rng):
        x = _quad((a, b, c), d)
        first = hash(x)
        assert hash(x) == first
        if not b:
            assert first == hash(F(a, c))
            if c == 1:
                assert first == hash(a)
        unpickled = pickle.loads(pickle.dumps(x))
        assert unpickled.triple == x.triple and not hasattr(unpickled, "_hash")
        assert x.__reduce__()[1] == ((a, b, c), d)
        y = _quad((rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)), d)
        for built in (QuadElem(F(a, c), F(b, c), d), _quad((a, b, c), d), unpickled,
                      (x + y) - y, (x * 3) / 3, -(-x)):
            assert built == x and hash(built) == first


def test_a_vertex_keyed_dict_finds_an_equal_int_or_fraction():
    from quaddyn.orbit import build_graph

    succ = build_graph(parse_elem("-1", -1), -1).succ  # the 2-cycle 0 <-> -1
    assert 0 in succ and succ[0] == -1 and -1 in succ
    succ = build_graph(parse_elem("-21/16", -1), -1).succ
    rationals = [v for v in succ if not v.triple[1] and v.triple[2] > 1]
    assert rationals
    for v in rationals:
        a, _, c = v.triple
        assert F(a, c) in succ and succ[F(a, c)] == succ[v]
        assert hash(F(a, c)) == hash(v)


def test_a_rational_expression_takes_its_field_from_its_parts():
    # the parser keeps a rational value a Fraction until a field element meets it
    i_squared = parse_elem("i*i")
    assert i_squared == -1 and i_squared.d == -1
    zero = parse_elem("sqrt(5) - sqrt(5)")
    assert zero.is_zero() and zero.d == 5
    with pytest.raises(ValueError, match="is rational; an ambient d is required"):
        parse_elem("2")
    assert parse_elem("2", 7) == 2 and parse_elem("2", 7).d == 7
