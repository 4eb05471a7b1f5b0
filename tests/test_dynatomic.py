import random
from fractions import Fraction

import pytest

from quaddyn.dynatomic import (
    _F,
    _xcompose,
    _xdiv,
    dn_rn,
    dynatomic,
    gen_dynatomic,
    iterate_poly,
    mobius,
    specialize,
)
from dynatomic_oracle import (dynatomic_by_moebius, gen_dynatomic_by_composites, to_poly_ring,
                              verify_factorizations)
from dynatomic_oracle import iterate_poly as iterate_over_q
from polys_helper import PolyRing
from quaddyn.orbit import portrait
from quaddyn.polys import QQ, ExactnessError, UniPoly
from quaddyn.quadfield import QuadElem, parse_elem

F = Fraction


def sym_const(value):
    ring = PolyRing(QQ, "c")
    return UniPoly.const(ring, ring.of(value) if isinstance(value, int) else value, "x")


def test_dn_rn_values():
    assert dn_rn(1) == (2, 2)
    assert dn_rn(2) == (2, 1)
    assert dn_rn(3) == (6, 2)
    assert dn_rn(4) == (12, 3)
    assert dn_rn(5) == (30, 6)
    assert dn_rn(6) == (54, 9)


def test_mobius():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_iterate_identity_and_square():
    x = iterate_over_q("c", 0)
    assert x.degree() == 1 and x.coeffs == (x.ring.zero, x.ring.one)
    ring = PolyRing(QQ, "c")
    c = ring.gen()
    expected = (
        UniPoly.gen(ring, "x") ** 4
        + sym_const(2 * c) * UniPoly.gen(ring, "x") ** 2
        + sym_const(c * c + c)
    )
    assert iterate_over_q("c", 2) == expected
    # the kernel's f_c^2 over Z[c][x]: x^4 + 2c x^2 + c^2 + c
    f2 = _xcompose(_F, _xcompose(_F, [(), (1,)]))
    assert [tuple(p) for p in f2] == [(0, 1, 1), (), (0, 2), (), (1,)]
    assert to_poly_ring(f2) == expected


def test_iterate_orbit_values():
    # orbit of 0 under c = -1 is 0 -> -1 -> 0 -> -1
    c = QuadElem(-1, 0, -1)
    zero = QuadElem(0, 0, -1)
    assert iterate_poly(c, 2).eval(zero).is_zero()
    assert iterate_poly(c, 3).eval(zero) == QuadElem(-1, 0, -1)


def test_small_dynatomic_polynomials():
    ring = PolyRing(QQ, "c")
    x = UniPoly.gen(ring, "x")
    c = sym_const(ring.gen())
    assert to_poly_ring(dynatomic(1)) == x * x - x + c
    assert to_poly_ring(dynatomic(2)) == x * x + x + c + sym_const(1)
    assert to_poly_ring(gen_dynatomic(1, 1)) == x * x + x + c
    assert gen_dynatomic(0, 2) == dynatomic(2)


def test_degrees():
    assert len(dynatomic(6)) - 1 == 54
    assert len(gen_dynatomic(2, 3)) - 1 == 12
    assert len(gen_dynatomic(3, 2)) - 1 == 2 * 2**2


def test_degree_formula_at_random_specializations():
    rng = random.Random(9)

    def rand_c():
        return QuadElem(
            F(rng.randint(-9, 9), rng.randint(1, 6)),
            F(rng.randint(-9, 9), rng.randint(1, 6)),
            -1,
        )

    for n in range(1, 7):
        sym = dynatomic(n)
        assert len(sym) - 1 == dn_rn(n)[0]
        for _ in range(20):
            assert specialize(sym, rand_c()).degree() == dn_rn(n)[0]
    for m in range(1, 4):
        for n in (1, 2, 3):
            sym = gen_dynatomic(m, n)
            expected = dn_rn(n)[0] * 2 ** (m - 1)
            assert len(sym) - 1 == expected
            for _ in range(5):
                assert specialize(sym, rand_c()).degree() == expected


def test_specialized_path_matches_symbolic():
    c = QuadElem(F(-5, 12), 0, -3)
    for n in (1, 2, 3):
        assert dynatomic_by_moebius(n, c) == specialize(dynatomic(n), c)
    for m, n in ((1, 1), (2, 1), (1, 2)):
        assert gen_dynatomic(m, n, c) == specialize(gen_dynatomic(m, n), c)
    # large-height parameters: 6-7 digit numerators and denominators
    rng = random.Random(4242)

    def big():
        return rng.choice([-1, 1]) * rng.randint(10**5, 10**7 - 1)

    for d in (-1, -2, -3, -7, -11, 2, 5):
        c = QuadElem(F(big(), abs(big())), F(big(), abs(big())), d)
        for n in (1, 2, 3, 4):
            assert dynatomic_by_moebius(n, c) == specialize(dynatomic(n), c)
        assert gen_dynatomic(2, 1, c) == specialize(gen_dynatomic(2, 1), c)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_generalized_dynatomic_matches_the_composite_quotient(m, n):
    assert to_poly_ring(gen_dynatomic(m, n)) == gen_dynatomic_by_composites(m, n)


@pytest.mark.parametrize("d, c_text", [(-1, "-21/16"), (-3, "1/3 - 2/5*w"), (5, "7/4"),
                                       (-1, "1234567/7654321+7654321/1234567*i")])
@pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (3, 3), (2, 4)])
def test_specialized_generalized_dynatomic_matches_the_composite_quotient(d, c_text, m, n):
    c = parse_elem(c_text, d)
    assert gen_dynatomic(m, n, c) == gen_dynatomic_by_composites(m, n, c)


def test_factorization_identities():
    report = verify_factorizations(4, 2)
    assert report and all(report.values())


def test_expansion_identity_n2():
    # (x^2+c)^2 + c - x = (x^2 - x + c)(x^2 + x + c + 1)
    lhs = iterate_over_q("c", 2) - iterate_over_q("c", 0)
    assert lhs == to_poly_ring(dynatomic(1)) * to_poly_ring(dynatomic(2))


def test_formal_vs_exact_period():
    # at c = -3/4 the period-2 dynatomic has a double root of exact period 1
    c = QuadElem(F(-3, 4), 0, -1)
    phi2 = dynatomic(2, c)
    half = QuadElem(F(-1, 2), 0, -1)
    assert phi2.eval(half).is_zero()
    assert portrait(c, half) == (0, 1)


def test_bad_inputs():
    with pytest.raises(ValueError):
        dynatomic(0)
    with pytest.raises(ValueError):
        gen_dynatomic(-1, 1)
    with pytest.raises(ValueError):
        verify_factorizations(9, 1)
    for n_max in (0, -2, 7):
        with pytest.raises(ValueError, match=f"n_max must be in 1..6, got {n_max}"):
            verify_factorizations(n_max)
    with pytest.raises(ValueError, match="m_max must be >= 0, got -1"):
        verify_factorizations(2, -1)


def test_kernel_matches_the_oracle_symbolically():
    # m, n <= 3 is test_generalized_dynatomic_matches_the_composite_quotient
    for n in range(1, 7):
        assert to_poly_ring(dynatomic(n)) == dynatomic_by_moebius(n)


def test_kernel_matches_the_oracle_at_seeded_parameters():
    # the seven benchmark fields, at small and at seven-digit heights
    rng = random.Random(51)
    for d in (-1, -2, -3, -7, -11, 2, 5):
        for top in (6, 10**7):
            c = QuadElem(F(rng.randint(-top, top), rng.randint(1, top)),
                         F(rng.randint(-top, top), rng.randint(1, top)), d)
            for n in range(1, 7):
                assert dynatomic(n, c) == dynatomic_by_moebius(n, c)
            for m, n in ((1, 1), (2, 1), (1, 2), (1, 3)):
                assert gen_dynatomic(m, n, c) == gen_dynatomic_by_composites(m, n, c)


def test_kernel_refuses_an_inexact_division():
    with pytest.raises(ExactnessError):
        _xdiv([(0, 1), (), (1,)], [(1,), (1,)])  # (x^2 + c) / (x + 1) leaves c + 1
