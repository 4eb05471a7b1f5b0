import math

import pytest

from ff_oracle import FiniteField
from quaddyn.finitefield import is_prime, reduce_fraction, sqrt_mod_p, trial_factor
from fractions import Fraction


def test_f9_structure():
    field = FiniteField(3, 2)
    elements = list(field.elements())
    assert len(elements) == 9
    nonzero = [e for e in elements if not e.is_zero()]
    orders = []
    for e in nonzero:
        k, cur = 1, e
        while cur != field.one():
            cur = cur * e
            k += 1
        orders.append(k)
    assert max(orders) == 8  # multiplicative group cyclic of order 8


def test_f5_product():
    field = FiniteField(5)
    assert field(2) * field(3) == field(1)


def test_reduction_of_negative_fraction():
    # -29/16 mod 3: 16 = 1, -29 = 1
    assert reduce_fraction(Fraction(-29, 16), 3) == 1


def test_denominator_vanishing():
    with pytest.raises(ZeroDivisionError):
        reduce_fraction(Fraction(1, 3), 3)


def test_field_axioms_f49():
    field = FiniteField(7, 2)
    els = list(field.elements())
    assert len(els) == 49
    sample = els[::5]
    for a in sample:
        for b in sample:
            assert a + b == b + a
            assert a * b == b * a
            if not b.is_zero():
                assert (a / b) * b == a
    for a in sample:
        if not a.is_zero():
            assert a * a.inverse() == field.one()


def test_not_prime_rejected():
    with pytest.raises(ValueError):
        FiniteField(6)
    assert is_prime(2) and is_prime(97) and not is_prime(91)


def test_sqrt_mod_p():
    assert sqrt_mod_p(4, 7) == 2
    assert sqrt_mod_p(3, 7) is None
    r = sqrt_mod_p(5, 41)
    assert r is not None and r * r % 41 == 5


def test_sqrt_of_int_in_quadratic_extension():
    field = FiniteField(7, 2)
    for d in (-1, -3, 2, 5):
        r = field.sqrt_of_int(d % 7)
        assert r * r == field(d % 7)


def test_f4_has_modulus_t2_t_1():
    field = FiniteField(2, 2)
    assert field.modulus == (1, 1)
    t = field(0, 1)
    assert t * t + t + field.one() == field.zero()


def sieve(n: int) -> bytearray:
    """is_prime flags for 0..n-1 by the sieve of Eratosthenes."""
    flags = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, math.isqrt(n - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytearray(len(range(p * p, n, p)))
    return flags


@pytest.mark.parametrize("bound", [None, 2, 3, 4, 7, 30, 60])
def test_trial_factor_against_a_sieve(bound):
    limit = 4000
    prime = sieve(limit)
    for n in range(1, limit):
        factors, rest = trial_factor(n, bound)
        assert rest * math.prod(p**e for p, e in factors.items()) == n
        assert all(prime[p] and e > 0 for p, e in factors.items())
        if bound is None:
            assert rest == 1
        else:
            assert all(rest % p for p in range(2, bound))
            assert rest == 1 or rest >= bound * bound
