"""The Newton lift of one small factor mod p against the multifactor Hensel lift.

quaddyn.factor._lift lifts a linear or irreducible quadratic factor g of f
mod p to p^k through the root of f in (Z/p^k)[x]/(g).  The oracle lifts the
whole factorization mod p through a binary tree of Bezout-based steps; a lift
of a factor mod p is unique, so both must give the same factor.
"""

from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factor_oracle import _hensel_lift, factor_mod_p
from quaddyn import factor
from quaddyn.factor import _deriv, _good_primes, _lift, _low_degree_factors, _mul, z_gcd

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@DETERMINISTIC
@given(st.lists(st.integers(-30, 30), min_size=3, max_size=10), st.integers(1, 5),
       st.integers(0, 3), st.integers(1, 12))
def test_newton_lift_equals_the_hensel_lift(coeffs, lead, nth_prime, k):
    f = coeffs + [lead]
    assume(len(z_gcd(f, _deriv(f))) == 1)  # squarefree over Z
    primes = _good_primes(f)
    for _ in range(nth_prime):
        next(primes)
    p = next(primes)
    factors = factor_mod_p(f, p)
    lifted = _hensel_lift(f, factors, p, k)
    small = [(g, lift) for g, lift in zip(factors, lifted) if len(g) <= 3]
    assume(small)
    for g, lift in small:
        assert _lift(f, g, p**k, p) == lift, (f, p, k, g)


def test_the_engine_lifts_no_factor_above_degree_2():
    # mod 7, the first good prime, x^9 + x + 3 is a linear factor times an
    # irreducible octic; the engine must lift only the factors of degree <= 2
    f = _mul(_mul([-3, 1], [1, 0, 1]), _mul([5, 2], [3, 1, 0, 0, 0, 0, 0, 0, 0, 1]))
    with mock.patch.object(factor, "_lift", wraps=factor._lift) as spy:
        found = _low_degree_factors(f, 2)
    assert sorted(found) == sorted([[-3, 1], [1, 0, 1], [5, 2]])
    lifted = [call.args[1] for call in spy.call_args_list]
    assert lifted and all(len(g) <= 3 for g in lifted)
    assert sum(len(g) - 1 for g in lifted) < len(f) - 1


def test_the_multifactor_hensel_lift_lives_only_in_the_oracle():
    for name in ("_hensel_step", "_hensel_lift", "_bezout_mod_p"):
        assert not hasattr(factor, name), name
