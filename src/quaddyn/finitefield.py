"""Trial division, and integer arithmetic mod a prime p.

Factorization and primality by trial division (the one factoring loop of the
package), the Legendre symbol, the smallest quadratic non-residue (which
fixes the model F_p[t]/(t^2 - n) of F_{p^2} used by the curve layer), square
roots mod p and in F_p[sqrt(d)], and the reduction of a rational mod p.
Elements are plain ints in [0, p), or pairs of them.
"""

from __future__ import annotations

from fractions import Fraction


def trial_factor(n: int, bound: int | None = None) -> tuple[dict, int]:
    """({p: e}, rest) with n = rest * prod p^e, by trial division below bound.

    rest is 1 unless a cofactor of at least bound^2 is left: it has no prime
    factor below bound, but trial division does not prove it prime.
    """
    out, p = {}, 2
    while p * p <= n and (bound is None or p < bound):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if bound is not None and n >= bound * bound:
        return out, n
    if n > 1:
        out[n] = 1
    return out, 1


def factorize(n: int) -> dict:
    """{p: e} with n = prod p^e, for n >= 1."""
    return trial_factor(n)[0]


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p, values in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def smallest_nonresidue(p: int) -> int:
    if p == 2:
        raise ValueError("F_4 is not of the form F_2[t]/(t^2 - n)")
    n = 2
    while legendre(n, p) != -1:
        n += 1
    return n


def sqrt_mod_p(a: int, p: int) -> int | None:
    """Smallest square root of a mod p (Tonelli-Shanks), or None."""
    a %= p
    if p == 2 or a == 0:
        return a
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = smallest_nonresidue(p)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, idx = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            idx += 1
        b = pow(c, 1 << (m - idx - 1), p)
        m, c = idx, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def sqrt_mod_p2(p: int, d: int, a0: int, b0: int):
    """The square roots A + B sqrt(d) of a0 + b0 sqrt(d) in F_p[sqrt(d)], p odd.

    That is, the (A, B) mod p with A^2 + d B^2 = a0 and 2AB = b0.  With d a
    non-residue this is F_{p^2}; when p | d and a0 = b0 = 0 the p roots
    (0, B) are generated lazily.  Any root has (A^2 - d B^2)^2 = a0^2 - d b0^2,
    so A^2 = (a0 +- r)/2 for a square root r of that norm; B follows from
    2AB = b0, or from d B^2 = a0 when A = 0.
    """
    if d % p == 0 == a0 == b0:  # the ramified prime: A = 0, any B
        return ((0, b) for b in range(p))
    r = sqrt_mod_p(a0 * a0 - d * b0 * b0, p)
    if r is None:
        return []
    out = set()
    for h in {(a0 + r) * (p + 1) // 2 % p, (a0 - r) * (p + 1) // 2 % p}:
        root = sqrt_mod_p(h, p)
        for A in () if root is None else {root, -root % p}:
            if A:
                bs = (b0 * pow(2 * A, -1, p) % p,)
            elif d % p:
                b = sqrt_mod_p(a0 * pow(d, -1, p), p)
                bs = () if b is None else (b, -b % p)
            else:
                bs = ()
            out |= {(A, b) for b in bs if (A * A + d * b * b - a0) % p == 0 == (2 * A * b - b0) % p}
    return sorted(out)


def reduce_fraction(x, p: int) -> int:
    """Residue of a rational mod p; errors when the denominator vanishes."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
    return x.numerator * pow(x.denominator, -1, p) % p
