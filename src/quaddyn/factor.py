"""The factors of degree <= 2 over Q, and root-finding in Q(sqrt(d)).

One engine answers both questions.  low_degree_rational_factors takes the
squarefree part of f over Z (a modular integer-poly gcd), picks the first
good prime p >= 5, and splits off only the degree-1 and degree-2 factors of
f mod p (gcds with x^p - x and x^(p^2) - x, then an equal-degree split of
the quadratic block); the cofactor is never split or lifted.  Each small
factor g is lifted on its own to p^k, past a root-size bound, by Newton's
method on the root x of f in (Z/p^k)[x]/(g); the lift is that root's minimal
polynomial.  The factors over Z are recombined from single lifted factors
and from pairs of lifted linears by exact division.

Root-finding in K = Q(sqrt(d)) works through the norm polynomial: candidates
come from the degree-<=2 rational factors of P * conj(P), formed and split
over Z; multiplicities are read off by repeated exact division over K.

Internally, polynomials are plain lists of Python ints (constant term first,
no trailing zeros) and one kernel serves Z[x], F_p[x] and (Z/p^k)[x]:
_add, _sub, _mul and _deriv work over Z, and _mod(a, m) reduces where
arithmetic mod m is meant.  _divmod, _monic, _powmod and _eval take the
modulus m (a prime p, or p^k while lifting); _gcd takes a prime.  Over Z,
_integral clears denominators, _taylor gives the rows of a(x + y), and
_zresultant the resultant.  The public API speaks UniPoly.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .finitefield import is_prime
from .polys import QQ, QuadField, UniPoly
from .quadfield import QuadElem, quadratic_roots, sorted_elems

# ---------------------------------------------------------------------------
# polynomials as int lists (constant term first, no trailing zeros)
# ---------------------------------------------------------------------------


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mod(a, m: int) -> list:
    return _trim([c % m for c in a])


def _add(a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for k, c in enumerate(b):
        out[k] += c
    return _trim(out)


def _sub(a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for k, c in enumerate(b):
        out[k] -= c
    return _trim(out)


def _mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def _deriv(a):
    return _trim([a[k] * k for k in range(1, len(a))])


def _integral(coeffs) -> tuple[int, list]:
    """(D, ints): D the lcm of the denominators of the Fractions coeffs, ints = D * coeffs."""
    D = math.lcm(*(c.denominator for c in coeffs))
    return D, [c.numerator * (D // c.denominator) for c in coeffs]


def _taylor(a) -> list:
    """The rows a^(k)/k!, k = 0..deg a, with a(x + y) = sum_k a^(k)/k!(x) y^k."""
    return [[math.comb(i, k) * c for i, c in enumerate(a)][k:] for k in range(len(a))]


def _zresultant(a, b) -> int:
    """res(a, b) over Z: the Sylvester determinant, by fraction-free elimination.

    Bareiss (Math. Comp. 1968): after step k each entry is a k+1 by k+1 minor,
    so the division by the previous pivot is exact.  res is 0 when a or b is
    zero, and 1 for two nonzero constants.
    """
    if not a or not b:
        return 0
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    rows = ([[0] * k + a[::-1] + [0] * (n - 1 - k) for k in range(n)]
            + [[0] * k + b[::-1] + [0] * (m - 1 - k) for k in range(m)])
    sign, prev = 1, 1
    for k in range(size - 1):
        pivot = next((i for i in range(k, size) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        for row in rows[k + 1:]:
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = (top[k] * row[j] - lead * top[j]) // prev
        prev = top[k]
    return sign * rows[-1][-1] if size else 1


def _divmod(a, b, m: int):
    """divmod in (Z/m)[x] for b with unit leading coefficient."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    inv = pow(b[-1], -1, m)
    rem = [c % m for c in a]
    if len(rem) < len(b):
        return [], _trim(rem)
    quot = [0] * (len(rem) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        top = rem[k + len(b) - 1]
        if not top:
            continue
        q = top * inv % m
        quot[k] = q
        for j, c in enumerate(b):
            rem[k + j] = (rem[k + j] - q * c) % m
    return _trim(quot), _trim(rem)


def _monic(a, m: int):
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, m)
    return _mod([c * inv for c in a], m)


def _gcd(a, b, p: int):
    """Monic gcd in F_p[x]."""
    a, b = _mod(a, p), _mod(b, p)
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _powmod(a, e: int, f, m: int):
    """a^e mod f in (Z/m)[x]."""
    out, base = [1], _divmod(a, f, m)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, base), f, m)[1]
        base = _divmod(_mul(base, base), f, m)[1]
        e >>= 1
    return out


def _eval(a, x, m: int) -> int:
    out = 0
    for c in reversed(a):
        out = (out * x + c) % m
    return out


# ---------------------------------------------------------------------------
# the degree-1 and degree-2 part over F_p
# ---------------------------------------------------------------------------


def _equal_degree(f, d: int, p, rng: random.Random):
    """Cantor-Zassenhaus split of f (product of degree-d irreducibles), odd p."""
    n = len(f) - 1
    if n == d:
        return [f]
    exponent = (p**d - 1) // 2
    while True:
        r = _trim([rng.randrange(p) for _ in range(n)])
        if len(r) < 2:
            continue
        g = _gcd(_sub(_powmod(r, exponent, f, p), [1]), f, p)
        if 1 < len(g) < len(f):
            left = _equal_degree(g, d, p, rng)
            right = _equal_degree(_divmod(f, g, p)[0], d, p, rng)
            return left + right


def _partial_split_mod_p(f, p: int):
    """(linears, quadratics): the monic irreducible factors of degree 1 and 2
    of squarefree f over F_p.

    The cofactor is never split, so no equal-degree work is wasted on
    high-degree content.
    """
    fm = _monic(_mod(f, p), p)
    h = _powmod([0, 1], p, fm, p)
    g1 = _gcd(_sub(h, [0, 1]), fm, p)
    rest = _divmod(fm, g1, p)[0]
    linears = sorted([p - r if r else 0, 1] for r in range(p) if _eval(g1, r, p) == 0)
    assert len(linears) == len(g1) - 1, "linear block failed to split into roots"
    quads = []
    if len(rest) - 1 >= 2:
        h = _powmod(h, p, rest, p)  # x^(p^2) mod rest
        g2 = _gcd(_sub(h, [0, 1]), rest, p)
        if len(g2) > 1:
            rng = random.Random(0xF00D + p)
            quads = sorted(_equal_degree(g2, 2, p, rng))
    return linears, quads


# ---------------------------------------------------------------------------
# polynomials over Z
# ---------------------------------------------------------------------------


def _zprimitive(a):
    """(content-with-sign, primitive part with positive lc)."""
    if not a:
        return 1, []
    g = math.gcd(*a) or 1
    if a[-1] < 0:
        g = -g
    return g, [c // g for c in a]


def _zdivexact(a, b):
    """Exact division in Z[x]; returns None when b does not divide a."""
    if not b:
        raise ZeroDivisionError
    rem = list(a)
    if len(rem) < len(b):
        return None if _trim(rem) else []
    quot = [0] * (len(rem) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        top = rem[k + len(b) - 1]
        if top % b[-1]:
            return None
        q = top // b[-1]
        quot[k] = q
        for j, c in enumerate(b):
            rem[k + j] -= q * c
    return _trim(quot) if not _trim(rem) else None


def _sym(x: int, m: int) -> int:
    x %= m
    return x - m if x > m // 2 else x


def _primes_from(start: int):
    p = start
    while True:
        if is_prime(p):
            yield p
        p += 1


def _good_primes(f):
    """Primes p >= 5, in increasing order, with p prime to lc(f) and f squarefree mod p."""
    df = _deriv(f)
    for p in _primes_from(5):
        if f[-1] % p and len(_gcd(f, df, p)) == 1:
            yield p


def z_gcd(a, b):
    """Primitive gcd in Z[x] by the modular method (positive lc)."""
    a, b = _trim(list(a)), _trim(list(b))
    if not a:
        return _zprimitive(b)[1]
    if not b:
        return _zprimitive(a)[1]
    _, a = _zprimitive(a)
    _, b = _zprimitive(b)
    lc_bound = math.gcd(a[-1], b[-1])
    best_deg = None
    modulus = 0
    acc = None
    for p in _primes_from(5):
        if a[-1] % p == 0 or b[-1] % p == 0:
            continue
        # lc_bound is a unit mod p, so scaling keeps the degree
        gp = _mod([c * lc_bound for c in _gcd(a, b, p)], p)
        deg = len(gp) - 1
        if deg == 0:
            return [1]
        if best_deg is None or deg < best_deg:
            best_deg, modulus, acc = deg, p, gp
        elif deg == best_deg:
            inv = pow(modulus, -1, p)
            combined = []
            for x, y in zip(acc, gp):
                t = (y - x) * inv % p
                combined.append(x + modulus * t)
            modulus *= p
            acc = combined
        else:
            continue
        cand = _trim([_sym(c, modulus) for c in acc])
        cand = _zprimitive(cand)[1]
        if cand and _zdivexact(a, cand) is not None and _zdivexact(b, cand) is not None:
            return cand
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Newton lifting and recombination
# ---------------------------------------------------------------------------


def _lift(f, g, big: int, p: int):
    """The monic factor of f mod big = p^k that reduces to g mod p.

    g is a linear or irreducible quadratic factor of f mod p, and f is
    squarefree mod p.  Newton's method lifts the root rho = x of f in
    (Z/m)[x]/(g), for m = p, p^2, ... up to big: f'(rho) is a unit, and it is
    inverted as conj / N.  The conjugate of x is -g_1 - x (the identity when
    g is linear).  The factor is rho's minimal polynomial, x - rho or
    x^2 - Tr(rho) x + N(rho); the lift of a factor mod p is unique.
    """

    def mul(a, b, m):
        return _divmod(_mul(a, b), g, m)[1]

    def conj(a):
        if len(g) == 2:
            return a
        a0, a1 = (a + [0, 0])[:2]
        return _trim([a0 - a1 * g[1], -a1])

    def value(h, rho, m):
        out = []
        for c in reversed(h):
            out = _mod(_add(mul(out, rho, m), [c]), m)
        return out

    df, rho, m = _deriv(f), _divmod([0, 1], g, p)[1], p
    while m < big:
        m = min(m * m, big)
        slope = value(df, rho, m)
        bar = conj(slope)
        inv = pow(mul(slope, bar, m)[0], -1, m)
        rho = _mod(_sub(rho, mul(value(f, rho, m), [c * inv for c in bar], m)), m)
    if len(g) == 2:
        return _mod([-(rho or [0])[0], 1], big)
    bar = conj(rho)
    trace, norm = _mod(_add(rho, bar), big), mul(rho, bar, big)
    return _mod([(norm or [0])[0], -(trace or [0])[0], 1], big)


def _lift_exponent(p: int, bound: int) -> int:
    """Least k with p^k > 2 * bound, so balanced residues mod p^k recover |c| <= bound."""
    k = 1
    while p**k <= 2 * bound:
        k += 1
    return k


def _recombine(f, lifted, indices, big: int):
    """(factor, cofactor) when the lifted factors at indices give a factor of f over Z.

    The candidate is lc(f) * prod lifted[indices] with balanced residues mod
    big, made primitive; it counts when it divides f exactly.  Else None.
    """
    cand = [f[-1] % big]
    for idx in indices:
        cand = _mod(_mul(cand, lifted[idx]), big)
    cand = _zprimitive(_trim([_sym(c, big) for c in cand]))[1]
    if not cand:
        return None
    quot = _zdivexact(f, cand)
    return None if quot is None else (cand, quot)


# ---------------------------------------------------------------------------
# factors of degree <= 2 over Q
# ---------------------------------------------------------------------------


def _to_int_poly(f: UniPoly) -> tuple[Fraction, list]:
    """f = scale * primitive-Z-poly (positive lc)."""
    denom, ints = _integral(f.coeffs)
    cont, prim = _zprimitive(ints)
    return Fraction(cont, denom), prim


def _from_int_poly(zs) -> tuple[UniPoly, Fraction]:
    """(monic UniPoly over Q, leading coefficient) of a nonzero int list."""
    poly = UniPoly(QQ, [Fraction(c) for c in zs])
    lead = poly.lc()
    return poly * (1 / lead), lead


def low_degree_rational_factors(f: UniPoly, max_degree: int = 2) -> list:
    """All monic irreducible factors of f over Q of degree <= max_degree.

    Only degree-1/2 modular factors are split, lifted (against a root-size
    bound rather than the full Mignotte bound) and recombined in singletons
    and pairs, so norm-doubled dynatomic inputs stay fast.
    """
    if max_degree > 2:
        raise ValueError("only degrees 1 and 2 are supported")
    _, prim = _to_int_poly(f)
    out = [_from_int_poly(g)[0] for g in _low_degree_factors(prim, max_degree)]
    out.sort(key=lambda poly: (poly.degree(), poly.coeffs))
    return out


def _low_degree_factors(f, max_degree: int) -> list:
    """Irreducible factors over Z of degree 1..max_degree (<= 2) of an int list f.

    Factors are primitive with positive lc, each listed once, in no set order.
    """
    _, prim = _zprimitive(f)
    if len(prim) <= 1:
        return []
    sqfree = _zdivexact(prim, z_gcd(prim, _deriv(prim)))
    sqfree = _zprimitive(sqfree)[1]
    if len(sqfree) == 2:
        return [sqfree]
    p = next(_good_primes(sqfree))
    linears, quads = _partial_split_mod_p(sqfree, p)
    if not linears and not quads:
        return []
    lc = sqfree[-1]
    # coefficients of lc * (degree <= 2 factor) are bounded through the
    # Cauchy root bound (rounded up); no full-degree Mignotte height needed
    height = max(abs(c) for c in sqfree)
    root_bound = 1 + (height + abs(lc) - 1) // abs(lc)
    bound = 2 * abs(lc) * (root_bound + 1) ** 2 + 1
    k = _lift_exponent(p, bound)
    big = p**k
    lifted = [_lift(sqfree, g, big, p) for g in linears + quads]
    found = []
    free = []
    for i in range(len(linears)):
        hit = _recombine(sqfree, lifted, (i,), big)
        if hit is None:
            free.append(i)
        else:
            found.append(hit[0])
    if max_degree >= 2:
        quad_idx = range(len(linears), len(linears) + len(quads))
        for indices in itertools.chain(((i,) for i in quad_idx), itertools.combinations(free, 2)):
            hit = _recombine(sqfree, lifted, indices, big)
            if hit is not None:
                found.append(hit[0])
    return found


# ---------------------------------------------------------------------------
# roots in a quadratic field
# ---------------------------------------------------------------------------


def _norm_over_z(f: UniPoly) -> list:
    """The norm A^2 - d B^2 of f = A + B sqrt(d) over K, as an int list.

    With L the least common denominator of f's coefficients, the result is
    L^2 (A^2 - d B^2), formed with the int-list kernel; it is L A when B = 0,
    whose rational roots and low-degree factors are already those of f.
    """
    triples = [c.triple for c in f.coeffs]
    den = math.lcm(*(w for _, _, w in triples))
    a = _trim([u * (den // w) for u, _, w in triples])
    b = _trim([v * (den // w) for _, v, w in triples])
    if not b:
        return a
    return _sub(_mul(a, a), [f.ring.d * c for c in _mul(b, b)])


def roots_in_quadfield(f: UniPoly, d: int | None = None) -> list[QuadElem]:
    """Multiset of roots of f lying in K = Q(sqrt(d)), sorted deterministically.

    f may be over Q (then d is required) or over QuadField(d).  Candidates
    are the K-rational roots of the degree-<=2 factors over Q of the norm
    N(f) = A^2 - d B^2 (f = A + B sqrt(d)), which is formed over Z after
    clearing f's denominators once and split without leaving Z.  Each
    candidate is then checked, and its multiplicity read off, by exact
    division over K.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if isinstance(f.ring, QuadField):
        field = f.ring
    else:
        if d is None:
            raise ValueError("ambient d required for a rational polynomial")
        field = QuadField(d)
        f = f.map_coeffs(field, lambda c: QuadElem(c, 0, field.d))
    dd = field.d
    candidates: list[QuadElem] = []
    for g in _low_degree_factors(_norm_over_z(f), 2):
        if len(g) == 2:
            candidates.append(QuadElem(Fraction(-g[0], g[1]), 0, dd))
        else:
            candidates += quadratic_roots(Fraction(-g[1], g[2]), Fraction(g[0], g[2]), dd) or ()
    roots: list[QuadElem] = []
    xgen = UniPoly.gen(field, f.var)
    for cand in candidates:
        if not f.eval(cand).is_zero():
            continue
        mult = 0
        cur = f
        linear = xgen - UniPoly.const(field, cand, f.var)
        while True:
            quot, rem = cur.divrem(linear)
            if not rem.is_zero():
                break
            mult += 1
            cur = quot
        roots.extend([cand] * mult)
    return sorted_elems(roots)
