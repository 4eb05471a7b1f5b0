"""The factors of degree <= 2 over Q, and root-finding in Q(sqrt(d)).

One engine answers both questions.  low_degree_rational_factors takes the
squarefree part of f over Z (a modular integer-poly gcd), picks the first
good prime p >= 5, and splits off only the degree-1 and degree-2 parts of f
mod p (gcds with x^p - x and x^(p^2) - x, then an equal-degree split of the
quadratic block); the rest stays one block.  The blocks are Hensel-lifted to
a power of p past a root-size bound, and the factors over Z are recombined
from single lifted factors and from pairs of lifted linears by exact
division.  Higher-degree factors are never split.

Root-finding in K = Q(sqrt(d)) works through the norm polynomial: candidates
come from the degree-<=2 rational factors of P * conj(P), formed and split
over Z; multiplicities are read off by repeated exact division over K.

Internally, polynomials are plain lists of Python ints (constant term first,
no trailing zeros) and one kernel serves Z[x], F_p[x] and (Z/p^k)[x]:
_add, _sub, _mul and _deriv work over Z, and _mod(a, m) reduces where
arithmetic mod m is meant.  _divmod, _monic, _powmod and _eval take the
modulus m (a prime p, or p^k while Hensel lifting); _gcd takes a prime.
The public API speaks UniPoly.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .finitefield import is_prime
from .polys import QQ, QuadField, UniPoly
from .quadfield import QuadElem, fraction_sqrt

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
    """(linears, quadratics, rest) of monic squarefree f over F_p.

    Only the degree-1 and degree-2 parts are split off; the cofactor stays a
    single block, so no equal-degree work is wasted on high-degree content.
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
        rest = _divmod(rest, g2, p)[0]
        if len(g2) > 1:
            rng = random.Random(0xF00D + p)
            quads = sorted(_equal_degree(g2, 2, p, rng))
    return linears, quads, rest


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
# Hensel lifting and recombination
# ---------------------------------------------------------------------------


def _hensel_step(f, g, h, s, t, m: int, mm: int):
    """One quadratic step: from factorization mod m to mod mm, where
    m | mm | m*m (h monic)."""
    assert mm % m == 0 and m * m % mm == 0, "Hensel step target must lie between m and m*m"
    e = _mod(_sub(f, _mul(g, h)), mm)
    q, r = _divmod(_mul(s, e), h, mm)
    g1 = _mod(_add(g, _add(_mul(t, e), _mul(q, g))), mm)
    h1 = _mod(_add(h, r), mm)
    b = _mod(_sub(_add(_mul(s, g1), _mul(t, h1)), [1]), mm)
    c, d = _divmod(_mul(s, b), h1, mm)
    s1 = _mod(_sub(s, d), mm)
    t1 = _mod(_sub(t, _add(_mul(t, b), _mul(c, g1))), mm)
    assert _mod(_sub(f, _mul(g1, h1)), mm) == [], "Hensel step lost exactness"
    return g1, h1, s1, t1


def _hensel_lift(f, factors, p: int, target: int):
    """Lift monic factors mod p of f (f = lc * prod factors mod p) to mod p^target.

    Returns the list of monic lifted factors mod p^target, in input order.
    """
    lc = f[-1]
    modulus = p**target

    def lift_pair(fcur, fac_list):
        if len(fac_list) == 1:
            return [_monic(fcur, modulus)]
        mid = len(fac_list) // 2
        g = [fcur[-1] % p]
        for fac in fac_list[:mid]:
            g = _mod(_mul(g, fac), p)
        h = [1]
        for fac in fac_list[mid:]:
            h = _mod(_mul(h, fac), p)
        s, t = _bezout_mod_p(g, h, p)
        m = p
        gl, hl, sl, tl = g, h, s, t
        while m < modulus:
            # the last step stops at p^target, not at m*m
            mm = min(m * m, modulus)
            gl, hl, sl, tl = _hensel_step(fcur, gl, hl, sl, tl, m, mm)
            m = mm
        return lift_pair(gl, fac_list[:mid]) + lift_pair(hl, fac_list[mid:])

    lifted = lift_pair(_mod(f, modulus), factors)
    check = [lc % modulus]
    for fac in lifted:
        check = _mod(_mul(check, fac), modulus)
    assert check == _mod(f, modulus), "multifactor Hensel lift failed"
    return lifted


def _bezout_mod_p(g, h, p):
    """s, t with s*g + t*h = 1 mod p, deg s < deg h, deg t < deg g."""
    hp = _mod(h, p)
    r0, r1 = _mod(g, p), hp
    s0, s1 = [1], []
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(_sub(s0, _mul(q, s1)), p)
    if len(r0) != 1:
        raise ValueError("factors are not coprime mod p")
    inv = pow(r0[0], -1, p)
    s = _divmod([c * inv for c in s0], hp, p)[1]
    t, rem = _divmod(_sub([1], _mul(s, g)), hp, p)
    assert not rem, "Bezout construction failed"
    return s, t


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
    denom = 1
    for c in f.coeffs:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    ints = [int(c * denom) for c in f.coeffs]
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
    linears, quads, rest = _partial_split_mod_p(sqfree, p)
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
    blocks = linears + quads + ([rest] if len(rest) > 1 else [])
    lifted = _hensel_lift(sqfree, blocks, p, k)
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


def rational_roots(f: UniPoly) -> list[Fraction]:
    """Roots of f in Q, without multiplicity."""
    return [-g.coeffs[0] for g in low_degree_rational_factors(f, 1) if g.degree() == 1]


# ---------------------------------------------------------------------------
# roots in a quadratic field
# ---------------------------------------------------------------------------


def _norm_over_z(f: UniPoly) -> list:
    """The norm A^2 - d B^2 of f = A + B sqrt(d) over K, as an int list.

    With L the least common denominator of f's coefficients, the result is
    L^2 (A^2 - d B^2), formed with the int-list kernel; it is L A when B = 0,
    whose rational roots and low-degree factors are already those of f.
    """
    den = math.lcm(*(q.denominator for c in f.coeffs for q in (c.a, c.b)))
    a = _trim([c.a.numerator * (den // c.a.denominator) for c in f.coeffs])
    b = _trim([c.b.numerator * (den // c.b.denominator) for c in f.coeffs])
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
            t, n = Fraction(-g[1], g[2]), Fraction(g[0], g[2])
            disc = t * t - 4 * n
            s = fraction_sqrt(disc / dd)
            if s is None:
                continue
            candidates.append(QuadElem(t / 2, s / 2, dd))
            candidates.append(QuadElem(t / 2, -s / 2, dd))
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
    roots.sort(key=lambda r: r.sort_key())
    return roots
