"""Complete factorization over Q, kept for the tests as an oracle.

quaddyn factors only as far as its questions need: the degree-<=2 factors
over Q (low_degree_rational_factors) and the roots in Q(sqrt(d))
(roots_in_quadfield).  The pipeline here finds every irreducible factor:
content/primitive split, Yun squarefree decomposition, factorization modulo a
good prime (distinct-degree then equal-degree splitting), Hensel lifting up
to a Mignotte-style bound, and recombination by subset search in order of
subset size.  It shares the int-list kernel of quaddyn.factor (arithmetic in
Z[x] and F_p[x], the recombination test) but none of the degree-<=2 split.
The multifactor Hensel lift here (a binary tree of Bezout-based quadratic
steps) is also the oracle for quaddyn.factor._lift, which lifts one small
factor at a time by Newton's method on its root.

- factor_rational is the complete factorization, with multiplicities;
- certify_irreducible gives an irreducibility certificate;
- weierstrass_and_2torsion_oracle reads the Weierstrass points from
  roots_in_quadfield and the conjugate-pair classes from factor_rational.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from quaddyn.curves import CurvePoint, HypCurve
from quaddyn.factor import (
    _add,
    _deriv,
    _divmod,
    _equal_degree,
    _from_int_poly,
    _gcd,
    _good_primes,
    _lift_exponent,
    _mod,
    _monic,
    _mul,
    _powmod,
    _recombine,
    _sub,
    _to_int_poly,
    _zdivexact,
    _zprimitive,
    rational_roots,
    roots_in_quadfield,
    z_gcd,
)
from quaddyn.polys import QQ, UniPoly
from quaddyn.quadfield import QuadElem, fraction_sqrt, squarefree_split


def _distinct_degree(f, p):
    """Split monic squarefree f into (product, degree) blocks."""
    blocks = []
    h = [0, 1]
    fstar = list(f)
    d = 0
    while len(fstar) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, fstar, p)
        g = _gcd(_sub(h, [0, 1]), fstar, p)
        if len(g) > 1:
            blocks.append((g, d))
            fstar = _divmod(fstar, g, p)[0]
            h = _divmod(h, fstar, p)[1]
    if len(fstar) > 1:
        blocks.append((fstar, len(fstar) - 1))
    return blocks


def factor_mod_p(f, p: int) -> list:
    """Monic irreducible factors over F_p of f (deterministic seed).

    f must have lc(f) prime to p and be squarefree mod p; else ValueError.
    """
    fm = _mod(f, p)
    if not f or f[-1] % p == 0 or len(_gcd(fm, _deriv(fm), p)) != 1:
        raise ValueError(f"f needs a unit leading coefficient and a squarefree reduction mod {p}")
    rng = random.Random(0xD15C0 + p + 31 * len(f))
    fm = _monic(fm, p)
    out = []
    for block, d in _distinct_degree(fm, p):
        out.extend(_equal_degree(block, d, p, rng))
    return sorted(out)


def z_squarefree_decomposition(f):
    """Yun's algorithm on a primitive f in Z[x]: list of (factor_i, i)."""
    out = []
    g = z_gcd(f, _deriv(f))
    w = _zdivexact(f, g)
    y = _zdivexact(_deriv(f), g)
    z = _sub(y, _deriv(w))
    i = 1
    while len(w) > 1:
        a = z_gcd(w, z)
        if len(a) > 1:
            out.append((a, i))
        w = _zdivexact(w, a)
        y = _zdivexact(z, a)
        z = _sub(y, _deriv(w))
        i += 1
    return out


def _pick_prime(f, tries: int = 6):
    """Good primes p >= 5 (squarefree reduction), fewest modular factors first."""
    found = []
    for p in _good_primes(f):
        factors = factor_mod_p(f, p)
        found.append((len(factors), p, factors))
        if len(factors) == 1 or len(found) >= tries:
            break
    _, p, factors = min(found, key=lambda rec: rec[:2])
    return p, factors


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


def zassenhaus(f) -> list:
    """Irreducible factors (primitive, positive lc) of a primitive squarefree f."""
    if len(f) - 1 <= 1:
        return [list(f)]
    p, mod_factors = _pick_prime(f)
    if len(mod_factors) == 1:
        return [list(f)]
    n = len(f) - 1
    height = max(abs(c) for c in f)
    # |coeff of lc * factor| <= 2^n sqrt(n+1) height |lc|, rounded up
    bound = 2 * (1 << n) * (math.isqrt(n + 1) + 1) * height * abs(f[-1]) + 1
    k = _lift_exponent(p, bound)
    big = p**k
    lifted = _hensel_lift(f, mod_factors, p, k)
    result = []
    active = list(range(len(lifted)))
    fcur = list(f)
    size = 1
    while 2 * size <= len(active):
        progress = True
        while progress:
            progress = False
            for subset in itertools.combinations(active, size):
                found = _recombine(fcur, lifted, subset, big)
                if found is None:
                    continue
                result.append(found[0])
                fcur = _zprimitive(found[1])[1]
                active = [i for i in active if i not in subset]
                progress = True
                break
        size += 1
    if len(fcur) > 1:
        result.append(fcur)
    return result


@dataclass(frozen=True)
class FactorList:
    """content * prod(factor^multiplicity) == the factored polynomial."""

    content: Fraction
    factors: tuple  # ((monic UniPoly over Q, multiplicity), ...)

    def product(self) -> UniPoly:
        out = UniPoly.const(QQ, self.content)
        for poly, mult in self.factors:
            out = out * poly**mult
        return out


def factor_rational(f: UniPoly) -> FactorList:
    """Complete irreducible factorization over Q."""
    if f.ring != QQ:
        raise ValueError("factor_rational expects a polynomial over Q")
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    scale, prim = _to_int_poly(f)
    if len(prim) == 1:
        return FactorList(scale * prim[0], ())
    content = scale
    pieces = []
    for sq_part, mult in z_squarefree_decomposition(prim):
        for irr in zassenhaus(sq_part):
            monic, lead = _from_int_poly(irr)
            content *= lead**mult
            pieces.append((monic, mult))
    pieces.sort(key=lambda fm: (fm[0].degree(), fm[0].coeffs))
    out = FactorList(content, tuple(pieces))
    assert out.product() == f, "factorization does not reproduce the input"
    return out


def certify_irreducible(f: UniPoly) -> tuple[bool, str]:
    """Certificate that monic f is irreducible over Q.

    degree <= 3: rational-root / discriminant arguments; degree >= 4: a
    repeated factor (gcd with the derivative over Z) refutes at once, else a
    modular degree-pattern witness across three good primes, falling back to
    the uniqueness of the Hensel-lifted factorization.
    """
    n = f.degree()
    if n <= 0:
        return False, "constant"
    if n == 1:
        return True, "linear"
    if n == 2:
        t, c0 = -f.coeffs[1], f.coeffs[0]
        disc = t * t - 4 * c0
        return fraction_sqrt(disc) is None, "discriminant"
    if n == 3:
        return not rational_roots(f), "rational-root"
    _, prim = _to_int_poly(f)
    if len(z_gcd(prim, _deriv(prim))) > 1:
        return False, "not squarefree"
    patterns = []
    for p in itertools.islice(_good_primes(prim), 3):
        degs = sorted(len(g) - 1 for g in factor_mod_p(prim, p))
        reachable = {0}
        for dg in degs:
            reachable |= {r + dg for r in reachable}
        patterns.append(reachable)
    feasible = set.intersection(*patterns)
    if not any(0 < k < n for k in feasible):
        return True, "degree-pattern"
    factors = zassenhaus(prim)
    return len(factors) == 1, "hensel-uniqueness"


def weierstrass_and_2torsion_oracle(curve: HypCurve, d: int) -> tuple[list, list]:
    """curves.weierstrass_and_2torsion through two engines.

    The points come from the roots of f in K (roots_in_quadfield), the
    conjugate-pair classes from the quadratic factors of the complete
    factorization of f over Q.
    """
    if curve.genus() != 2 or curve.f is None:
        raise ValueError("expects a genus-2 curve in y^2 = f form")
    f = curve.f
    points: list[CurvePoint] = []
    if f.degree() % 2 == 1:
        points.append(CurvePoint.infinity(0))
    for root in roots_in_quadfield(f, d):
        points.append(CurvePoint.affine(root, QuadElem(0, 0, root.d)))
    classes: list[tuple] = [()]
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            classes.append((points[a], points[b]))
    for factor, _mult in factor_rational(f).factors:
        if factor.degree() != 2:
            continue
        t, n = -factor.coeffs[1], factor.coeffs[0]
        disc = t * t - 4 * n
        if fraction_sqrt(disc) is not None or fraction_sqrt(disc / d) is not None:
            continue  # roots lie in K; already covered by point pairs
        dd = squarefree_split(disc.numerator * disc.denominator)[1]
        s = fraction_sqrt(disc / dd)
        r1 = QuadElem(t / 2, s / 2, dd)
        r2 = QuadElem(t / 2, -s / 2, dd)
        zero = QuadElem(0, 0, dd)
        classes.append((CurvePoint.affine(r1, zero), CurvePoint.affine(r2, zero)))
    return points, classes
