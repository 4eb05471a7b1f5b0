"""Cantor arithmetic on UniPoly over QuadElem/Fraction: the oracle for jacobian.

quaddyn.jacobian composes and reduces Mumford pairs on a private kernel of
int triples.  These are the UniPoly versions of the same four routines
(_xgcd, _compose, _build_w, _reduce), with every assertion kept; _reduce
returns the normal form as a tuple (u, v, n+, n-) instead of a DivClass.
add, neg and mul work on such tuples, so a sum is computed here without
touching the kernel at all.
"""

from quaddyn.polys import UniPoly


def _zero(model) -> UniPoly:
    return UniPoly(model.ring, (), model.f.var)


def _one(a: UniPoly) -> UniPoly:
    return UniPoly.const(a.ring, a.ring.one, a.var)


def _xgcd(a: UniPoly, b: UniPoly):
    """(g monic, x, y) with x*a + y*b = g, over a field."""
    ring = a.ring
    r0, r1 = a, b
    s0, s1 = _one(a), UniPoly(ring, (), a.var)
    t0, t1 = UniPoly(ring, (), a.var), _one(a)
    while not r1.is_zero():
        q, r = r0.divrem(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lead = ring.inv(r0.lc())
    return r0 * lead, s0 * lead, t0 * lead


def _compose(model, a1, a2):
    """Cantor composition of semi-reduced affine parts; returns ((u, v), deg d)."""
    u1, v1 = a1
    u2, v2 = a2
    if u1.degree() == 0:
        return (u2, v2), 0
    if u2.degree() == 0:
        return (u1, v1), 0
    d1, e1, e2 = _xgcd(u1, u2)
    vsum = v1 + v2
    if vsum.is_zero():
        d, c1, c2 = d1, _one(u1), UniPoly(model.ring, (), u1.var)
    else:
        d, c1, c2 = _xgcd(d1, vsum)
    u = (u1 * u2).exact_div(d * d).monic()
    num = c1 * (e1 * u1 * v2 + e2 * u2 * v1) + c2 * (v1 * v2 + model.f)
    v = num.exact_div(d) % u if u.degree() > 0 else _zero(model)
    assert (model.f - v * v).divrem(u)[1].is_zero() if u.degree() else True, "compose broke Mumford"
    return (u, v), d.degree()


def _build_w(model, u: UniPoly, v: UniPoly, sigma: int) -> UniPoly:
    """w == v mod u, deg w <= 3, leading coefficient sigma*s, top of f - w^2 killed."""
    n = u.degree()
    if n == 4:
        return v
    x = model.x
    lead = model.s if sigma > 0 else -model.s
    w = v + model.const(lead) * x ** (3 - n) * u
    for t in range(3 - n):
        m = 3 - n - 1 - t
        G = model.f - w * w
        coeff = G.coeff(5 - t)
        a = coeff / (lead + lead)
        w = w + model.const(a) * x**m * u
    return w


def _reduce(model, u, v, mplus, mminus, kappa):
    for _ in range(8):
        c = min(mplus, mminus, kappa - 1)
        mplus -= c
        mminus -= c
        kappa -= c
        if kappa == 1:
            assert u.degree() + mplus + mminus == 2, "reduction bookkeeping broke"
            return u, v, mplus, mminus
        sigma = 1 if mplus >= mminus else -1
        w = _build_w(model, u, v, sigma)
        G = model.f - w * w
        assert not G.is_zero(), "f is a square (not squarefree)"
        unew = G.exact_div(u).monic()
        vnew = (-w) % unew if unew.degree() > 0 else _zero(model)
        g0 = G.degree()
        w3 = w.coeff(3)
        if w3 == model.s:
            pplus, pminus = g0 - 3, 3
        elif w3 == -model.s:
            pplus, pminus = 3, g0 - 3
        else:
            assert g0 == 6
            pplus = pminus = 3
        mplus += pplus
        mminus += pminus
        kappa += unew.degree()
        u, v = unew, vnew
    raise AssertionError("reduction failed to terminate (bug)")


# -- the group law on (u, v, n+, n-) tuples ------------------------------------


def normal_form(D) -> tuple:
    """(u, v, n+, n-) of a jacobian.DivClass, read through its public fields."""
    return D.u, D.v, D.nplus, D.nminus


def zero(model) -> tuple:
    return _one(model.f), _zero(model), 1, 1


def add(model, D1: tuple, D2: tuple) -> tuple:
    (u1, v1, p1, m1), (u2, v2, p2, m2) = D1, D2
    (u3, v3), cancelled = _compose(model, (u1, v1), (u2, v2))
    return _reduce(model, u3, v3, p1 + p2 + cancelled, m1 + m2 + cancelled, 2)


def neg(D: tuple) -> tuple:
    u, v, nplus, nminus = D
    return u, (-v % u if u.degree() else v), nminus, nplus


def mul(model, k: int, D: tuple) -> tuple:
    if k < 0:
        return mul(model, -k, neg(D))
    out = zero(model)
    while k:
        if k & 1:
            out = add(model, out, D)
        D = add(model, D, D)
        k >>= 1
    return out
