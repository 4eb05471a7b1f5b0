"""Oracles for the Chabauty pipeline: the differentials, the kernel
generators, the integrals and the disk maps.

quaddyn.chabauty expands omega_1 and omega_2 on each residue disk by a
coefficient recurrence on plain ints.  The oracle here shares none of that
arithmetic: FractionSeries is a TruncSeries with the ring operations over Q,
the branch y of y^2 + h y = g comes from series Newton iteration, and
1/(2y + h) from the series inverse.

quaddyn.chabauty reads the (trace, norm) of the kernel-of-reduction
generators as data.  kernel_generators_oracle derives them by exact
divisor-class arithmetic in quaddyn.jacobian and checks that both supports
reduce to the base point mod (1+i).

quaddyn.chabauty evaluates the integrals Lambda_l(E_j) by Newton power sums
on (re, im) int pairs mod 2^work.  eval_lambda_exact runs the same power sums
exactly in QuadElem arithmetic, and residue reduces the exact value mod
2^prec from its Fraction coordinates.

quaddyn.chabauty reads each annihilating map on a residue disk off one
polynomial over Z[i] by Horner's rule.  The oracle here expands
lambda((1+i)(T+Ui)) binomially into bivariate polynomials BiTruncSeries
over Z/2^prec, and combines their real and imaginary parts term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from quaddyn.chabauty import _E1_U, _E2_U, DISK_PREC, SERIES_DEGREE, TruncSeries, integrate
from quaddyn.curves import get_curve
from quaddyn.jacobian import DivClass, JacModel, rebase_at
from quaddyn.polys import QQ, QuadField, UniPoly
from quaddyn.quadfield import QuadElem


class FractionSeries(TruncSeries):
    """A TruncSeries with addition, multiplication and inversion over Q."""

    __slots__ = ()

    def __add__(self, other):
        assert self.cap == other.cap
        return FractionSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.cap)

    def __neg__(self):
        return FractionSeries([-c for c in self.coeffs], self.cap)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        assert self.cap == other.cap
        out = [Fraction(0)] * (self.cap + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(0, self.cap + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return FractionSeries(out, self.cap)

    def inverse(self) -> "FractionSeries":
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ZeroDivisionError("series has no inverse (zero constant term)")
        out = [Fraction(1) / a0]
        for n in range(1, self.cap + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += self.coeffs[k] * out[n - k]
            out.append(-acc / a0)
        return FractionSeries(out, self.cap)


def solve_y_series(gs: FractionSeries, hs: FractionSeries, y0, cap: int) -> FractionSeries:
    """The branch of y^2 + h y = g through y(0) = y0, by series Newton iteration."""
    y = FractionSeries([y0], cap)
    for _ in range(cap.bit_length() + 2):
        resid = y * y + hs * y - gs
        if resid.is_zero():
            break
        deriv = y + y + hs
        y = y - resid * deriv.inverse()
    assert (y * y + hs * y - gs).is_zero(), "series Newton did not converge"
    return y


def branch_series(g, h, y0, cap: int) -> tuple[FractionSeries, FractionSeries]:
    """(y, 1/(2y + h)) for coefficient lists g and h, to t^cap."""
    gs, hs = FractionSeries(list(g), cap), FractionSeries(list(h), cap)
    y = solve_y_series(gs, hs, Fraction(y0), cap)
    return y, (y + y + hs).inverse()


def disk_differentials(disk: str, deg: int) -> tuple[FractionSeries, FractionSeries]:
    """(omega_1, omega_2) on the residue disk P0, P2 or P4, as in quaddyn.chabauty."""
    curve = get_curve("X_good").curve
    g, h = curve.g, curve.h
    if disk in ("P0", "P2"):
        shift, y0 = (0, 0) if disk == "P0" else (-3, -15)
        x = UniPoly.gen(QQ) + UniPoly.const(QQ, Fraction(shift))
        omega1 = branch_series(g.compose(x).coeffs, h.compose(x).coeffs, y0, deg)[1]
        return omega1, FractionSeries([shift, 1], deg) * omega1
    if disk == "P4":
        ht = [h.coeff(k) for k in reversed(range(4))]
        gt = [g.coeff(k) for k in reversed(range(7))]
        base = branch_series(gt, ht, 1, deg)[1]
        return -FractionSeries([0, 1], deg) * base, -base
    raise ValueError("disk must be one of P0, P2, P4")


def val_p(x: QuadElem) -> int:
    """(1+i)-adic valuation of an exact element of Q(i)."""
    if x.is_zero():
        raise ValueError("valuation of zero")
    nrm = x.a * x.a + x.b * x.b
    num, den = nrm.numerator, nrm.denominator
    v = 0
    while num % 2 == 0:
        num //= 2
        v += 1
    while den % 2 == 0:
        den //= 2
        v -= 1
    return v


def eval_lambda_exact(lam: TruncSeries, trace: QuadElem, norm: QuadElem) -> QuadElem:
    """Exact rational evaluation of sum_k lam_k (t(P)^k + t(Q)^k) over Q(i)."""
    p_prev = QuadElem(2, 0, -1)
    p_cur = trace
    total = QuadElem(0, 0, -1)
    for k in range(1, lam.cap + 1):
        if k >= 2:
            p_prev, p_cur = p_cur, trace * p_cur - norm * p_prev
        total = total + p_cur * lam.coeffs[k]
    return total


def residue(x: QuadElem, prec: int) -> tuple[int, int]:
    """(Re x, Im x) mod 2^prec for x in Q(i) with odd denominators."""
    m = 1 << prec
    return tuple(c.numerator * pow(c.denominator, -1, m) % m for c in (x.a, x.b))


def to_good_model(point) -> tuple:
    """X0(5) -> X, (x, y) |-> (x, (y - h(x))/2); infinite points map by sign."""
    if isinstance(point, str):
        return point
    x, y = point
    return (x, (y - get_curve("X_good").curve.h.eval(x)) / 2)


@dataclass(frozen=True)
class KernelData:
    model: JacModel
    e1: DivClass
    e2: DivClass
    rebased: tuple  # ((u1, v1), (u2, v2)) at the base point
    trace_norm: tuple  # ((t1, n1), (t2, n2)) as QuadElem


@lru_cache(maxsize=1)
def kernel_generators_oracle() -> KernelData:
    """E1 = D2 and E2 = 19 D3 - 9 D2 on the sextic model, rebased at (0, -1).

    Raises on any mismatch with the pinned minimal polynomials or on a
    kernel-membership failure (pipeline-integrity conditions).
    """
    from quaddyn.quadfield import parse_elem

    K = QuadField(-1)
    f = get_curve("X0_5").curve.f.map_coeffs(K, lambda c: QuadElem(c, 0, -1))
    model = JacModel(f)
    X = model.x
    i = QuadElem(0, 1, -1)
    u2 = X * X + model.const(3) * X + model.const(Fraction(1, 2))
    v2 = model.const(i * Fraction(1, 2)) * X
    d2 = model.from_mumford(u2, v2)
    u3 = X * X + model.const(3) * X + model.const(QuadElem(1, -1, -1))
    v3 = model.const(QuadElem(-1, -1, -1)) * X + model.const(QuadElem(-2, -1, -1))
    d3 = model.from_mumford(u3, v3)
    e1 = d2
    e2 = 19 * d3 - 9 * d2
    base = (QuadElem(0, 0, -1), QuadElem(-1, 0, -1))  # image of (0,0) on the good model
    reb1 = rebase_at(e1, *base)
    reb2 = rebase_at(e2, *base)
    h = get_curve("X_good").curve.h.map_coeffs(K, lambda c: QuadElem(c, 0, -1))
    for u, v in (reb1, reb2):
        check_kernel_membership(u, v, h)
    for (u, _v), pins in ((reb1, _E1_U), (reb2, _E2_U)):
        lin, const = (parse_elem(s, -1) for s in pins)
        if u.coeffs[1] != lin or u.coeffs[0] != const:
            raise RuntimeError("kernel generator mismatch with the pinned minimal polynomials")
    tn = tuple((-u.coeffs[1], u.coeffs[0]) for u, _ in (reb1, reb2))
    return KernelData(model=model, e1=e1, e2=e2, rebased=(reb1, reb2), trace_norm=tn)


def check_kernel_membership(u: UniPoly, v: UniPoly, h: UniPoly) -> None:
    """Support x-coordinates and good-model y-coordinates vanish mod (1+i).

    The support may be a conjugate pair over a ramified quadratic extension
    of K_p (valuations in (1/2)Z); positive valuation of both roots of the
    monic quadratic u is equivalent to v(u0) >= 1 and v(u1) >= 1.
    """
    u1, u0 = u.coeffs[1], u.coeffs[0]
    if val_p(u0) < 1 or val_p(u1) < 1:
        raise RuntimeError("kernel generator support does not reduce to the base point")
    w = (v - h) * QuadElem(Fraction(1, 2), 0, -1) % u
    w1 = w.coeff(1)
    w0 = w.coeff(0)
    ok1 = w1.is_zero() or val_p(w1) >= 0
    ok0 = w0.is_zero() or val_p(w0) >= 1
    if not (ok1 and ok0):
        raise RuntimeError("kernel generator y-coordinates do not vanish mod (1+i)")


class BiTruncSeries:
    """Bivariate polynomial over Z/2^prec in (T, U), total degree capped."""

    __slots__ = ("terms", "prec", "cap", "_rows")

    def __init__(self, terms: dict, prec: int = DISK_PREC, cap: int = SERIES_DEGREE):
        m = 1 << prec
        clean = {}
        for key, val in terms.items():
            v = val % m
            if v:
                clean[key] = v
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "_rows", None)

    def __setattr__(self, *args):
        raise AttributeError("BiTruncSeries is immutable")

    def coeff(self, i: int, j: int) -> int:
        return self.terms.get((i, j), 0)

    def eval(self, t_val: int, u_val: int) -> int:
        rows = self._rows
        if rows is None:  # rows[j][i] = coefficient of T^i U^j, built on the first call
            rows = [[] for _ in range(1 + max((j for _, j in self.terms), default=-1))]
            for (i, j), v in self.terms.items():
                rows[j].extend([0] * (i + 1 - len(rows[j])))
                rows[j][i] = v
            object.__setattr__(self, "_rows", rows)
        acc = 0
        for row in reversed(rows):
            p = 0
            for c in reversed(row):
                p = p * t_val + c
            acc = acc * u_val + p
        return acc % (1 << self.prec)

    def partial(self, var: int) -> "BiTruncSeries":
        out = {}
        for (i, j), c in self.terms.items():
            if var == 0 and i:
                out[(i - 1, j)] = out.get((i - 1, j), 0) + i * c
            if var == 1 and j:
                out[(i, j - 1)] = out.get((i, j - 1), 0) + j * c
        return BiTruncSeries(out, self.prec, self.cap)

    def __repr__(self):
        bits = [f"{c}*T^{i}U^{j}" for (i, j), c in sorted(self.terms.items())]
        return " + ".join(bits) or "0"


def _lambda_bivariate(lam: TruncSeries, prec: int = DISK_PREC):
    """lambda((1+i)(T+Ui)) as a pair (Re, Im) of bivariate polys mod 2^prec.

    L = (1+i)T + (i-1)U = (1+i)(T + iU), so the degree-k part is
    g_k (T + iU)^k with g_k = lambda_k (1+i)^k.  g_k is integral at (1+i)
    for all k >= 1, so it is reduced mod 2^prec and the binomial expansion
    runs on integer pairs.
    """
    m = 1 << prec
    re_terms, im_terms = {}, {}
    w = (1, 0)  # (1+i)^k, exactly
    for k in range(1, lam.cap + 1):
        w = (w[0] - w[1], w[0] + w[1])
        ck = lam.coeffs[k]
        if ck == 0:
            continue
        g = []
        for x in w:
            q = ck * x
            if q.denominator % 2 == 0:
                raise ValueError("non-integral coefficient after substitution (bug)")
            g.append(q.numerator * pow(q.denominator, -1, m) % m)
        r, s = g
        binom = 1
        for j in range(k + 1):
            # coefficient of T^(k-j) U^j: g_k C(k, j) i^j
            re_terms[(k - j, j)] = binom * r
            im_terms[(k - j, j)] = binom * s
            r, s = -s, r
            binom = binom * (k - j) // (j + 1)
    return (
        BiTruncSeries(re_terms, prec, lam.cap),
        BiTruncSeries(im_terms, prec, lam.cap),
    )


def annihilating_series(omegas, annihilators, prec: int) -> tuple:
    """One BiTruncSeries per vector (v0, v1, v2, v3): v0 Re lambda_1 +
    v1 Im lambda_1 + v2 Re lambda_2 + v3 Im lambda_2 at t = (1+i)(T+Ui),
    for lambda_l the integral of the integer series omegas[l - 1]."""
    parts = []
    for omega in omegas:
        lam = integrate(TruncSeries(omega, len(omega) - 1))
        parts.extend(_lambda_bivariate(lam, prec))
    out = []
    for vec in annihilators:
        terms: dict = {}
        for coeff, part in zip(vec, parts):
            for key, val in part.terms.items():
                terms[key] = terms.get(key, 0) + coeff * val
        out.append(BiTruncSeries(terms, prec, parts[0].cap))
    return tuple(out)
