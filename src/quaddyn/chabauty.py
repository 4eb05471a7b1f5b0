"""The 2-adic computation proving X0(5)(Q(i)) = X0(5)(Q).

Pipeline, in the order the pieces feed each other:

  1. expand_differentials: power series of the two regular differentials at
     the base point (0,0) of the good-reduction model y^2 + h y = g, with
     integer coefficients to degree 32 (terms beyond degree 32 vanish mod
     2^6 on the residue disk: k - 4 ord_2(k) >= 24 for 33 <= k <= 46),
     computed on ints by a coefficient recurrence for y and 1/(2y + h).
  2. integrate: termwise antiderivatives lambda_1, lambda_2.
  3. kernel_generators: the (trace, norm) over Q(i) of the supports of
     E1 = D2 and E2 = 19 D3 - 9 D2, which generate the kernel of reduction
     mod (1+i), rebased as [P + Q - 2 P0].  They are read from data; their
     exact divisor-class derivation is the tests' oracle.
  4. eval_lambda: the integrals Lambda_l(E_j) mod 2^6, via Newton power sums
     on (re, im) int pairs mod 2^work, as the disk maps hold Z[i]/2^prec.
  5. annihilator_solve: integer vectors (Re/Im combinations) killing both
     generators mod 2^5, each the first hit of a lexicographic search over
     its support.
  6. disk_series / certify_disk: each annihilating map on a residue disk
     (t = (1+i)(T+Ui)) is Re H(T + Ui) for one polynomial H over Z[i],
     read by Horner's rule; common zeros mod 2^5 lifted one bit at a time,
     and unique-lifting certification via the quantitative two-variable
     Hensel criterion (value valuation >= 2 ord_2(det J) + 1).
  7. full_theorem: assembles the verdict; a disk holding two certified
     2-adic solutions around a rational point still carries a single
     Q(i)-point, since a strictly quadratic point would bring its Galois
     conjugate as a third solution.

One number sets every precision: the working precision prec (2^6 by
default).  The integrals are taken mod 2^prec over series of degree
required_degree(prec), the annihilators and disk series live mod 2^(prec-1),
and solutions are classed mod 2^3.  certify_residue_disk is the one per-disk
policy, used by full_theorem and by `quaddyn chabauty --disk`: a disk that
is uncertified or shows more than two classes is redone once at prec + 2.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb

from .curves import get_curve
from .factor import _taylor
from .polys import QuadField, UniPoly, format_poly
from .quadfield import QuadElem, _triple, parse_elem

SERIES_DEGREE = 32
LAMBDA_PREC = 6
DISK_PREC = 5
CLASS_PREC = 3
# upper bound on the working precision; cold `chabauty --prec` runs take about
# 0.14/0.14/0.16 s at 10/11/12 (median of 9, 2-vCPU x86-64, Python 3.11.7), and
# the part that grows fastest with prec is annihilator_solve's lexicographic search
PREC_LIMIT = 12


# ---------------------------------------------------------------------------
# truncated power series over Q
# ---------------------------------------------------------------------------


class TruncSeries:
    """Dense power series over Q, truncated beyond a degree cap.

    A container only: the differentials are computed on int lists and the
    integrals termwise, so no series arithmetic is needed here.
    """

    __slots__ = ("coeffs", "cap")

    def __init__(self, coeffs, cap: int = SERIES_DEGREE):
        coeffs = [Fraction(c) for c in coeffs[: cap + 1]]
        coeffs += [Fraction(0)] * (cap + 1 - len(coeffs))
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "cap", cap)

    def __setattr__(self, *args):
        raise AttributeError("TruncSeries is immutable")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def integrate(series: TruncSeries) -> TruncSeries:
    """Termwise antiderivative with zero constant term (cap shifts by one)."""
    out = [Fraction(0)]
    for k, c in enumerate(series.coeffs):
        out.append(Fraction(c, k + 1))
    return TruncSeries(out, series.cap + 1)


def _ord2(n: int) -> int:
    return (n & -n).bit_length() - 1


def _divide(re: int, im: int, k: int, bits: int, message: str) -> tuple[int, int]:
    """(re + im i) / k mod 2^bits: exact division by 2^ord2(k), then the
    inverse of k's odd part; raises ValueError(message) when 2^ord2(k) does
    not divide both coordinates."""
    a = _ord2(k)
    if re % (1 << a) or im % (1 << a):
        raise ValueError(message)
    m = 1 << bits
    inv = pow(k >> a, -1, m)
    return (re >> a) * inv % m, (im >> a) * inv % m


# ---------------------------------------------------------------------------
# differentials on the good model
# ---------------------------------------------------------------------------


def _shift_poly(coeffs, a: int) -> list:
    """The coefficients of p(x + a): p's Taylor row k read at a is p^(k)(a)/k!."""
    return [sum(c * a**i for i, c in enumerate(row)) for row in _taylor(coeffs)]


def _integer_coeffs(coeffs, cap: int) -> list[int]:
    """The coefficients of degree <= cap as ints, padded with zeros."""
    out = [0] * (cap + 1)
    for k, c in enumerate(coeffs[: cap + 1]):
        c = Fraction(c)
        if c.denominator != 1:
            raise ValueError(f"curve coefficient {c} is not an integer")
        out[k] = c.numerator
    return out


def _branch_series(g, h, y0: int, cap: int) -> tuple[list[int], list[int]]:
    """The branch y of y^2 + h y = g through y(0) = y0, and 1/(2y + h), to t^cap.

    Degree n >= 1 of the equation reads, with u = 2 y0 + h_0,
        u y_n = g_n - sum_{k=1}^{n-1} y_k y_{n-k} - sum_{k=1}^{n} h_k y_{n-k}.
    For u = +-1, u^-1 = u, so both series are integer lists computed
    coefficient by coefficient.
    """
    g, h = _integer_coeffs(g, cap), _integer_coeffs(h, cap)
    if y0 * y0 + h[0] * y0 != g[0]:
        raise ValueError(f"y(0) = {y0} is not on the curve at t = 0")
    u = 2 * y0 + h[0]
    if u not in (1, -1):
        raise ValueError(f"2 y(0) + h(0) = {u} is not a unit of Z")
    y = [y0]
    for n in range(1, cap + 1):
        acc = g[n] - sum(y[k] * y[n - k] for k in range(1, n))
        y.append(u * (acc - sum(h[k] * y[n - k] for k in range(1, n + 1))))
    for n in range(cap + 1):
        resid = sum((y[k] + h[k]) * y[n - k] for k in range(n + 1)) - g[n]
        assert resid == 0, "y^2 + h y - g is not 0 mod t^(cap+1)"
    s = [2 * a + b for a, b in zip(y, h)]
    inv = [u]
    for n in range(1, cap + 1):
        inv.append(-u * sum(s[k] * inv[n - k] for k in range(1, n + 1)))
    return y, inv


def expand_differentials(deg: int = SERIES_DEGREE) -> tuple[TruncSeries, TruncSeries]:
    """(omega_1, omega_2) at the base point (0, 0) of the good model, t = x."""
    return disk_differentials("P0", deg)


@lru_cache(maxsize=16)
def disk_differentials(disk: str, deg: int = SERIES_DEGREE) -> tuple[TruncSeries, TruncSeries]:
    """Local expansions of (omega_1, omega_2) at a residue-disk center.

    P0 = (0,0) with t = x; P2 = (-3,-15) with t = x + 3; P4 = inf+ with
    t = 1/x on the second affine patch.  The remaining disks are the
    hyperelliptic-involution images and need no series.
    """
    entry = get_curve("X_good")
    g, h = entry.curve.g, entry.curve.h
    if disk in ("P0", "P2"):
        shift, y0 = (0, 0) if disk == "P0" else (-3, -15)
        gs, hs = (_shift_poly(poly.coeffs, shift) for poly in (g, h))
        omega1 = _branch_series(gs, hs, y0, deg)[1]
        # omega_2 = x omega_1 = (shift + t) omega_1
        omega2 = [shift * a + b for a, b in zip(omega1, [0] + omega1)]
    elif disk == "P4":
        # u = 1/x, v = y/u^3 patch: v^2 + (u^3 h(1/u)) v = u^6 g(1/u)
        ht = [h.coeff(k) for k in reversed(range(4))]
        gt = [g.coeff(k) for k in reversed(range(7))]
        base = _branch_series(gt, ht, 1, deg)[1]  # v(0) = 1 picks inf+
        omega1 = [0] + [-c for c in base[:-1]]  # -t base
        omega2 = [-c for c in base]
    else:
        raise ValueError("disk must be one of P0, P2, P4")
    assert all(isinstance(c, int) for c in omega1), "omega_1 coefficients are expected to be integers"
    return TruncSeries(omega1, deg), TruncSeries(omega2, deg)


# ---------------------------------------------------------------------------
# kernel of reduction
# ---------------------------------------------------------------------------


# the supports of the kernel-of-reduction generators E1 = D2 and
# E2 = 19 D3 - 9 D2, rebased at (0, -1), have minimal polynomials
# x^2 + lin x + const over Q(i); (lin, const) below.  They are data: the exact
# divisor-class derivation and the (1+i) membership check are the oracle in
# tests/chabauty_oracle.py, compared with these values in tier-1
_E1_U = ("742/325 - 44/325*i", "-512/325 - 66/325*i")
_E2_U = ("7801337/2442505 - 1823949/2442505*i", "948975/488501 + 120593/488501*i")


@lru_cache(maxsize=1)
def kernel_generators() -> tuple:
    """((t1, n1), (t2, n2)): trace and norm over Q(i) of the supports of the
    rebased E1 and E2, so each support is the root pair of x^2 - t x + n."""
    return tuple((-parse_elem(lin, -1), parse_elem(const, -1)) for lin, const in (_E1_U, _E2_U))


# ---------------------------------------------------------------------------
# evaluation of the integrals
# ---------------------------------------------------------------------------


LambdaValue = namedtuple("LambdaValue", "re im")  # Lambda_l(E_j) mod 2^prec, each in [0, 2^prec)


def _residue(x, bits: int) -> tuple[int, int]:
    """An exact element of Q(i) (QuadElem, Fraction or int) mod 2^bits as
    (re, im); its denominator must be odd."""
    if isinstance(x, QuadElem) and x.d != -1:
        raise ValueError("the integrals take values from Q(i)")
    a, b, w = _triple(x)
    if w % 2 == 0:
        raise ValueError(f"{x} is not integral at (1+i)")
    m = 1 << bits
    inv = pow(w, -1, m)
    return a * inv % m, b * inv % m


def eval_lambda(lam: TruncSeries, trace, norm, prec: int = LAMBDA_PREC) -> LambdaValue:
    """sum_k lam_k (t(P)^k + t(Q)^k) mod 2^prec via Newton power sums
    p_k = t p_(k-1) - n p_(k-2) on (re, im) pairs mod 2^work.

    trace/norm are exact (QuadElem or rational).  The 1/k denominators of
    lam are handled by exact division by 2^ord2(k); the working precision
    carries cap.bit_length() guard bits, more than ord2(k) for every k <= cap.
    """
    work = prec + lam.cap.bit_length()
    mask = (1 << work) - 1
    t_re, t_im = _residue(trace, work)
    n_re, n_im = _residue(norm, work)
    (a, b), (c, d) = (2, 0), (t_re, t_im)  # p_(k-1) and p_k, from p_0 and p_1
    re_sum = im_sum = 0
    for k in range(1, lam.cap + 1):
        if k >= 2:
            (a, b), (c, d) = (c, d), ((t_re * c - t_im * d - n_re * a + n_im * b) & mask,
                                      (t_re * d + t_im * c - n_re * b - n_im * a) & mask)
        omega_k = lam.coeffs[k] * k  # the integer series coefficient lam_k = omega/k
        assert omega_k.denominator == 1
        num = omega_k.numerator
        assert work - _ord2(k) >= prec, "term kept fewer than prec bits"
        re, im = _divide(num * c & mask, num * d & mask, k, prec,
                         "not divisible by 2^a: insufficient valuation")
        re_sum += re
        im_sum += im
    m = 1 << prec
    return LambdaValue(re_sum % m, im_sum % m)


# ---------------------------------------------------------------------------
# annihilators
# ---------------------------------------------------------------------------


def annihilator_solve(values: dict, prec: int = LAMBDA_PREC) -> tuple[tuple, tuple]:
    """Vectors (c1, c2, c3, c4) with
    c1 Re L1 + c2 Im L1 + c3 Re L2 + c4 Im L2 = 0 at both generators.

    values maps (l, j) -> Lambda_l(E_j) as an (re, im) pair mod 2^prec.  The
    2-power content of the rows sets the output precision (one lost bit for
    the pipeline data, giving vectors mod 2^(prec-1)).  Returns the two
    canonical generators: the lexicographically least solutions with an odd
    entry supported on the real parts (c1, c3) and on the imaginary parts
    (c2, c4); raises when the solution module does not have rank 2.
    """
    rows = [(*values[(1, j)], *values[(2, j)]) for j in (1, 2)]
    reduced, bits = _reduced_rows(rows, prec)
    m = 1 << bits
    gens = []
    for i, j in ((0, 2), (1, 3)):
        hit = next(((x, y) for x in range(m) for y in range(m)
                    if (x | y) & 1 and all((r[i] * x + r[j] * y) % m == 0 for r in reduced)),
                   None)
        if hit is None:
            raise RuntimeError("annihilator module does not split into Re/Im generators")
        vec = [0, 0, 0, 0]
        vec[i], vec[j] = hit
        gens.append(tuple(vec))
    return tuple(gens)


def _reduced_rows(rows, prec: int):
    """The two rows divided by their 2-power contents, mod 2^bits, with bits
    set by the largest content (at least one bit is lost).  Raises unless
    they have rank 2 with unit pivots, so that their kernel mod 2^bits is
    free of rank 2."""
    contents = [min(_ord2_or_inf(x) for x in row) for row in rows]
    bits = prec - max(1, *contents)
    if bits < 2:
        raise RuntimeError("degenerate annihilator rows; data or precision failure")
    m = 1 << bits
    reduced = [[(x >> a) % m for x in row] for row, a in zip(rows, contents)]
    r1, r2 = reduced
    piv1 = next((k for k in range(4) if r1[k] % 2), None)
    if piv1 is None:
        raise RuntimeError("no unit pivot in the annihilator system")
    factor = r2[piv1] * pow(r1[piv1], -1, m) % m
    r2 = [(r2[k] - factor * r1[k]) % m for k in range(4)]
    if not any(r2[k] % 2 for k in range(4) if k != piv1):
        raise RuntimeError("annihilator system does not have rank 2 with unit pivots")
    return reduced, bits


def _ord2_or_inf(x: int) -> int:
    return 999 if x == 0 else _ord2(x)


# ---------------------------------------------------------------------------
# disk maps and certification
# ---------------------------------------------------------------------------


class DiskMap(namedtuple("DiskMap", "coeffs prec")):
    """mu(T, U) = Re H(T + U i) mod 2^prec for one polynomial H over Z[i].

    coeffs[k] = (Re h_k, Im h_k) mod 2^prec.  Values come from Horner's rule
    at z = T + U i; since dz/dT = 1 and dz/dU = i, the partials are
    Re H'(z) and Re(i H'(z)), disk maps again.
    """

    __slots__ = ()

    def eval(self, t_val: int, u_val: int) -> int:
        mask = (1 << self.prec) - 1
        re = im = 0
        for a, b in reversed(self.coeffs):
            re, im = (re * t_val - im * u_val + a) & mask, (re * u_val + im * t_val + b) & mask
        return re

    def partial(self, var: int) -> "DiskMap":
        m = 1 << self.prec
        deriv = [(k * a % m, k * b % m) for k, (a, b) in enumerate(self.coeffs)][1:]
        if var == 1:
            deriv = [(-b % m, a) for a, b in deriv]
        return DiskMap(tuple(deriv), self.prec)

    def coeff(self, i: int, j: int) -> int:
        """The coefficient of T^i U^j: Re(h_k C(k, j) i^j) with k = i + j."""
        k = i + j
        if k >= len(self.coeffs):
            return 0
        a, b = self.coeffs[k]
        return comb(k, j) * (a, -b, -a, b)[j % 4] % (1 << self.prec)


def _lambda_coefficients(omega, prec: int) -> list:
    """g_k = lambda_k (1+i)^k = omega_{k-1} (1+i)^k / k mod 2^prec as (re, im)
    pairs, k = 0..len(omega), from the integer coefficients of omega.

    Both coordinates of (1+i)^k are divisible by 2^(k // 2) >= 2^ord_2(k), so
    the 2-part of k divides out exactly and its odd part is inverted mod 2^prec.
    """
    out = [(0, 0)]
    w = (1, 0)  # (1+i)^k, exactly
    for k, c in enumerate(omega, start=1):
        w = (w[0] - w[1], w[0] + w[1])
        out.append(_divide(c * w[0], c * w[1], k, prec,
                           "non-integral coefficient after substitution (bug)"))
    return out


def _disk_maps(omegas, annihilators, prec: int) -> tuple:
    """v0 Re lambda_1 + v1 Im lambda_1 + v2 Re lambda_2 + v3 Im lambda_2 at
    t = (1+i)(T + U i), one DiskMap per vector (v0, v1, v2, v3); since
    v0 Re w + v1 Im w = Re((v0 - v1 i) w), H = (v0 - v1 i) G1 + (v2 - v3 i) G2."""
    m = 1 << prec
    g1, g2 = (_lambda_coefficients(omega, prec) for omega in omegas)
    maps = []
    for v0, v1, v2, v3 in annihilators:
        h = [((v0 * a + v1 * b + v2 * c + v3 * d) % m, (v0 * b - v1 * a + v2 * d - v3 * c) % m)
             for (a, b), (c, d) in zip(g1, g2)]
        while h and h[-1] == (0, 0):  # 2^(k // 2 - ord_2(k)) divides g_k: a zero tail
            h.pop()
        maps.append(DiskMap(tuple(h), prec))
    return tuple(maps)


def disk_series(disk: str, annihilators: tuple, prec: int = DISK_PREC,
                deg: int = SERIES_DEGREE) -> tuple[DiskMap, DiskMap]:
    """(mu_1, mu_2) on a residue disk from the annihilator coefficient vectors."""
    omegas = ([c.numerator for c in omega.coeffs] for omega in disk_differentials(disk, deg))
    mu1, mu2 = _disk_maps(omegas, annihilators, prec)
    assert mu1.eval(0, 0) == 0 and mu2.eval(0, 0) == 0, "base point must be a solution"
    return mu1, mu2


class DiskCertificate(namedtuple("DiskCertificate", "disk solution_classes det_valuations "
                                 "certified solutions prec", defaults=(DISK_PREC,))):
    # solution_classes: (T, U) classes mod 2^CLASS_PREC; det_valuations: ord_2(det J) per
    # class; solutions: certified Z_2^2 solutions; prec: the series precision used
    __slots__ = ()

    def to_record(self) -> dict:
        return {
            "disk": self.disk,
            "solution_classes": [list(c) for c in self.solution_classes],
            "det_valuations": list(self.det_valuations),
            "certified": self.certified,
            "solutions": self.solutions,
            "series_precision_bits": self.prec,
        }


def certify_disk(mu1: DiskMap, mu2: DiskMap, disk: str = "?") -> DiskCertificate:
    """Lift the common zeros one bit at a time up to mod 2^prec, class them
    mod 2^CLASS_PREC, and certify unique lifting by the quantitative Hensel
    criterion."""
    prec = mu1.prec
    m = 1 << prec
    cm = 1 << CLASS_PREC
    # mu(t, u) mod 2^(k+1) depends only on (t, u) mod 2^(k+1), and a zero mod
    # 2^(k+1) is a zero mod 2^k: the zeros mod 2^(k+1) are the lifts
    # (t + a 2^k, u + b 2^k) of the zeros mod 2^k that vanish mod 2^(k+1)
    solutions = [(0, 0)]
    for k in range(prec):
        bit, mask = 1 << k, (2 << k) - 1
        solutions = [(t, u) for t0, u0 in solutions
                     for t in (t0, t0 + bit) for u in (u0, u0 + bit)
                     if not mu1.eval(t, u) & mask and not mu2.eval(t, u) & mask]
    classes = sorted({(t % cm, u % cm) for t, u in solutions})
    j11, j12 = mu1.partial(0), mu1.partial(1)
    j21, j22 = mu2.partial(0), mu2.partial(1)
    det_vals = []
    certified = True
    for t0, u0 in classes:
        det = (j11.eval(t0, u0) * j22.eval(t0, u0) - j12.eval(t0, u0) * j21.eval(t0, u0)) % m
        dv = prec if det == 0 else _ord2(det)
        det_vals.append(dv)
        if prec < 2 * dv + 1:
            certified = False
    return DiskCertificate(
        disk=disk,
        solution_classes=tuple(classes),
        det_valuations=tuple(det_vals),
        certified=certified,
        solutions=len(classes),
        prec=prec,
    )


@lru_cache(maxsize=32)
def required_degree(prec: int) -> int:
    """Series degree so every discarded term has valuation >= 4 * prec.

    Works with the same budget as the degree-32 / mod-2^6 choice: the term
    of degree k contributes valuation at least k - 4 ord_2(k), and beyond
    16 * (4 prec) the analytic bound k - 4 log2 k takes over.
    """
    need = 4 * prec
    cap = SERIES_DEGREE
    while not all(k - 4 * _ord2(k) >= need for k in range(cap + 1, 16 * need)):
        cap += 4
    return cap


# ---------------------------------------------------------------------------
# the per-disk policy
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def lambda_stage(prec: int) -> tuple[dict, tuple]:
    """The integrals Lambda_l(E_j) mod 2^prec and the annihilators they give."""
    omega1, omega2 = expand_differentials(required_degree(prec))
    lam1, lam2 = integrate(omega1), integrate(omega2)
    lambdas = {}
    for (l, lam) in ((1, lam1), (2, lam2)):
        for j, (t, n) in enumerate(kernel_generators(), start=1):
            lambdas[(l, j)] = eval_lambda(lam, t, n, prec)
    return lambdas, annihilator_solve(lambdas, prec)


def certify_residue_disk(disk: str, prec: int = LAMBDA_PREC) -> DiskCertificate:
    """Certificate for one of the disks P0, P2, P4 at working precision prec.

    The disk series is taken mod 2^(prec-1) from the annihilators at prec.
    A disk that is uncertified or shows more than two solution classes is
    redone once at prec + 2, whose annihilators must reduce to the working
    ones; the disk at x = -3 needs this at the default precision.
    """
    anni = lambda_stage(prec)[1]
    cert = certify_disk(*disk_series(disk, anni, prec - 1, required_degree(prec)), disk)
    if cert.certified and cert.solutions <= 2:
        return cert
    hi = prec + 2
    hi_anni = lambda_stage(hi)[1]
    if tuple(tuple(x % (1 << (prec - 1)) for x in vec) for vec in hi_anni) != anni:
        raise RuntimeError("annihilators unstable under precision escalation")
    return certify_disk(*disk_series(disk, hi_anni, hi - 1, required_degree(hi)), disk)


# ---------------------------------------------------------------------------
# the assembled theorem
# ---------------------------------------------------------------------------


_PINNED_LAMBDAS = {
    (1, 1): (0, 30),
    (2, 1): (0, 42),
    (1, 2): (17, 47),
    (2, 2): (50, 53),
}
_PINNED_ANNIHILATORS = ((2, 0, 7, 0), (0, 1, 0, 13))
_PINNED_P0_CLASSES = ((0, 0), (6, 2))
_RATIONAL_POINTS = ("(0, -1)", "(0, 1)", "(-3, -1)", "(-3, 1)", "inf+", "inf-")
_FIVE_CYCLE_C = ("-2", "-16/9", "-64/9")


class TheoremReport(namedtuple("TheoremReport", "lambdas annihilators certificates pinned_ok")):
    __slots__ = ()

    def verdict(self) -> bool:
        return all(self.pinned_ok.values()) and all(
            c.certified for c in self.certificates.values()
        )

    def to_record(self) -> dict:
        return {
            "schema": "quaddyn/chabauty/v1",
            "lambdas": {f"L{l}(E{j})": [v.re, v.im] for (l, j), v in self.lambdas.items()},
            "annihilators": [list(v) for v in self.annihilators],
            "disks": {name: cert.to_record() for name, cert in self.certificates.items()},
            "pinned_ok": dict(self.pinned_ok),
            "points_on_X0_5": list(_RATIONAL_POINTS),
            "rational_five_cycle_c": list(_FIVE_CYCLE_C),
            "period_5_points_over_Q(i)": "none",
            "verdict": self.verdict(),
        }


def transcript(report: TheoremReport) -> str:
    """Human-readable account of the computation, in the narrative order:
    model change, differentials, kernel generators, integral values,
    annihilators, residue disks, verdict."""
    lines = [
        "X0(5): y^2 = x^6 + 8x^5 + 22x^4 + 22x^3 + 5x^2 + 6x + 1, with the",
        "good-reduction model y^2 + h y = g at (1+i), h = -(x^3+x+1),",
        "g = 2x^5+5x^4+5x^3+x^2+x; base point (0, 0), local parameter t = x.",
        "",
        "omega_1 = -1 + 3t - 11t^2 + 56t^3 - ... (integer coefficients to degree 32),",
        "omega_2 = t omega_1; lambda_j = int_0^t omega_j.",
        "",
        "Kernel-of-reduction generators (rebased at the base point):",
    ]
    K = QuadField(-1)
    for name, (t, n) in zip(("E1", "E2"), kernel_generators()):
        lines.append(f"  {name}: {format_poly(UniPoly(K, (n, -t, K.one)))}")
    lines.append("")
    lines.append("Integrals mod 2^6:")
    for (l, j), v in sorted(report.lambdas.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        lines.append(f"  Lambda_{l}(E{j}) = {v.re} + {v.im} i")
    a1, a2 = report.annihilators
    lines.append("")
    lines.append(f"Annihilators mod 2^5: M1 = {a1[0]} ReL1 + {a1[2]} ReL2,"
                 f" M2 = {a2[1]} ImL1 + {a2[3]} ImL2")
    lines.append("")
    lines.append("Residue disks (solution classes mod 2^3, ord_2 det J, certification):")
    for name in ("P0", "P1", "P2", "P3", "P4", "P5"):
        cert = report.certificates[name]
        classes = ", ".join(str(c) for c in cert.solution_classes)
        lines.append(
            f"  {name}: classes {classes}; det valuations {list(cert.det_valuations)}; "
            f"certified={cert.certified} (series mod 2^{cert.prec})"
        )
    lines.append("")
    lines.append("A disk with two 2-adic solutions around a rational point holds a single")
    lines.append("Q(i)-point: a strictly quadratic point would force a third solution via")
    lines.append("its Galois conjugate. Hence:")
    lines.append("  X0(5)(Q(i)) = {(0,+/-1), (-3,+/-1), inf+, inf-}")
    lines.append("  c with a rational 5-cycle over Q: -2, -16/9, -64/9")
    lines.append("  no c in Q(i) admits a Q(i)-rational point of period 5")
    return "\n".join(lines)


def full_theorem(prec: int = LAMBDA_PREC) -> TheoremReport:
    """Run the whole pipeline and compare every stage with the pinned values.

    Each of the disks P0, P2, P4 goes through certify_residue_disk, so a
    disk that fails at the working precision is recomputed with two more
    bits; the disk at x = -3 needs this, and resolves to two certified
    solutions just like the base-point disk.  A two-solution disk around a
    rational point still carries a single Q(i)-point: a strictly quadratic
    point would bring its Galois conjugate as a third solution.
    """
    lambdas, anni = lambda_stage(prec)
    certs = {disk: certify_residue_disk(disk, prec) for disk in ("P0", "P2", "P4")}
    for disk, conj in (("P1", "P0"), ("P3", "P2"), ("P5", "P4")):
        certs[disk] = certs[conj]._replace(disk=disk)
    pinned_ok = {}
    if prec == LAMBDA_PREC:
        pinned_ok["lambdas"] = lambdas == _PINNED_LAMBDAS
        pinned_ok["annihilators"] = anni == _PINNED_ANNIHILATORS
        pinned_ok["disk_P0_classes"] = certs["P0"].solution_classes == _PINNED_P0_CLASSES
        pinned_ok["disk_P0_det"] = all(v == 2 for v in certs["P0"].det_valuations)
    for name, cert in certs.items():
        if cert.solutions > 2:
            raise RuntimeError(f"disk {name}: more than two 2-adic solutions; cannot conclude")
    return TheoremReport(lambdas=dict(lambdas), annihilators=anni, certificates=certs,
                         pinned_ok=pinned_ok)
