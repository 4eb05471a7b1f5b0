"""Fraction oracle for the Chabauty differentials.

quaddyn.chabauty expands omega_1 and omega_2 on each residue disk by a
coefficient recurrence on plain ints.  The oracle here shares none of that
arithmetic: FractionSeries is a TruncSeries with the ring operations over Q,
the branch y of y^2 + h y = g comes from series Newton iteration, and
1/(2y + h) from the series inverse.
"""

from __future__ import annotations

from fractions import Fraction

from quaddyn.chabauty import TruncSeries
from quaddyn.curves import get_curve
from quaddyn.polys import QQ, UniPoly


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
