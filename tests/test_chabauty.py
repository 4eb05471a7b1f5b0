from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chabauty_oracle import (
    FractionSeries,
    check_kernel_membership,
    eval_lambda_exact,
    kernel_generators_oracle,
    residue,
    to_good_model,
    val_p,
)
from quaddyn.chabauty import (
    TruncSeries,
    annihilator_solve,
    certify_disk,
    disk_differentials,
    disk_series,
    eval_lambda,
    expand_differentials,
    full_theorem,
    integrate,
    kernel_generators,
    required_degree,
)
from quaddyn.curves import get_curve
from quaddyn.polys import QuadField, UniPoly
from quaddyn.quadfield import QuadElem

F = Fraction

# frozen integer coefficients of omega_1 (degrees 0..31)
OMEGA1 = [
    -1, 3, -11, 56, -283, 1438, -7506, 39723, -211939, 1139043, -6157964,
    33448053, -182389282, 997848854, -5474673325, 30110184065, -165957302527,
    916424740644, -5069007570927, 28080034612882, -155759823221656,
    865048247560705, -4809544720320519, 26767288658743629,
    -149109354289320238, 831329586241569831, -4638535883774463494,
    25900170663332468144, -144715739340500871241, 809096110462736894221,
    -4526238826848117522585, 25334445278892249580026,
]


def q(a, b=0):
    return QuadElem(F(a), F(b), -1)


# --- 2-adic reduction ------------------------------------------------------


def test_eval_lambda_rejects_even_denominators_and_other_fields():
    lam = TruncSeries([0, 1], 1)  # Lambda = t(P) + t(Q), the trace itself
    with pytest.raises(ValueError, match="not integral at"):
        eval_lambda(lam, q(F(1, 2)), q(0), 6)
    with pytest.raises(ValueError, match="Q\\(i\\)"):
        eval_lambda(lam, QuadElem(0, 1, -3), q(0), 6)
    assert eval_lambda(lam, q(F(1, 3), F(-1, 5)), q(0), 4) == (pow(3, -1, 16), -pow(5, -1, 16) % 16)


def test_val_p():
    assert val_p(q(2)) == 2
    assert val_p(q(1, 1)) == 1
    assert val_p(q(F(1, 2))) == -2
    assert val_p(q(0, F(3, 1))) == 0


# --- series -----------------------------------------------------------------


def test_omega_series_integer_coefficients():
    omega1, omega2 = expand_differentials()
    assert [int(c) for c in omega1.coeffs[:32]] == OMEGA1
    # omega_2 = t * omega_1
    assert [int(c) for c in omega2.coeffs[1:]] == OMEGA1
    assert omega2.coeffs[0] == 0


# first 8 and last 2 integer coefficients of (omega_1, omega_2) at degree
# required_degree(12) = 64 on the disks at x = -3 and at infinity
DISK_OMEGAS = {
    "P2": (
        ([-1, -12, -191, -3451, -65755, -1290296, -25802550, -522843081],
         [-174287158137870359940798705170671369777616688641634764179314968401868904128442925811,
          -3776117103203529364783364654340612158261138641614277262780395333378057722760233833764]),
        ([3, 35, 561, 10162, 193814, 3805133, 76117354, 1542726693],
         [514816221657251974680842935268293906067292932275142762504897165032202519404630698129,
          11154064151472717734409295257851165105005799236201197024161871031732304264152258575481]),
    ),
    "P4": (
        ([0, -1, 4, -13, 39, -111, 304, -808],
         [-35546547956526629264405198014, 104214651095568399059639861699]),
        ([-1, 4, -13, 39, -111, 304, -808, 2097],
         [104214651095568399059639861699, -305569618031996888468600729678]),
    ),
}


@pytest.mark.parametrize("disk", ["P2", "P4"])
def test_disk_omegas_pinned(disk):
    deg = required_degree(12)
    assert deg == 64
    for omega, (head, tail) in zip(disk_differentials(disk, deg), DISK_OMEGAS[disk]):
        assert omega.cap == deg
        assert list(omega.coeffs[:8]) == head and list(omega.coeffs[-2:]) == tail


def test_lambda_series_heads_and_tails():
    omega1, omega2 = expand_differentials()
    lam1, lam2 = integrate(omega1), integrate(omega2)
    assert lam1.coeffs[0] == 0 and lam2.coeffs[0] == 0
    assert lam1.coeffs[1] == -1 and lam1.coeffs[2] == F(3, 2)
    assert lam2.coeffs[2] == F(-1, 2) and lam2.coeffs[3] == 1
    assert lam1.coeffs[31] == F(-4526238826848117522585, 31)
    assert lam1.coeffs[32] == F(25334445278892249580026, 32)
    assert lam2.coeffs[31] == F(809096110462736894221, 31)
    assert lam2.coeffs[32] == F(-4526238826848117522585, 32)


def test_truncation_margin():
    assert all(k - 4 * _ord2(k) >= 24 for k in range(33, 47))
    assert required_degree(6) == 32


def _ord2(k):
    v = 0
    while k % 2 == 0:
        k //= 2
        v += 1
    return v


def test_series_inverse():
    s = FractionSeries([1, 2, 3], 8)
    prod = s * s.inverse()
    assert prod.coeffs[0] == 1 and all(c == 0 for c in prod.coeffs[1:])


def test_integrate_zero_is_zero():
    assert integrate(TruncSeries([], 8)).is_zero()


# --- kernel and integrals ---------------------------------------------------


def test_kernel_generators_pinned():
    (t1, n1), (t2, n2) = kernel_generators()
    assert t1 == q(F(-742, 325), F(44, 325))
    assert n1 == q(F(-512, 325), F(-66, 325))
    assert n2 == q(F(948975, 488501), F(120593, 488501))
    kd = kernel_generators_oracle()
    assert not kd.e1.is_zero() and not kd.e2.is_zero()


def test_kernel_generators_equal_the_exact_derivation():
    data = kernel_generators()
    assert data == kernel_generators_oracle().trace_norm
    assert all(x.d == -1 for pair in data for x in pair)


def _good_h():
    K = QuadField(-1)
    return get_curve("X_good").curve.h.map_coeffs(K, lambda c: QuadElem(c, 0, -1))


def test_kernel_membership_check_passes_for_the_generators():
    for u, v in kernel_generators_oracle().rebased:
        check_kernel_membership(u, v, _good_h())


def test_kernel_membership_check_rejects_d1_and_d3():
    # rebased at (0, -1), the supports of D1 = [2 inf+] and D3 reduce to x = 1
    from quaddyn.jacobian import rebase_at

    model = kernel_generators_oracle().model
    X = model.x
    d1 = model.from_points("inf+", "inf+")
    d3 = model.from_mumford(X * X + model.const(3) * X + model.const(q(1, -1)),
                            model.const(q(-1, -1)) * X + model.const(q(-2, -1)))
    for cls in (d1, d3):
        u, v = rebase_at(cls, q(0), q(-1))
        with pytest.raises(RuntimeError, match="does not reduce to the base point"):
            check_kernel_membership(u, v, _good_h())


@pytest.mark.parametrize("v1, v0, ok", [(-2, -5, False), (-3, -3, False), (-3, -1, True)])
def test_kernel_membership_check_tests_the_y_coordinates(v1, v0, ok):
    # u = x^2 + 2x + 2 has roots -1 +- i, both of valuation 1, and
    # (v - h)/2 = ((v1 + 3) x + v0 + 5)/2 mod u: w1 = 1/2 is not integral,
    # w0 = 1 is a unit, w0 = 2 vanishes mod (1+i)
    K = QuadField(-1)
    u = UniPoly(K, (q(2), q(2), q(1)))
    v = UniPoly(K, (q(v0), q(v1)))
    if ok:
        check_kernel_membership(u, v, _good_h())
    else:
        with pytest.raises(RuntimeError, match="y-coordinates do not vanish"):
            check_kernel_membership(u, v, _good_h())


def test_lambda_values_and_linearity():
    omega1, omega2 = expand_differentials()
    lam1, lam2 = integrate(omega1), integrate(omega2)
    values = {}
    for (l, lam) in ((1, lam1), (2, lam2)):
        for j, (t, n) in enumerate(kernel_generators(), start=1):
            value = eval_lambda(lam, t, n, 6)
            values[(l, j)] = value
            assert value == residue(eval_lambda_exact(lam, t, n), 6)
    assert (values[(1, 1)].re, values[(1, 1)].im) == (0, 30)
    assert (values[(2, 1)].re, values[(2, 1)].im) == (0, 42)
    assert (values[(1, 2)].re, values[(1, 2)].im) == (17, 47)
    assert (values[(2, 2)].re, values[(2, 2)].im) == (50, 53)
    # linearity: Lambda(E1 + E1) = 2 Lambda(E1) mod 2^6, re-evaluated from the
    # doubled class's own rebased (trace, norm)
    from quaddyn.jacobian import rebase_at

    e1 = kernel_generators_oracle().e1
    doubled = e1 + e1
    u, _ = rebase_at(doubled, q(0), q(-1))
    t, n = -u.coeffs[1], u.coeffs[0]
    for lam, l in ((lam1, 1), (lam2, 2)):
        twice = eval_lambda(lam, t, n, 6)
        single = values[(l, 1)]
        assert twice == (2 * single.re % 64, 2 * single.im % 64)


def test_trivial_divisor_evaluates_to_zero():
    omega1, _ = expand_differentials()
    lam1 = integrate(omega1)
    assert eval_lambda(lam1, q(0), q(0), 6) == (0, 0)


def test_annihilator_solve_pinned_and_scaled():
    omega1, omega2 = expand_differentials()
    lam1, lam2 = integrate(omega1), integrate(omega2)
    values = {
        (l, j): eval_lambda(lam, *kernel_generators()[j - 1], 6)
        for (l, lam) in ((1, lam1), (2, lam2))
        for j in (1, 2)
    }
    anni = annihilator_solve(values, 6)
    assert anni == ((2, 0, 7, 0), (0, 1, 0, 13))
    # doubling all values scales the system: same solution space mod 2^4
    doubled = {k: (2 * v.re % 64, 2 * v.im % 64) for k, v in values.items()}
    scaled = annihilator_solve(doubled, 6)
    for vec, ref in zip(scaled, anni):
        assert tuple(x % 16 for x in vec) == tuple(x % 16 for x in ref)


# --- disks ------------------------------------------------------------------


def test_disk_p0_series_pinned_monomials():
    anni = ((2, 0, 7, 0), (0, 1, 0, 13))
    mu1, mu2 = disk_series("P0", anni)
    assert mu1.coeff(1, 0) == 30 and mu1.coeff(0, 1) == 2
    assert mu2.coeff(0, 1) == 31
    assert mu1.coeff(0, 0) == 0 and mu2.coeff(0, 0) == 0
    jac = [
        [mu1.partial(0).eval(0, 0) % 8, mu1.partial(1).eval(0, 0) % 8],
        [mu2.partial(0).eval(0, 0) % 8, mu2.partial(1).eval(0, 0) % 8],
    ]
    assert jac == [[6, 2], [7, 7]]


def test_certify_disk_p0():
    anni = ((2, 0, 7, 0), (0, 1, 0, 13))
    cert = certify_disk(*disk_series("P0", anni), "P0")
    assert cert.solution_classes == ((0, 0), (6, 2))
    assert cert.det_valuations == (2, 2)
    assert cert.certified and cert.solutions == 2


def test_certify_single_solution_disk():
    anni = ((2, 0, 7, 0), (0, 1, 0, 13))
    cert = certify_disk(*disk_series("P4", anni), "P4")
    assert cert.solution_classes == ((0, 0),)
    assert cert.certified and cert.solutions == 1


def test_disk_p2_escalates_to_two_certified_solutions():
    report = full_theorem()
    cert = report.certificates["P2"]
    assert cert.certified and cert.solutions == 2
    assert cert.solution_classes == ((0, 0), (5, 3))
    assert cert.prec == 7  # precision escalation kicked in


def test_hensel_criterion_newton_spot_check():
    # recompute the base-point system at precision 2^8 and run the Newton
    # iteration for the class (0,0): it must converge to a unique root
    prec = 8
    deg = required_degree(prec)
    lam1 = integrate(disk_differentials("P0", deg)[0])
    lam2 = integrate(disk_differentials("P0", deg)[1])
    values = {
        (l, j): eval_lambda(lam, *kernel_generators()[j - 1], prec)
        for (l, lam) in ((1, lam1), (2, lam2))
        for j in (1, 2)
    }
    anni = annihilator_solve(values, prec)
    mu1, mu2 = disk_series("P0", anni, prec - 1, deg)
    m = 1 << (prec - 1)
    t, u = 0, 0
    j11, j12 = mu1.partial(0), mu1.partial(1)
    j21, j22 = mu2.partial(0), mu2.partial(1)
    seen = []
    for _ in range(6):
        f1, f2 = mu1.eval(t, u), mu2.eval(t, u)
        a, b, c, d = j11.eval(t, u), j12.eval(t, u), j21.eval(t, u), j22.eval(t, u)
        det = (a * d - b * c) % m
        v2 = _ord2(det) if det else prec
        # Newton step: x -= adj(J) F / det, with the 2-part divided exactly
        num_t = (d * f1 - b * f2) % m
        num_u = (-c * f1 + a * f2) % m
        assert num_t % (1 << v2) == 0 and num_u % (1 << v2) == 0
        unit = pow(det >> v2, -1, m)
        t = (t - (num_t >> v2) * unit) % m
        u = (u - (num_u >> v2) * unit) % m
        seen.append((t, u))
    assert seen[-1] == seen[-2]  # converged
    t, u = seen[-1]
    assert mu1.eval(t, u) == 0 and mu2.eval(t, u) == 0
    assert (t % 8, u % 8) == (0, 0)  # in the expected class


# --- the assembled theorem --------------------------------------------------


def test_to_good_model_examples():
    assert to_good_model((F(0), F(1))) == (0, 1)
    assert to_good_model((F(0), F(-1))) == (0, 0)
    assert to_good_model((F(-3), F(1))) == (-3, -14)
    assert to_good_model((F(-3), F(-1))) == (-3, -15)
    assert to_good_model("inf+") == "inf+"


def test_full_theorem_report():
    import json

    report = full_theorem()
    assert report.verdict()
    assert all(report.pinned_ok.values())
    record = report.to_record()
    assert json.loads(json.dumps(record)) == record
    assert record["points_on_X0_5"] == [
        "(0, -1)", "(0, 1)", "(-3, -1)", "(-3, 1)", "inf+", "inf-",
    ]
    assert record["rational_five_cycle_c"] == ["-2", "-16/9", "-64/9"]
    assert record["period_5_points_over_Q(i)"] == "none"
    assert {c["solutions"] for c in record["disks"].values()} == {1, 2}


def test_stability_under_higher_precision():
    report = full_theorem(prec=8)
    for cert in report.certificates.values():
        assert cert.certified
    assert report.certificates["P0"].solution_classes == ((0, 0), (6, 2))
    assert report.certificates["P2"].solution_classes == ((0, 0), (5, 3))
    assert report.certificates["P4"].solution_classes == ((0, 0),)
    reduced = tuple(tuple(x % 32 for x in vec) for vec in report.annihilators)
    assert reduced == ((2, 0, 7, 0), (0, 1, 0, 13))


@pytest.mark.parametrize("prec", [28, 30])
def test_eval_lambda_keeps_prec_bits_past_degree_128(prec):
    # required_degree reaches 128 here, where ord_2(k) = 7: six guard bits
    # would leave that term with fewer than prec bits
    deg = required_degree(prec)
    assert deg >= 128
    for omega in expand_differentials(deg):
        lam = integrate(omega)
        for t, n in kernel_generators():
            assert eval_lambda(lam, t, n, prec) == residue(eval_lambda_exact(lam, t, n), prec)


@st.composite
def point_pairs(draw):
    """Two points x = (a + b i)/w of (1+i) Z[i] localized at (1+i): a + b even, w odd."""
    points = []
    for _ in range(2):
        a, b = draw(st.integers(-40, 40)), draw(st.integers(-40, 40))
        w = 2 * draw(st.integers(0, 15)) + 1
        points.append(QuadElem(F(a, w), F(b + (a + b) % 2, w), -1))
    return points


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(point_pairs(), st.integers(6, 30), st.sampled_from([0, 1]))
def test_eval_lambda_equals_the_exact_sum_mod_2_prec(points, prec, l):
    x1, x2 = points
    lam = integrate(expand_differentials(required_degree(prec))[l])
    trace, norm = x1 + x2, x1 * x2
    assert eval_lambda(lam, trace, norm, prec) == residue(eval_lambda_exact(lam, trace, norm), prec)
