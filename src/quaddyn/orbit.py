"""The preperiodic-graph engine for f_c(z) = z^2 + c over K = Q(sqrt(d)).

build_graph decides preperiodicity with a height box.  A preperiodic x
satisfies |sigma(x)| <= (1 + sqrt(1 + 4|sigma(c)|))/2 at every infinite place
and v_P(x) = v_P(c)/2 at every prime P with v_P(c) < 0 (Doyle-Faber-Krumm,
NYJM 2014; Benedetto-Chen-Hyde-Kovacheva-White, Exp. Math. 2014).  So an odd
v_P(c) < 0 leaves no preperiodic point.  Otherwise every one is y/D with y in
2 O_K inside the box and y^2 = -D^2 c mod D, where D = 2M and M is the least
integer whose square the denominator of c divides.  Each such candidate is
iterated until its orbit repeats (preperiodic) or leaves the candidate set
(not preperiodic).

portrait decides one orbit by the same walk, with no factoring: with w the
denominator of c, v_P(w) >= -v_P(c) at every prime P, so a preperiodic x has
w x in O_K, and y = 2 w x is a candidate at D = 2 w.  The box's step walks
y; the candidates are finitely many, so the walk repeats, which proves x
preperiodic, or leaves them, which proves it is not: no step or size cap is
needed.

When trial division below TRIAL_BOUND leaves a cofactor of the denominator
that it does not prove prime (square roots modulo an unfactored number are
as hard as factoring it), or the box or the coset classes hold more than
BOX_LIMIT candidates, build_graph falls back to the dynatomic path: the
K-rational periodic points from the roots of the dynatomic polynomials
(periodic_points, which loads quaddyn.factor when it runs), then their
backward closure under preimages.  The fixed point at infinity is always
omitted, matching the convention the vertex counts follow.

Either point set is finite and closed under f_c, so the portraits of all its
points come from one walk over its successor map (portraits_of).  The graph
keeps the points of eventual period <= n_max: the same vertex set either way.

Results are labeled complete for periods <= n_max (default 6); that bound is
one more than any cycle length that occurs over the fields of interest.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .dynatomic import MAX_PERIOD, dn_rn, specialize, symbolic_dynatomic
from .finitefield import sqrt_mod_p2, trial_factor
from .quadfield import QuadElem, _norm, _quad, format_elem, quad_sqrt, sorted_elems, to_field

CLOSURE_CAP = 10_000


AdmissibilityReport = namedtuple("AdmissibilityReport", "admissible strongly_admissible "
                                 "zero_is_preperiodic c_is_quarter")


class PreperGraph(namedtuple("PreperGraph", "vertices succ portraits field parameter n_max_used")):
    """Finite functional digraph of the K-rational preperiodic points of f_c: vertices
    sorted by QuadElem.sort_key, succ v -> f_c(v), portraits v -> (preperiod m, period n)."""

    __slots__ = ()

    def size(self) -> int:
        return len(self.vertices)

    def to_record(self) -> dict:
        """JSON-ready dump: vertices, edges, portraits, flags.

        Elements over Q(w) print through the w shorthand, as the tables do.
        """
        style = "w" if self.field == -3 else "sqrt"
        text = {v: format_elem(v, style) for v in self.vertices}
        cycles = cycle_structure(self)
        flags = _admissible_flags(self, self.parameter, cycles)
        return {
            "schema": "quaddyn/graph/v1",
            "d": self.field,
            "c": format_elem(self.parameter, style),
            "n_max": self.n_max_used,
            "complete_for_periods_le": self.n_max_used,
            "vertices": list(text.values()),
            "edges": [[text[v], text[self.succ[v]]] for v in self.vertices],
            "portraits": {text[v]: list(self.portraits[v]) for v in self.vertices},
            "cycle_structure": list(cycles),
            "flags": dict(zip(flags._fields, flags)),
        }


def portrait(c: QuadElem, alpha: QuadElem) -> tuple[int, int]:
    """Minimal (preperiod, eventual period) of alpha, walked over the box's candidate set."""
    d = (c + alpha).d  # c's field, or alpha's when c is rational; mixed fields are refused
    ca, cb, w = c.triple
    a, b, z = alpha.triple
    D = 2 * w
    step = _escape_box(d, D, 2 * D * ca, 2 * D * cb)[3]
    y, seen = (None if D % z else (a * D // z, b * D // z)), {}
    while y is not None and y not in seen:
        seen[y] = len(seen)
        y = step(*y)
    if y is None:
        raise RuntimeError(f"orbit of {alpha!r} does not repeat: not preperiodic")
    return seen[y], len(seen) - seen[y]


def portraits_of(succ: dict) -> dict:
    """(preperiod, eventual period) of every vertex of a finite functional graph.

    Each walk stops at a vertex already decided, or at one on its own path,
    which closes a cycle; the path then takes its portraits backwards.
    """
    out = {}
    for start in succ:
        path, index, v = [], {}, start
        while v not in out and v not in index:
            if v not in succ:
                raise ValueError("not a functional graph: successor leaves the vertex set")
            index[v] = len(path)
            path.append(v)
            v = succ[v]
        if v in index:
            cycle = path[index[v]:]
            del path[index[v]:]
            out.update((u, (0, len(cycle))) for u in cycle)
        m, n = out[v]
        for k, u in enumerate(reversed(path), 1):
            out[u] = (m + k, n)
    return out


def periodic_points(c: QuadElem, d: int | None = None, n_max: int = MAX_PERIOD) -> dict:
    """Map n -> set of K-rational points of exact period n, for n <= n_max.

    The roots of Phi_1..Phi_n_max are closed under f_c, so one walk over
    their successor map (portraits_of) sorts them by exact period.
    """
    from .factor import roots_in_quadfield

    if not 1 <= n_max <= MAX_PERIOD:
        raise ValueError(f"n_max must be in 1..{MAX_PERIOD}, got {n_max}")
    c = to_field(c, d)
    roots = set()
    for n in range(1, n_max + 1):
        roots.update(roots_in_quadfield(specialize(symbolic_dynatomic(n), c)))
    out = {n: set() for n in range(1, n_max + 1)}
    for root, (_, period) in portraits_of({r: r * r + c for r in roots}).items():
        out[period].add(root)
    return out


def _backward_closure(c: QuadElem, points: set) -> set:
    """points together with all their iterated K-rational preimages."""
    vertices = set(points)
    frontier = list(vertices)
    while frontier:
        y = frontier.pop()
        r = quad_sqrt(y - c)
        if r is None:
            continue
        for pre in (r, -r):
            if pre not in vertices:
                vertices.add(pre)
                frontier.append(pre)
        if len(vertices) > CLOSURE_CAP:
            raise RuntimeError("backward closure exceeded the safety cap (suspected bug)")
    return vertices


# -- the height-box engine ----------------------------------------------------

TRIAL_BOUND = 1 << 16  # the coset cut factors denominators by trial division below this
# Candidates the box may hold before build_graph falls back.  Measured on a
# 2-vCPU x86-64 host, Python 3.11: the box costs 1-2 us a candidate (15-30 ms
# at 2^14); the fallback, once Phi_1..Phi_6 are built, 4-7 ms at integral c
# and 20-50 ms otherwise.  The crossover thus lies between 2^12 and 2^15.
# A one-command process builds Phi_1..Phi_6 over Z[c] first (0.013 s), so a
# cold `graph` call that falls back takes 0.07-0.12 s wall, as one on the box.
BOX_LIMIT = 1 << 14


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r + (r * r < n)


def _floor_times_sqrt(b: int, d: int) -> int:
    """floor(b * sqrt(d)) for d > 0."""
    return math.isqrt(b * b * d) if b >= 0 else -_ceil_sqrt(b * b * d)


def _in_2ok(A: int, B: int, d: int) -> bool:
    """A + B sqrt(d) lies in 2 O_K."""
    return (A - B) % 2 == 0 if d % 4 == 1 else A % 2 == 0 == B % 2


def _escape_bound(D: int, g: int) -> int:
    """An integer Y >= D*R for R = (1 + sqrt(1 + 4|c|))/2, given an integer g >= D^2 |c|."""
    return (D + _ceil_sqrt(D * D + 4 * g) + 1) // 2


def _smooth_factors(n: int) -> dict | None:
    """{p: e} with n = prod p^e by trial division below TRIAL_BOUND.

    A cofactor left below TRIAL_BOUND^2 is prime; None when a larger one is
    left, whose primality trial division does not prove.
    """
    factors, rest = trial_factor(n, TRIAL_BOUND)
    return None if rest > 1 else factors


def _digits(p: int, q: int, d: int, A: int, B: int, na: int, nb: int):
    """The (s, t) in [0, p)^2 for which (A + s q, B + t q) solves y^2 = -n mod p q.

    (A, B) solves it mod q = p^j.  The first digit comes from square roots
    mod p.  Past it, y^2 + n changes by 2 q y (s + t sqrt(d)) mod p q, so the
    digits solve two linear equations mod p: one solution when the
    determinant 4 Norm(y) is a unit, else a line or the whole plane of them,
    which are generated lazily: p may be far above BOX_LIMIT.
    """
    if q == 1:
        if p > 2:
            return sqrt_mod_p2(p, d, -na % p, -nb % p)
        return [(s, t) for s in (0, 1) for t in (0, 1) if (s + d * t + na) % 2 == 0 == nb % 2]
    rows = ((2 * A % p, 2 * d * B % p, -(A * A + d * B * B + na) // q % p),
            (2 * B % p, 2 * A % p, -(2 * A * B + nb) // q % p))
    (u1, v1, w1), (u2, v2, w2) = rows
    det = (u1 * v2 - v1 * u2) % p
    if det:
        inv = pow(det, -1, p)
        return [((w1 * v2 - v1 * w2) * inv % p, (u1 * w2 - w1 * u2) * inv % p)]
    # rank <= 1: the solutions fill a line or the plane, or there are none
    u, v, w = next((row for row in rows if row[0] or row[1]), (0, 0, 0))
    inv = pow(v or u or 1, -1, p)
    s0, t0 = (0, w * inv % p) if v else (w * inv % p, 0)
    if any((x * s0 + y * t0 - z) % p for x, y, z in rows):
        return []
    if v:
        return ((s, (w - u * s) * inv % p) for s in range(p))
    if u:
        return ((s0, t) for t in range(p))
    return ((s, t) for s in range(p) for t in range(p))


def _square_root_classes(p: int, e: int, d: int, na: int, nb: int) -> list | None:
    """All (A, B) mod p^e with (A + B sqrt(d))^2 = -(na + nb sqrt(d)) mod p^e.

    Lifted one p-adic digit at a time; None when the classes outgrow BOX_LIMIT.
    """
    sols, q = [(0, 0)], 1
    for _ in range(e):
        lifted = []
        for A, B in sols:
            for s, t in _digits(p, q, d, A, B, na, nb):
                if len(lifted) == BOX_LIMIT:
                    return None
                lifted.append((A + s * q, B + t * q))
        sols, q = lifted, q * p
    return sols


def _escape_box(d: int, D: int, na: int, nb: int):
    """(b_max, a_max, a_range, step) for the y = A + B sqrt(d) with |sigma(y)| <= D R_sigma.

    Here na + nb sqrt(d) = D^2 c.  Every such y has |B| <= b_max, |A| <= a_max
    and lo <= A <= hi for (lo, hi) = a_range(B); the bounds are exact integer
    ones, rounded outward only in R_sigma.  step(A, B) is D f(y/D), or None
    when it leaves the candidate set: the y of the box in 2 O_K.
    """
    if d < 0:
        Y = _escape_bound(D, _ceil_sqrt(na * na - d * nb * nb))

        def a_range(B):
            h = Y * Y + d * B * B
            h = math.isqrt(h) if h >= 0 else -1
            return -h, h

        b_max, a_max = math.isqrt(Y * Y // -d), Y
    else:
        t = _floor_times_sqrt(nb, d)
        yp = _escape_bound(D, max(abs(na + t), abs(na + t + 1)))
        ym = _escape_bound(D, max(abs(na - t), abs(na - t - 1)))

        def a_range(B):  # |A + B sqrt(d)| <= yp and |A - B sqrt(d)| <= ym
            fl = _floor_times_sqrt(B, d)
            ce = fl + (B != 0)
            return max(-yp - fl, ce - ym), min(yp - ce, ym + fl)

        b_max, a_max = math.isqrt((yp + ym) ** 2 // (4 * d)), (yp + ym) // 2 + 1

    def step(A, B):
        ra, rb = A * A + d * B * B + na, 2 * A * B + nb
        if ra % D or rb % D:
            return None
        A, B = ra // D, rb // D
        lo, hi = a_range(B)
        return (A, B) if lo <= A <= hi and _in_2ok(A, B, d) else None

    return b_max, a_max, a_range, step


def _box_points(c: QuadElem) -> set | None:
    """Every K-rational preperiodic point of f_c, for all periods (see the module doc).

    Points are worked on as y = D x = A + B sqrt(d) with integer A, B.  None
    when the dynatomic path has to decide.
    """
    d = c.d
    ca, cb, w = c.triple
    # an odd prime p not dividing d with v_p(w) odd has a prime above it with
    # v_P(c) < 0 odd, so no point is preperiodic
    odd, g = w, math.gcd(w, 2 * d)
    while g > 1:
        odd //= g
        g = math.gcd(odd, g)
    root = math.isqrt(odd)
    if root * root != odd:
        return set()
    near, far = _smooth_factors(w // odd), _smooth_factors(root)
    if near is None or far is None:
        return None
    exps = {p: (k + 1) // 2 for p, k in near.items()} | far
    exps[2] = exps.get(2, 0) + 1
    D = math.prod(p**k for p, k in exps.items())
    na, nb = ca * D * D // w, cb * D * D // w

    b_max, a_max, a_range, step = _escape_box(d, D, na, nb)
    per_class = (2 * b_max // D + 1) * (2 * a_max // D + 1)
    classes, mod = [(0, 0)], 1
    for p, k in sorted(exps.items()):
        local = _square_root_classes(p, k, d, na, nb)
        if local is None:
            return None
        q = p**k
        if p == 2:  # y and D f(y/D) both lie in 2 O_K
            local = [(a, b) for a, b in local if _in_2ok(a, b, d)
                     and _in_2ok((a * a + d * b * b + na) // q, (2 * a * b + nb) // q, d)]
        if len(classes) * len(local) * per_class > BOX_LIMIT:
            return None
        inv = pow(mod, -1, q)
        classes = [(x + mod * ((a - x) * inv % q), y + mod * ((b - y) * inv % q))
                   for x, y in classes for a, b in local]
        mod *= q

    by_b = {}
    for a0, b0 in classes:
        by_b.setdefault(b0, []).append(a0)
    status = {}  # y -> preperiodic?  (None while y is on the current path)
    for b0, a0s in by_b.items():
        for B in range(-b_max + (b0 + b_max) % D, b_max + 1, D):
            lo, hi = a_range(B)
            for a0 in a0s:
                for A in range(lo + (a0 - lo) % D, hi + 1, D):
                    path, y = [], (A, B)
                    while y not in status:
                        status[y] = None
                        path.append(y)
                        y = step(*y)
                        if y is None:
                            break
                    verdict = y is not None and status[y] is not False
                    for v in path:
                        status[v] = verdict
    return {_quad(_norm(A, B, D), d) for (A, B), pre in status.items() if pre}


def build_graph(c: QuadElem, d: int | None = None, n_max: int = MAX_PERIOD) -> PreperGraph:
    """G(f_c, K) restricted to the points whose eventual period is <= n_max."""
    if not 1 <= n_max <= MAX_PERIOD:
        raise ValueError(f"n_max must be in 1..{MAX_PERIOD}, got {n_max}")
    c = to_field(c, d)
    vertices = _box_points(c)
    if vertices is None:
        per = periodic_points(c, None, n_max)
        vertices = _backward_closure(c, set().union(*per.values()))
    succ = {v: v * v + c for v in vertices}
    portraits = {v: mp for v, mp in portraits_of(succ).items() if mp[1] <= n_max}
    return PreperGraph(
        vertices=tuple(sorted_elems(portraits)),
        succ={v: succ[v] for v in portraits},
        portraits=portraits,
        field=c.d,
        parameter=c,
        n_max_used=n_max,
    )


def cycle_structure(graph: PreperGraph) -> tuple[int, ...]:
    """Nondecreasing list of the lengths of the disjoint cycles.

    A cycle of length n is n vertices of portrait (0, n).
    """
    on_cycles: dict = {}
    for m, n in graph.portraits.values():
        if m == 0:
            on_cycles[n] = on_cycles.get(n, 0) + 1
    return tuple(n for n in sorted(on_cycles) for _ in range(on_cycles[n] // n))


def admissible_flags(graph: PreperGraph, c: QuadElem) -> AdmissibilityReport:
    """Vertex criterion and structural criterion, required to agree."""
    return _admissible_flags(graph, c, cycle_structure(graph))


def _admissible_flags(graph: PreperGraph, c: QuadElem, cycles: tuple) -> AdmissibilityReport:
    """admissible_flags, given the graph's cycle_structure."""
    zero_in = 0 in graph.succ  # the rational zero equals and hashes as the int 0
    quarter = c.triple == (1, 0, 4)

    vertex_admissible = not zero_in
    vertex_strong = vertex_admissible and not quarter

    in_deg: dict = {}
    for w in graph.succ.values():
        in_deg[w] = in_deg.get(w, 0) + 1
    degrees_ok = all(in_deg.get(v, 0) in (0, 2) for v in graph.vertices)
    cycles_ok = all(n == 1 or cycles.count(n) <= dn_rn(n)[1] for n in set(cycles))
    structural_admissible = degrees_ok and cycles_ok
    fixed = cycles.count(1)
    structural_strong = structural_admissible and fixed in (0, 2)

    if structural_admissible != vertex_admissible or structural_strong != vertex_strong:
        raise RuntimeError(
            "admissibility criteria disagree (bug): "
            f"structural=({structural_admissible},{structural_strong}) "
            f"vertex=({vertex_admissible},{vertex_strong})"
        )
    return AdmissibilityReport(vertex_admissible, vertex_strong, zero_in, quarter)
