"""The preperiodic-graph engine for f_c(z) = z^2 + c over K = Q(sqrt(d)).

Strategy: find all K-rational periodic points (roots of the dynatomic
polynomials, filtered down to exact period by iteration), then take the
backward closure under preimages.  A preimage of y is a square root of
y - c in K, so the closure step is a pair of quad_sqrt calls; it terminates
because preperiodic sets are finite.  The fixed point at infinity is always
omitted, matching the convention the vertex counts follow.

Results are labeled complete for periods <= n_max (default 6); that bound is
one more than any cycle length that occurs over the fields of interest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dynatomic import MAX_PERIOD, dn_rn, specialize, symbolic_dynatomic
from .factor import roots_in_quadfield
from .quadfield import QuadElem, format_elem, quad_sqrt

CLOSURE_CAP = 10_000
ORBIT_CAP = 10_000


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    strongly_admissible: bool
    zero_is_preperiodic: bool
    c_is_quarter: bool


@dataclass(frozen=True)
class PreperGraph:
    """Finite functional digraph of the K-rational preperiodic points of f_c."""

    vertices: tuple[QuadElem, ...]
    succ: dict  # vertex -> f_c(vertex)
    portraits: dict  # vertex -> (preperiod m, eventual period n)
    field: int
    parameter: QuadElem
    n_max_used: int

    def size(self) -> int:
        return len(self.vertices)

    def cycle_vertices(self) -> set:
        return {v for v in self.vertices if self.portraits[v][0] == 0}

    def to_record(self) -> dict:
        """JSON-ready dump: vertices, edges, portraits, flags.

        Elements over Q(w) print through the w shorthand, as the tables do.
        """
        style = "w" if self.field == -3 else "sqrt"

        def text(v):
            return format_elem(v, style)

        order = sorted(self.vertices, key=lambda v: v.sort_key())
        flags = admissible_flags(self, self.parameter)
        return {
            "schema": "quaddyn/graph/v1",
            "d": self.field,
            "c": text(self.parameter),
            "n_max": self.n_max_used,
            "complete_for_periods_le": self.n_max_used,
            "vertices": [text(v) for v in order],
            "edges": [[text(v), text(self.succ[v])] for v in order],
            "portraits": {text(v): list(self.portraits[v]) for v in order},
            "cycle_structure": list(cycle_structure(self)),
            "flags": {
                "admissible": flags.admissible,
                "strongly_admissible": flags.strongly_admissible,
                "zero_is_preperiodic": flags.zero_is_preperiodic,
                "c_is_quarter": flags.c_is_quarter,
            },
        }


def _apply(c: QuadElem, v: QuadElem) -> QuadElem:
    return v * v + c


_HEIGHT_BITS = 1000  # preperiodic orbits stay tiny; escape doubles bits per step


def _escaped(v: QuadElem) -> bool:
    return any(
        q.numerator.bit_length() > _HEIGHT_BITS or q.denominator.bit_length() > _HEIGHT_BITS
        for q in (v.a, v.b)
    )


def portrait(c: QuadElem, alpha: QuadElem) -> tuple[int, int]:
    """Minimal (preperiod, eventual period) of alpha under f_c, by iteration."""
    seen = {}
    cur, step = alpha, 0
    while cur not in seen:
        seen[cur] = step
        if step > ORBIT_CAP or _escaped(cur):
            raise RuntimeError(f"orbit of {alpha!r} does not repeat: not preperiodic")
        cur = _apply(c, cur)
        step += 1
    first = seen[cur]
    return first, step - first


def _coerce_param(c: QuadElem, d: int | None) -> QuadElem:
    """c as an element of Q(sqrt(d)); rational parameters adapt to any d."""
    if d is None:
        return c
    normalized = QuadElem(0, 1, d).d
    if c.is_rational():
        return QuadElem(c.a, 0, normalized)
    if c.d != normalized:
        raise ValueError(f"c lives in Q(sqrt({c.d})), not Q(sqrt({d}))")
    return c


def periodic_points(c: QuadElem, d: int | None = None, n_max: int = MAX_PERIOD) -> dict:
    """Map n -> set of K-rational points of exact period n, for n <= n_max."""
    if not 1 <= n_max <= MAX_PERIOD:
        raise ValueError(f"n_max must be in 1..{MAX_PERIOD}, got {n_max}")
    c = _coerce_param(c, d)
    out = {}
    for n in range(1, n_max + 1):
        phi = specialize(symbolic_dynatomic(n), c)
        pts = set()
        for root in roots_in_quadfield(phi):
            m, period = portrait(c, root)
            if m == 0 and period == n:
                pts.add(root)
        out[n] = pts
    return out


def build_graph(c: QuadElem, d: int | None = None, n_max: int = MAX_PERIOD) -> PreperGraph:
    """Assemble G(f_c, K) by backward closure from the periodic points."""
    c = _coerce_param(c, d)
    field_d = c.d
    per = periodic_points(c, None, n_max)
    vertices = set()
    for pts in per.values():
        vertices |= pts
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
    succ = {v: _apply(c, v) for v in vertices}
    portraits = {v: portrait(c, v) for v in vertices}
    return PreperGraph(
        vertices=tuple(sorted(vertices, key=lambda v: v.sort_key())),
        succ=succ,
        portraits=portraits,
        field=field_d,
        parameter=c,
        n_max_used=n_max,
    )


def cycle_structure(graph: PreperGraph) -> tuple[int, ...]:
    """Nondecreasing list of the lengths of the disjoint cycles."""
    lengths = []
    seen = set()
    for v in graph.cycle_vertices():
        if v in seen:
            continue
        cyc = [v]
        cur = graph.succ[v]
        while cur != v:
            cyc.append(cur)
            cur = graph.succ[cur]
        seen |= set(cyc)
        lengths.append(len(cyc))
    return tuple(sorted(lengths))


def admissible_flags(graph: PreperGraph, c: QuadElem) -> AdmissibilityReport:
    """Vertex criterion and structural criterion, required to agree."""
    zero = QuadElem(0, 0, c.d)
    zero_in = zero in set(graph.vertices)
    quarter = c == Fraction(1, 4)

    vertex_admissible = not zero_in
    vertex_strong = vertex_admissible and not quarter

    in_deg = {v: 0 for v in graph.vertices}
    for v in graph.vertices:
        in_deg[graph.succ[v]] = in_deg.get(graph.succ[v], 0) + 1
    degrees_ok = all(in_deg.get(v, 0) in (0, 2) for v in graph.vertices)
    counts = {}
    for length in cycle_structure(graph):
        counts[length] = counts.get(length, 0) + 1
    cycles_ok = all(length == 1 or mult <= dn_rn(length)[1] for length, mult in counts.items())
    structural_admissible = degrees_ok and cycles_ok
    fixed = counts.get(1, 0)
    structural_strong = structural_admissible and fixed in (0, 2)

    if structural_admissible != vertex_admissible or structural_strong != vertex_strong:
        raise RuntimeError(
            "admissibility criteria disagree (bug): "
            f"structural=({structural_admissible},{structural_strong}) "
            f"vertex=({vertex_admissible},{vertex_strong})"
        )
    return AdmissibilityReport(
        admissible=vertex_admissible,
        strongly_admissible=vertex_strong,
        zero_is_preperiodic=zero_in,
        c_is_quarter=quarter,
    )
