"""Spans around the public functions of each quaddyn layer, installed from outside.

`Tracer.install()` wraps each target function or method and puts the
wrapper at every place the original is looked up: the defining module, every
quaddyn module that imported it by name (`orbit.dynatomic`,
`cli.build_graph`, ...) and class aliases (`UniPoly.__rmul__`).
`Tracer.restore()` puts the originals back.

Every wrapped call updates per-name aggregates: calls, inclusive time
(counted once for recursive calls) and self time (duration minus the time
covered by wrapped calls made inside it).  Calls of non-hot names also
append one span record (id, parent span, name, op id, start, end); hot names
are the per-element methods called up to millions of times per run, kept as
aggregates only.  Spans stay in memory until `dump()`.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, span name)
TARGETS = (
    ("cli", "main", "cli.main"),
    ("quadfield", "parse_elem", "quadfield.parse_elem"),
    ("quadfield", "format_elem", "quadfield.format_elem"),
    ("quadfield", "quad_sqrt", "quadfield.quad_sqrt"),
    ("polys", "UniPoly.__mul__", "polys.UniPoly.mul"),
    ("polys", "UniPoly.divrem", "polys.UniPoly.divrem"),
    ("polys", "UniPoly.eval", "polys.UniPoly.eval"),
    ("dynatomic", "dynatomic", "dynatomic.dynatomic"),
    ("dynatomic", "specialize", "dynatomic.specialize"),
    ("factor", "roots_in_quadfield", "factor.roots_in_quadfield"),
    ("factor", "low_degree_rational_factors", "factor.low_degree_rational_factors"),
    ("orbit", "build_graph", "orbit.build_graph"),
    ("orbit", "periodic_points", "orbit.periodic_points"),
    ("orbit", "portrait", "orbit.portrait"),
    ("graphcat", "builtin_catalog", "graphcat.builtin_catalog"),
    ("graphcat", "canonical_code", "graphcat.canonical_code"),
    ("graphcat", "classify", "graphcat.classify"),
    ("curves", "load_registry", "curves.load_registry"),
    ("curves", "elliptic_group_structure", "curves.elliptic_group_structure"),
    ("curves", "elliptic_count", "curves.elliptic_count"),
    ("curves", "count_points_ff", "curves.count_points_ff"),
    ("curves", "jacobian_orders", "curves.jacobian_orders"),
    ("curves", "torsion_bound", "curves.torsion_bound"),
    ("jacobian", "DivClass.__add__", "jacobian.DivClass.add"),
    ("jacobian", "point_order", "jacobian.point_order"),
    ("jacobian", "order3_certify", "jacobian.order3_certify"),
    ("jacobian", "rebase_at", "jacobian.rebase_at"),
    ("chabauty", "expand_differentials", "chabauty.expand_differentials"),
    ("chabauty", "integrate", "chabauty.integrate"),
    ("chabauty", "kernel_generators", "chabauty.kernel_generators"),
    ("chabauty", "eval_lambda", "chabauty.eval_lambda"),
    ("chabauty", "annihilator_solve", "chabauty.annihilator_solve"),
    ("chabauty", "disk_series", "chabauty.disk_series"),
    ("chabauty", "certify_disk", "chabauty.certify_disk"),
    ("chabauty", "full_theorem", "chabauty.full_theorem"),
)

HOT = frozenset({
    "polys.UniPoly.mul", "polys.UniPoly.divrem", "polys.UniPoly.eval",
    "quadfield.parse_elem", "quadfield.format_elem", "quadfield.quad_sqrt",
    "orbit.portrait", "jacobian.DivClass.add",
})

COUNTERS = ("factor.roots_in_quadfield.in_degree", "orbit.vertices", "orbit.period_yield",
            "curves.field_elements", "chabauty.escalations")

MAX_SPANS = 300_000


def _field_size(args, kwargs) -> int:
    """q = p**deg for the (curve, p, deg=1) signatures of the curves layer."""
    p = args[1] if len(args) > 1 else kwargs["p"]
    deg = args[2] if len(args) > 2 else kwargs.get("deg", 1)
    return p**deg


class Tracer:
    def __init__(self):
        self.op = "setup"
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, s, self_s
        self.depth = defaultdict(int)
        self.counts = defaultdict(int)
        self.frames = []  # [child seconds] per active wrapped call
        self.open_spans = []  # ids of the active recorded spans
        self.spans = []
        self.dropped = 0
        self.t0 = perf_counter()
        self._patched = []
        self._disk_calls = defaultdict(int)

    # -- hooks that turn arguments and results into counts ---------------------

    def _after(self, name, args, kwargs, result):
        counts = self.counts
        if name == "factor.roots_in_quadfield":
            counts["roots_in_degree"] += args[0].degree()
            if self.depth["orbit.periodic_points"]:
                counts["period_roots"] += len(result)
        elif name == "orbit.periodic_points":
            counts["period_kept"] += sum(len(pts) for pts in result.values())
        elif name == "orbit.build_graph":
            counts["vertices"] += result.size()
        elif name in ("curves.count_points_ff", "curves.elliptic_count",
                      "curves.elliptic_group_structure"):
            counts["field_elements"] += _field_size(args, kwargs)
        elif name == "chabauty.disk_series" and self.depth["chabauty.full_theorem"]:
            disk = args[0] if args else kwargs["disk"]
            run = self.stats["chabauty.full_theorem"][0]
            self._disk_calls[(run, disk)] += 1
            if self._disk_calls[(run, disk)] > 1:
                counts["escalations"] += 1

    def counter_values(self) -> dict:
        c = self.counts
        return {
            "factor.roots_in_quadfield.in_degree": c["roots_in_degree"],
            "orbit.vertices": c["vertices"],
            "orbit.period_yield": c["period_kept"] / c["period_roots"] if c["period_roots"] else 0.0,
            "curves.field_elements": c["field_elements"],
            "chabauty.escalations": c["escalations"],
        }

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        stat = self.stats[name]
        depth = self.depth
        frames = self.frames
        open_spans = self.open_spans
        spans = self.spans
        record = name not in HOT

        def traced(*args, **kwargs):
            frame = [0.0]
            span_id = None
            if record:
                if len(spans) < MAX_SPANS:
                    span_id = len(spans)
                    spans.append(None)
                    open_spans.append(span_id)
                else:
                    tracer.dropped += 1
            depth[name] += 1
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                duration = end - start
                stat[0] += 1
                stat[2] += duration - frame[0]
                depth[name] -= 1
                if not depth[name]:
                    stat[1] += duration
                if frames:
                    frames[-1][0] += duration
                if span_id is not None:
                    open_spans.pop()
                    parent = open_spans[-1] if open_spans else None
                    spans[span_id] = (span_id, parent, name, tracer.op,
                                      start - tracer.t0, end - tracer.t0)
            tracer._after(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, package: str = "quaddyn") -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for module_name, path, name in TARGETS:
            owner = sys.modules[f"{package}.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            holders = modules if not outer else [owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def restore(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    # -- results ---------------------------------------------------------------

    def metric(self, name: str):
        """A per-layer metric by name: <span>.{calls,s,self_s} or a counter."""
        counters = self.counter_values()
        if name in counters:
            return counters[name]
        span, stat = name.rsplit(".", 1)
        index = {"calls": 0, "s": 1, "self_s": 2}[stat]
        return self.stats[span][index] if span in self.stats else 0

    def dump(self, path: str) -> None:
        """JSON lines: one header, then one object per recorded span."""
        with open(path, "w") as fh:
            header = {
                "stats": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                          for k, v in sorted(self.stats.items())},
                "counters": self.counter_values(),
                "spans": len(self.spans),
                "dropped_spans": self.dropped,
            }
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                if span is None:  # still open: an exception escaped the op loop
                    continue
                sid, parent, name, op, start, end = span
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "op": op,
                                     "start": round(start, 9), "end": round(end, 9)}) + "\n")
