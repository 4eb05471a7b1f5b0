"""One benchmark child process: set up quaddyn, run ops, report.

Reads one JSON job from stdin and writes one JSON result line to stdout.
Started by run.py; not meant to be run by hand.  Job keys:

    src       directory holding the quaddyn package under test
    workload  selects the set-up (catalog build or curve registry)
    spawned   time.monotonic() just before the parent started this process
    mode      "setup" (stop when ready) or "run"
    ops, passes (whole passes over ops), trace (bool), metrics (per-layer
    names), dump (span file)
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction


def _import_quaddyn(src: str):
    sys.path.insert(0, src)
    import quaddyn.cli

    here = os.path.realpath(os.path.join(src, "quaddyn"))
    if os.path.dirname(os.path.realpath(quaddyn.cli.__file__)) != here:
        raise RuntimeError(f"imported quaddyn from {quaddyn.cli.__file__}, not {here}")
    return quaddyn.cli


def _setup(workload: str) -> None:
    """The start-up a user's first command pays."""
    if workload == "genus2":
        from quaddyn.curves import load_registry

        load_registry()
    else:
        from quaddyn.graphcat import builtin_catalog

        builtin_catalog()


def jacobian_cases() -> dict:
    """case name -> callable(bound) making one quaddyn.jacobian call.

    The models and divisors are the acceptance-gate ones; they are built
    here, outside the timed op.
    """
    from quaddyn import jacobian
    from quaddyn.curves import get_curve
    from quaddyn.polys import QuadField
    from quaddyn.quadfield import QuadElem

    f113 = get_curve("X1_1_3").curve.f
    m18 = jacobian.JacModel(f113)
    m18w = jacobian.JacModel(f113.map_coeffs(QuadField(-3), lambda q: QuadElem(q, 0, -3)))
    w = QuadElem(Fraction(-1, 2), Fraction(1, 2), -3)
    t1, t2 = -2 * (w + 1), -2 * (w * w + 1)
    m05 = jacobian.JacModel(get_curve("X0_5").curve.f.map_coeffs(
        QuadField(-1), lambda q: QuadElem(q, 0, -1)))
    X = m05.x
    d2 = m05.from_mumford(X * X + m05.const(3) * X + m05.const(Fraction(1, 2)),
                          m05.const(QuadElem(0, Fraction(1, 2), -1)) * X)
    d3 = m05.from_mumford(
        X * X + m05.const(3) * X + m05.const(QuadElem(1, -1, -1)),
        m05.const(QuadElem(-1, -1, -1)) * X + m05.const(QuadElem(-2, -1, -1)))
    mix = 19 * d3 - 9 * d2
    base = (QuadElem(0, 0, -1), QuadElem(-1, 0, -1))
    inf = m18.from_points("inf-", "inf-")
    return {
        "order21": lambda bound: jacobian.point_order(inf, bound),
        "order3_q": lambda _b: jacobian.order3_certify(m18, Fraction(-1), Fraction(1)),
        "order3_w1": lambda _b: jacobian.order3_certify(m18w, t1, w),
        "order3_w2": lambda _b: jacobian.order3_certify(m18w, t2, w * w),
        "rebase_d2": lambda _b: jacobian.rebase_at(d2, *base),
        "rebase_mix": lambda _b: jacobian.rebase_at(mix, *base),
    }


def _jacobian_text(case: str, value) -> str:
    """The result as JSON, coefficients as [a, b] strings of a + b*sqrt(d)."""
    if isinstance(value, tuple):
        value = [[[str(c.a), str(c.b)] for c in poly.coeffs] for poly in value]
    return json.dumps({"schema": "perfbench/jacobian/v1", "case": case, "value": value},
                      sort_keys=True)


def run_ops(cli, ops: list, cases: dict, passes: int, tracer=None) -> tuple[list, float]:
    """Closed loop, one client: each op starts when the previous one returns.

    Runs `passes` whole passes over `ops`, so every run does the same work.
    """
    records = []
    started = time.perf_counter()
    for k in range(passes * len(ops)):
        index = k % len(ops)
        op = ops[index]
        if tracer is not None:
            tracer.op = f"{k}:{op['key']}"
        out, err = io.StringIO(), io.StringIO()
        rc, value, error = None, None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if op["kind"] == "cli":
                    rc = cli.main(list(op["argv"]))
                else:
                    value = cases[op["case"]](op["bound"])
                    rc = 0
        except Exception as exc:  # an op failure is recorded and the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        text = out.getvalue() if op["kind"] == "cli" else (
            _jacobian_text(op["case"], value) if error is None else "")
        records.append({"index": index, "latency_s": latency, "rc": rc, "stdout": text,
                        "error": error or err.getvalue().strip() or None})
    if tracer is not None:
        tracer.op = "teardown"
    return records, time.perf_counter() - started


def main() -> int:
    job = json.loads(sys.stdin.read())
    cli = _import_quaddyn(job["src"])
    tracer = None
    if job.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import quaddyn.chabauty  # noqa: F401  (imported lazily by the CLI; wrapped up front)
        import quaddyn.jacobian  # noqa: F401
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    _setup(job["workload"])
    result = {"setup_s": time.monotonic() - job["spawned"]}
    if job["mode"] != "setup":
        cases = {}
        if any(op["kind"] == "jac" for op in job["ops"]):
            if tracer is not None:  # building the test divisors is not an op
                tracer.restore()
            cases = jacobian_cases()
            if tracer is not None:
                tracer.install()
        records, wall = run_ops(cli, job["ops"], cases, job["passes"], tracer)
        result.update(records=records, wall_s=wall)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.restore()
        result["layers"] = {name: tracer.metric(name) for name in job["metrics"]}
        result["spans"] = len(tracer.spans)
        result["dropped_spans"] = tracer.dropped
        if job.get("dump"):
            tracer.dump(job["dump"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
