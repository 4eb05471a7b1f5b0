"""quaddyn benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload graph_n6 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout (the directory holding src/quaddyn
and BENCHMARK.json).  See perfbench/README.md for workloads and metrics.

--trace 0: set-up-only children (at least two), then one child that runs
whole passes over the seeded op list in a closed loop, as many as take about
--seconds at the nominal pass time; prints the end-to-end metrics.
--trace 1: one untraced and one traced child, each running the op list
once; prints the per-layer metrics and the tracing overhead, and writes the
span dump to .bench_out/.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  Exit code 0 when every op passed the gate, 1 when one
failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from workloads import PASS_SECONDS, WORKLOADS, make_ops, params_per_op  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_SAMPLES = 3  # at least; cheap set-ups are repeated until SETUP_MIN_S is spent
SETUP_MIN_S = 1.0
SETUP_MAX_SAMPLES = 15
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing sources, crashed child)."""


def spawn(job: dict, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one child to completion and return its result object."""
    job = dict(job, src=str(SRC), spawned=time.monotonic())
    proc = subprocess.Popen([sys.executable, "-I", str(CHILD)], cwd=ROOT, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child exceeded {timeout} s") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def gate_records(ops: list, records: list, pins: dict, corrupt_kind: str | None) -> list:
    """One problem list per record (empty when the op passed)."""
    problems = []
    for n, rec in enumerate(records):
        op = ops[rec["index"]]
        if rec["rc"] != 0:
            problems.append([f"exit {rec['rc']}: {rec['error']}"])
            continue
        text = rec["stdout"]
        if corrupt_kind and n == 0:
            text = gate.corrupt(text, corrupt_kind)
            rec["stdout"] = text
        problems.append(gate.check(op, text, pins))
    return problems


def report_failures(ops: list, records: list, problems: list) -> int:
    failed = 0
    for rec, probs in zip(records, problems):
        if probs:
            failed += 1
            if failed <= 10:
                print(f"FAIL {ops[rec['index']]['key']}: {'; '.join(probs)}", file=sys.stderr)
    return failed


def load_pins() -> dict:
    path = HERE / "pins.json"
    return json.loads(path.read_text()) if path.exists() else {}


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def git_commit() -> str:
    """HEAD of the checkout's .git, read directly (the checkout may have none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": git_commit(), "src_lines": source_lines()}


def passes_for(workload: str, seconds: int) -> int:
    """Whole passes that take about `seconds` at the nominal pass time.

    The count depends on --seconds alone, never on the measured speed, so
    every run of a workload does the same work.
    """
    return max(1, round(seconds / PASS_SECONDS[workload]))


def run_untraced(workload: str, ops: list, seconds: int, pins: dict, corrupt_kind) -> dict:
    setups = []
    while len(setups) < SETUP_SAMPLES - 1 or (
            sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_SAMPLES - 1):
        setups.append(spawn({"workload": workload, "mode": "setup"})["setup_s"])
    res = spawn({"workload": workload, "mode": "run", "ops": ops,
                 "passes": passes_for(workload, seconds)})
    setups.append(res["setup_s"])
    records = res["records"]
    problems = gate_records(ops, records, pins, corrupt_kind)
    failed = report_failures(ops, records, problems)
    completed = sum(1 for r in records if r["rc"] == 0)
    params = sum(params_per_op(ops[r["index"]]) for r in records if r["rc"] == 0)
    lat = [r["latency_s"] for r in records]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": 1000 * percentile(lat, 0.5),
        "op_p90_ms": 1000 * percentile(lat, 0.9),
        "ops_per_s": completed / res["wall_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    extra = {
        "fail_frac": failed / len(records),
        "params_per_s": params / res["wall_s"],
        "op_samples": len(lat),
        "op_samples_beyond_p90": sum(1 for x in lat if x > percentile(lat, 0.9)),
        "setup_samples_s": setups,
        "op_wall_s": res["wall_s"],
    }
    return {"attempted": len(records), "failed": failed, "metrics": metrics, "extra": extra}


def run_traced(workload: str, ops: list, pins: dict, per_layer: list, seed: int,
               corrupt_kind) -> dict:
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"spans-{workload}-{seed}.jsonl"
    plain = spawn({"workload": workload, "mode": "run", "ops": ops, "passes": 1})
    traced = spawn({"workload": workload, "mode": "run", "ops": ops, "passes": 1, "trace": True,
                    "metrics": [m for m in per_layer if not m.startswith("trace.")],
                    "dump": str(dump)})
    problems = gate_records(ops, traced["records"], pins, corrupt_kind)
    problems += gate_records(ops, plain["records"], pins, None)
    records = traced["records"] + plain["records"]
    for a, b, probs in zip(traced["records"], plain["records"], problems):
        if a["stdout"] != b["stdout"]:
            probs.append("traced output differs from the untraced output")
    failed = report_failures(ops, records, problems)
    layers = dict(traced["layers"])
    layers["trace.untraced_ops_per_s"] = len(ops) / plain["wall_s"]
    layers["trace.traced_ops_per_s"] = len(ops) / traced["wall_s"]
    layers["trace.slowdown"] = traced["wall_s"] / plain["wall_s"]
    extra = {"fail_frac": failed / len(records), "spans": traced["spans"],
             "dropped_spans": traced["dropped_spans"], "span_dump": str(dump.relative_to(ROOT)),
             "traced_setup_s": traced["setup_s"], "untraced_setup_s": plain["setup_s"]}
    return {"attempted": len(records), "failed": failed, "metrics": layers, "extra": extra}


def run_workload(workload: str, seed: int, seconds: int, trace: bool, bench: dict,
                 corrupt_kind=None) -> dict:
    ops = make_ops(workload, seed)
    pins = load_pins()
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    if trace:
        out = run_traced(workload, ops, pins, [m["name"] for m in specs], seed, corrupt_kind)
    else:
        out = run_untraced(workload, ops, seconds, pins, corrupt_kind)
    units = {m["name"]: m["unit"] for m in specs}
    out["metrics"] = {name: {"value": out["metrics"][name], "unit": units[name]}
                      for name in units}
    out["meta"] = metadata(workload, seed, seconds, trace)
    return out


def print_report(workload: str, out: dict) -> None:
    print(f"== {workload}  {json.dumps(out['meta'], sort_keys=True)}")
    for name, m in out["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for name, value in out["extra"].items():
        print(f"  {name:<44} {value}")
    print(f"  {'attempted / failed':<44} {out['attempted']} / {out['failed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="about this many seconds of ops per run, as whole passes "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=("label", "vertex"), default=None,
                        help="self-test: corrupt the first op's output before the gate")
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "quaddyn" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} holds no src/quaddyn package or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, seconds, bool(args.trace), bench,
                                         args.corrupt)
            print_report(name, results[name])
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        (only,) = results.values()
        metrics = only["metrics"]
        print(json.dumps({"meta": only["meta"]}, sort_keys=True))
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
