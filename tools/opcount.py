"""Count the Python bytecodes that one warm pass of a benchmark workload executes.

    python3 tools/opcount.py --workload graph_n6 --seed 1

Runs from a source checkout.  It sets quaddyn up from src/ as a benchmark
child does (perfbench/child.py), runs one pass of the seeded op list
(perfbench/workloads.py) to warm every cache, then runs the same pass again
under sys.settrace with f_trace_opcodes set and counts the opcode events,
split by the module whose code executed them.  Neither perfbench file is
edited.  Work done in C counts as one bytecode whatever its size, so a count
goes beside wall time, never instead of it.

Prints one quaddyn/opcount/v1 JSON object: the workload, seed, op count,
total, the split by module (largest first), sys.version, the commit and the
src/ line count as perfbench/run.py counts them.  Exit code 0, or 1 when an
op failed in either pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import child  # noqa: E402
from run import git_commit, source_lines  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402


def count_ops(cli, ops: list, cases: dict) -> tuple[Counter, list]:
    """(opcodes per module, records) of one pass over ops, traced."""
    counts = Counter()

    def local(frame, event, _arg):
        if event == "opcode":
            counts[frame.f_globals.get("__name__", "?")] += 1
        return local

    def start(frame, _event, _arg):
        frame.f_trace_opcodes = True
        return local

    # a cyclic collection runs whatever gc callbacks the process holds (a test
    # runner's, say) inside the count, at points that vary from run to run
    previous, collecting = sys.gettrace(), gc.isenabled()
    gc.disable()
    sys.settrace(start)
    try:
        records, _wall = child.run_ops(cli, ops, cases, 1)
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return counts, records


def warm_count(workload: str, ops: list) -> tuple[Counter, list]:
    """Set quaddyn up for the workload, run ops once untraced, then count a second pass."""
    cli = child._import_quaddyn(str(ROOT / "src"))
    child._setup(workload)
    cases = child.jacobian_cases() if any(op["kind"] == "jac" for op in ops) else {}
    warm, _wall = child.run_ops(cli, ops, cases, 1)
    counts, records = count_ops(cli, ops, cases)
    return counts, warm + records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ops = make_ops(args.workload, args.seed)
    counts, records = warm_count(args.workload, ops)
    failed = [ops[r["index"]]["key"] for r in records if r["rc"] != 0]
    for key in failed[:10]:
        print(f"FAIL {key}", file=sys.stderr)
    print(json.dumps({
        "schema": "quaddyn/opcount/v1",
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(ops),
        "total": sum(counts.values()),
        "by_module": dict(counts.most_common()),
        "python": sys.version,
        "commit": git_commit(),
        "src_lines": source_lines(),
    }, indent=2))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
