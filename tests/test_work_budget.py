"""Work budgets: the bytecodes of a set-up and of a warm op sample may not grow.

tools/budgets.json holds, for each benchmark workload at seed 1, the
bytecode counts of tools/opcount.py for one set-up call and for one warm
pass over a fixed sample of ops (the first five ops, then the first op of
each subcommand they miss), and a budget 1% above each.  A count over its
budget fails.  Counts differ between Python versions, so the test runs only
on the version the file names.  Raising a budget is a change to a bound and
is recorded with its reason.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import opcount  # noqa: E402
from workloads import make_ops  # noqa: E402  (opcount puts perfbench/ on the path)

BUDGETS = json.loads((ROOT / "tools" / "budgets.json").read_text())


def subcommand(op: dict) -> tuple:
    """graph, chabauty, curve with its action, or a Jacobian call."""
    argv = op.get("argv") or [op["kind"]]
    return tuple(argv[:3:2]) if argv[0] == "curve" else (argv[0],)


@pytest.fixture(autouse=True)
def same_python():
    if sys.version != BUDGETS["python"]:
        pytest.skip(f"budgets are counted on Python {BUDGETS['python']}, not {sys.version}")


@pytest.mark.parametrize("workload", sorted(BUDGETS["workloads"]))
def test_counts_stay_within_budget(workload):
    budget = BUDGETS["workloads"][workload]
    ops = make_ops(workload, BUDGETS["seed"])
    by_key = {op["key"]: op for op in ops}
    sample = [by_key[key] for key in budget["sample"]]
    assert {subcommand(op) for op in sample} == {subcommand(op) for op in ops}
    counts, records = opcount.warm_count(workload, sample)
    assert all(r["rc"] == 0 for r in records)
    warm, setup = sum(counts.values()), sum(opcount.setup_count(workload).values())
    assert setup <= budget["setup"]["budget"], f"set-up: {setup} bytecodes"
    assert warm <= budget["warm"]["budget"], f"warm pass: {warm} bytecodes"
