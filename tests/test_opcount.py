"""tools/opcount.py counts the same bytecodes every time it counts the same warm ops.

A count is a measurement, not a bound: no count value is pinned here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import opcount  # noqa: E402
from workloads import make_ops  # noqa: E402  (opcount puts perfbench/ on the path)


@pytest.mark.parametrize("workload", ["graph_n6", "genus2"])
def test_a_warm_count_repeats_exactly(workload):
    ops = make_ops(workload, 1)[:5]
    first, records = opcount.warm_count(workload, ops)
    second, again = opcount.warm_count(workload, ops)
    assert all(r["rc"] == 0 for r in records + again)
    assert first == second and sum(first.values()) > 0
    assert [r["stdout"] for r in records] == [r["stdout"] for r in again]


@pytest.mark.parametrize("workload", ["graph_n6", "genus2"])
def test_a_set_up_count_repeats_exactly(workload):
    first, second = opcount.setup_count(workload), opcount.setup_count(workload)
    assert first == second and sum(first.values()) > 0
