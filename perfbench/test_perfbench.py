"""Self-tests for the benchmark: seeding, the output gate, the tracer.

    python3 -m pytest -q perfbench

They import quaddyn from the checkout's src/ and take about half a minute
(one catalog build, one short benchmark run).
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from tracer import COUNTERS, TARGETS, Tracer  # noqa: E402
from workloads import LARGE_PER_FIELD, SMALL_PER_FIELD, WHY, WORKLOADS, make_ops  # noqa: E402


def _cli_output(argv: list) -> str:
    from quaddyn import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


# -- seeding ------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(workload):
    assert make_ops(workload, 7) == make_ops(workload, 7)
    assert make_ops(workload, 7) != make_ops(workload, 8)


def test_graph_ops_cover_witnesses_and_both_heights():
    keys = {op["key"] for op in make_ops("graph_n6", 3)}
    other = {op["key"] for op in make_ops("graph_n6", 4)}
    assert len(keys) == 17 + 7 * (LARGE_PER_FIELD + SMALL_PER_FIELD)
    assert "graph --d -1 --c -1/4 + 3/8*i --json" in keys
    large = {k for k in keys if re.search(r"\d{7}", k)}
    assert len(large) == 7 * LARGE_PER_FIELD and large <= other  # fixed for every seed
    assert len(keys - other) >= 5 * SMALL_PER_FIELD  # the small-height c are not


def test_genus2_starts_cold_and_skips_the_graph_layers():
    ops = make_ops("genus2", 3)
    assert ops[0]["argv"] == ["chabauty", "--json"]
    assert not any(op.get("argv", [""])[0] in ("graph", "survey", "dynatomic") for op in ops)


def test_genus2_cli_ops_do_not_depend_on_the_seed():
    def cli_keys(seed):
        return sorted(op["key"] for op in make_ops("genus2", seed) if op["kind"] == "cli")

    assert cli_keys(3) == cli_keys(4)  # the seed orders them (checked above) and draws nothing


# -- the gate -------------------------------------------------------------------


@pytest.fixture(scope="module")
def witness():
    op = make_ops("graph_n6", 1)
    op = next(o for o in op if o["key"] == "graph --d -1 --c -1/4 + 3/8*i --json")
    return op, _cli_output(op["argv"])


def test_gate_accepts_real_outputs(witness):
    op, text = witness
    assert gate.check(op, text) == []
    survey = {"key": "s", "kind": "cli",
              "argv": ["survey", "--d", "-3", "--height", "1", "--n-max", "2", "--json"]}
    assert gate.check(survey, _cli_output(survey["argv"])) == []
    curve = {"key": "c", "kind": "cli",
             "argv": ["curve", "E40", "structure", "--p", "3", "--deg", "2", "--json"]}
    assert gate.check(curve, _cli_output(curve["argv"])) == []


def test_gate_rejects_a_flipped_label(witness):
    op, text = witness
    assert gate.check(op, gate.corrupt(text, "label"))


def test_gate_rejects_a_dropped_vertex(witness):
    op, text = witness
    assert gate.check(op, gate.corrupt(text, "vertex"))


def test_gate_rejects_a_wrong_edge_and_a_wrong_pinned_structure(witness):
    op, text = witness
    rec = json.loads(text)
    rec["edges"][0][1] = rec["edges"][1][1] if rec["edges"][0][1] != rec["edges"][1][1] \
        else rec["edges"][2][1]
    assert any("v*v + c" in p or "portraits" in p for p in gate.check(op, json.dumps(rec)))
    curve = {"key": "c", "kind": "cli",
             "argv": ["curve", "E40", "structure", "--p", "17", "--deg", "2", "--json"]}
    fake = {"schema": "quaddyn/curve/v1", "curve": "E40", "action": "structure",
            "structure": [4, 80]}
    assert gate.check(curve, json.dumps(fake))


def test_gate_rejects_a_survey_with_a_missing_row():
    op = {"key": "s", "kind": "cli",
          "argv": ["survey", "--d", "-1", "--height", "1", "--n-max", "2", "--json"]}
    text = _cli_output(op["argv"])
    assert gate.check(op, text) == []
    assert gate.check(op, gate.corrupt(text, "vertex"))
    assert gate.check(op, gate.corrupt(text, "label"))


def test_gate_checks_pinned_digests(witness):
    op, text = witness
    rec = json.loads(text)
    pins = {op["key"]: gate.digest(rec)}
    assert gate.check(op, text, pins) == []
    rec["future_field"] = True  # fields added later do not change the digest
    assert gate.check(op, json.dumps(rec), pins) == []
    rec["code"] = rec["code"][::-1]
    assert gate.check(op, json.dumps(rec), pins)


def test_pins_cover_the_default_seed():
    pins = run.load_pins()
    for workload in WORKLOADS:
        for op in make_ops(workload, run.DEFAULT_SEED):
            assert op["key"] in pins, op["key"]


def test_element_parser():
    assert gate.parse_elem("1/2 + w", -3) == (0, gate.Fraction(1, 2))
    assert gate.parse_elem("-3/4 - 5/7*sqrt(5)", 5) == (gate.Fraction(-3, 4), gate.Fraction(-5, 7))
    assert gate.parse_elem("-i", -1) == (0, -1)
    with pytest.raises(ValueError):
        gate.parse_elem("1 + sqrt(2)", 3)


# -- the tracer -------------------------------------------------------------------


def _bindings():
    mods = [m for name, m in sorted(sys.modules.items()) if name.startswith("quaddyn")]
    classes = [v for m in mods for v in vars(m).values() if isinstance(v, type)]
    return {(id(h), k): v for h in mods + classes for k, v in list(vars(h).items())}


def test_tracer_restores_every_binding_and_keeps_outputs():
    import quaddyn.chabauty  # noqa: F401
    import quaddyn.cli  # noqa: F401
    import quaddyn.jacobian  # noqa: F401

    argv = ["graph", "--d", "-3", "--c", "-5/12", "--n-max", "4", "--json"]
    plain = _cli_output(argv)
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        traced = _cli_output(argv)
    finally:
        tracer.restore()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert traced == plain
    assert tracer.metric("cli.main.calls") == 1
    assert tracer.metric("dynatomic.dynatomic.calls") == 4
    assert tracer.metric("orbit.vertices") == 8
    assert 0 < tracer.metric("orbit.period_yield") <= 1
    main = tracer.stats["cli.main"]
    assert 0 < main[2] <= main[1]


def test_per_layer_names_are_all_measurable():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = {name for _m, _p, name in TARGETS}
    for metric in bench["per_layer"]:
        name = metric["name"]
        if name.startswith("trace.") or name in COUNTERS:
            continue
        span, stat = name.rsplit(".", 1)
        assert span in spans and stat in ("calls", "s", "self_s"), name
    assert all(w["why"] == WHY[w["name"]] for w in bench["workloads"])


# -- the command ----------------------------------------------------------------------


def test_command_fails_on_a_corrupted_output():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "genus2", "--seconds", "1",
         "--corrupt", "label"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "verdict" in proc.stderr
