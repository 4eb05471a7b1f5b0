import json

import pytest

from quaddyn.cli import QI_LABELS, QW_LABELS, main
from quaddyn.chabauty import full_theorem, transcript
from quaddyn.graphcat import classify, load_catalog
from quaddyn.orbit import build_graph
from quaddyn.quadfield import parse_elem


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_height_four_sweep_over_qi_has_no_four_cycle(capsys):
    code, record = run_json(
        capsys, "survey", "--d", "-1", "--height", "4", "--n-max", "4", "--json"
    )
    assert code == 0
    labels = {row["label"] for row in record["rows"]}
    assert labels <= QI_LABELS
    assert not any("4" in label.split("(")[1] for label in labels if "(" in label)
    assert record["flagged"] == []


def test_height_four_sweep_over_qw_within_list(capsys):
    code, record = run_json(
        capsys, "survey", "--d", "-3", "--height", "4", "--n-max", "4", "--json"
    )
    assert code == 0
    labels = {row["label"] for row in record["rows"]}
    assert labels <= QW_LABELS | {lab for lab in labels if lab.endswith("?")}
    assert record["flagged"] == []


def test_parallel_survey_matches_sequential(capsys):
    code, seq = run_json(capsys, "survey", "--d", "-1", "--height", "1", "--n-max", "3", "--json")
    assert code == 0
    code, par = run_json(
        capsys, "survey", "--d", "-1", "--height", "1", "--n-max", "3",
        "--jobs", "2", "--json",
    )
    assert code == 0 and par == seq


@pytest.mark.parametrize("d", ["-3", "-4"])
def test_parallel_survey_matches_sequential_at_height_three(capsys, d):
    """Byte for byte, text and JSON; d = -4 names Q(i) with b scaled by 2."""
    argv = ["survey", "--d", d, "--height", "3", "--n-max", "4"]
    for mode in ([], ["--json"]):
        outputs = []
        for jobs in ([], ["--jobs", "2"]):
            code = main(argv + mode + jobs)
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_catalog_override(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([
        {"label": "two-cycle-with-tail", "d": -1, "c": "-1", "vertices": 3},
    ]))
    catalog = load_catalog(str(path))
    graph = build_graph(parse_elem("-1", -1), -1, 3)
    assert classify(graph, catalog) == "two-cycle-with-tail"
    code = main(["graph", "--d", "-1", "--c", "-1", "--catalog", str(path), "--json"])
    record = json.loads(capsys.readouterr().out)
    assert code == 0 and record["label"] == "two-cycle-with-tail"


def test_transcript_narrative():
    report = full_theorem()
    text = transcript(report)
    assert "Lambda_1(E1) = 0 + 30 i" in text
    assert "M1 = 2 ReL1 + 7 ReL2" in text
    assert "X0(5)(Q(i)) = {(0,+/-1), (-3,+/-1), inf+, inf-}" in text
    for disk in ("P0", "P1", "P2", "P3", "P4", "P5"):
        assert f"{disk}: classes" in text
