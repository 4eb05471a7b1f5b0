import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quaddyn
from quaddyn.chabauty import full_theorem
from quaddyn.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_graph_label(capsys):
    code, out, _ = run(capsys, "graph", "--d", "-1", "--c", "-1")
    assert code == 0 and "label 3(2)" in out


def test_graph_negative_fraction_parameter(capsys):
    code, out, _ = run(capsys, "graph", "--d", "-3", "--c", "-5/12")
    assert code == 0 and "label 8(2)a" in out


def test_graph_parenthesized_parameter(capsys):
    code, out, _ = run(capsys, "graph", "--d", "-1", "--c", "( -1/4 ) + (3/8)*i", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["label"] == "10(2,1,1)a"
    assert record["schema"] == "quaddyn/graph/v1"
    assert len(record["vertices"]) == 10


def test_graph_json_round_trip_and_determinism(capsys):
    code, out1, _ = run(capsys, "graph", "--d", "-1", "--c", "i", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "graph", "--d", "-1", "--c", "i", "--json")
    assert out1 == out2
    record = json.loads(out1)
    assert record == json.loads(json.dumps(record))
    assert record["label"] == "5(2)a"


def test_graph_dot_output(capsys):
    code, out, _ = run(capsys, "graph", "--d", "-1", "--c", "-1", "--dot")
    assert code == 0
    assert out.startswith("digraph G {")
    assert out.count("->") == 3


def test_graph_bad_syntax_is_usage_error(capsys):
    code, _, err = run(capsys, "graph", "--d", "-1", "--c", "1 +")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("c", ["1/0", "1 / 0", "-3/00 + i", "i / (i - i)"])
def test_zero_denominator_is_a_readable_usage_error(capsys, c):
    code, out, err = run(capsys, "graph", "--d", "-1", "--c", c)
    assert code == 1 and out == ""
    assert err == "error: division by zero\n" and "Fraction(" not in err


DEEP = "error: bad field-element syntax: nested more than 100 deep\n"


@pytest.mark.parametrize("argv, message", [
    (("graph", "--d", "-1", "--c", "0", "--n-max", "-3"), "n_max must be in 1..6"),
    (("graph", "--d", "-1", "--c", "0", "--n-max", "0"), "n_max must be in 1..6"),
    (("graph", "--d", "-1", "--c", "0", "--n-max", "7"), "n_max must be in 1..6"),
    (("survey", "--d", "-1", "--height", "1", "--n-max", "0"), "n_max must be in 1..6"),
    (("curve", "X0_5", "count", "--p", "1"), "1 is not prime"),
    (("curve", "X0_5", "jacobian", "--p", "9"), "9 is not prime"),
    (("curve", "E17", "count", "--p", "1"), "1 is not prime"),
    (("curve", "E17", "torsion-bound", "--primes", "3,4"), "4 is not prime"),
    (("survey", "--d", "-1", "--height", "0"), "height must be >= 1, got 0"),
    (("survey", "--d", "-1", "--height", "-2"), "height must be >= 1, got -2"),
    (("survey", "--d", "-1", "--height", "1", "--jobs", "0"), "jobs must be >= 1, got 0"),
    (("survey", "--d", "-1", "--height", "1", "--jobs", "-1"), "jobs must be >= 1, got -1"),
    (("graph", "--d", "-1", "--c", "0", "--catalog", "/nonexistent.json"),
     "error: cannot read catalog /nonexistent.json"),
    (("survey", "--d", "-1", "--height", "1", "--catalog", "/nonexistent.json"),
     "error: cannot read catalog /nonexistent.json"),
    (("chabauty", "--prec", "-1"), "error: prec must be >= 1, got -1"),
    (("chabauty", "--prec", "0"), "error: prec must be >= 1, got 0"),
    (("dynatomic", "--n", "0"), "period must be in 1..6"),
    (("dynatomic", "--n", "7"), "period must be in 1..6"),
    (("curve", "E17", "jacobian", "--p", "3"), "error: jacobian_orders requires a genus-2 curve"),
    (("curve", "E17", "count", "--p", "1000003"), "error: q = 1000003 exceeds the enumeration limit"),
    (("curve", "X0_5", "jacobian", "--p", "3", "--deg", "2"),
     "error: --deg is not used by the jacobian action"),
    (("curve", "X0_5", "count", "--primes", "5,7"), "error: --primes is not used by the count action"),
    (("curve", "X0_5", "genus", "--p", "5"), "error: --p is not used by the genus action"),
    (("curve", "E17", "structure", "--primes", "3,5"),
     "error: --primes is not used by the structure action"),
    (("curve", "X1_4", "torsion-bound", "--p", "5"), "error: --p is not used by the torsion-bound action"),
    (("graph", "--d", "1000000000001", "--c", "0"), "error: |d| must be at most 10^12, got 1000000000001"),
    (("graph", "--d", "-1000000000001", "--c", "0"),
     "error: |d| must be at most 10^12, got -1000000000001"),
    (("graph", "--d", "100000000000000000039", "--c", "0"), "error: |d| must be at most 10^12"),
    (("survey", "--d", "1000000000001", "--height", "1"), "error: |d| must be at most 10^12"),
    (("survey", "--d", "-1000000000001", "--height", "1"), "error: |d| must be at most 10^12"),
    (("dynatomic", "--n", "2", "--d", "1000000000001", "--c", "1"), "error: |d| must be at most 10^12"),
    (("dynatomic", "--n", "2", "--d", "-1000000000001"), "error: |d| must be at most 10^12"),
    (("chabauty", "--prec", "13"), "error: prec must be <= 12, got 13"),
    (("curve", "E17", "structure", "--p", "1000000000000000003"),
     "error: field too large for full group enumeration"),
    (("dynatomic", "--n", "6", "--m", "3"),
     "error: output degree d_n 2^(m-1) = 54*2^2 exceeds 108 for the symbolic form"),
    (("dynatomic", "--n", "2", "--m", "7"),
     "error: output degree d_n 2^(m-1) = 2*2^6 exceeds 108 for the symbolic form"),
    (("dynatomic", "--n", "6", "--m", "5", "--c", "1/3+i"),
     "error: output degree d_n 2^(m-1) = 54*2^4 exceeds 432 for the specialized form"),
    (("dynatomic", "--n", "1", "--m", "1000000000000"),
     "error: output degree d_n 2^(m-1) = 2*2^999999999999 exceeds 108 for the symbolic form"),
    (("curve", "X0_5", "torsion-bound", "--primes", "3,x"),
     "error: --primes must be comma-separated integers, got '3,x'\n"),
    (("curve", "X0_5", "torsion-bound", "--primes", ""),
     "error: --primes must be comma-separated integers, got ''\n"),
    (("curve", "X0_5", "torsion-bound", "--primes", "3,,5"),
     "error: --primes must be comma-separated integers, got '3,,5'\n"),
    (("chabauty", "--disk", "P0", "--out", "/nonexistent-quaddyn/x.json"),
     "error: cannot write /nonexistent-quaddyn/x.json: No such file or directory\n"),
    (("graph", "--d", "-1", "--c", "sqrt(10000000000000000000000000000000000007)"),
     "error: sqrt() argument must be at most 10^12 in absolute value, got "
     "10000000000000000000000000000000000007\n"),
    (("graph", "--d", "-1", "--c", "1 + sqrt(-1000000000001)"),
     "error: sqrt() argument must be at most 10^12 in absolute value, got -1000000000001\n"),
    (("dynatomic", "--n", "2", "--d", "-1", "--c", "sqrt(10000000000000000000000000000000000007)"),
     "error: sqrt() argument must be at most 10^12 in absolute value"),
    (("graph", "--d", "-1", "--c", "sqrt()"), "error: bad field-element syntax: unexpected ')'\n"),
    (("graph", "--d", "-1", "--c", ")"), "error: bad field-element syntax: unexpected ')'\n"),
    (("graph", "--d", "-1", "--c", "*i"), "error: bad field-element syntax: unexpected '*'\n"),
    (("graph", "--d", "-1", "--c", "((1)"),
     "error: bad field-element syntax: expected ')', got end of input\n"),
    (("graph", "--d", "-1", "--c", "1 +"), "error: bad field-element syntax: unexpected end of input\n"),
    (("graph", "--d", "-1", "--c", "1 2"), "error: bad field-element syntax: unexpected '2'\n"),
    (("dynatomic", "--n", "2", "--d", "-1", "--c", "sqrt(2"),
     "error: bad field-element syntax: expected ')', got end of input\n"),
    (("graph", "--d", "-1", "--c", "(" * 10000 + "1" + ")" * 10000), DEEP),
    (("dynatomic", "--n", "2", "--d", "-1", "--c", "(" * 10000 + "1" + ")" * 10000), DEEP),
    (("graph", "--d", "-1", "--c", "-" * 10000 + "1"), DEEP),
    (("survey", "--d", "-1", "--height", "1", "--jobs", "1000000"), "error: jobs must be at most"),
    (("survey", "--d", "-1", "--height", "100000"), "error: height must be at most"),
    (("dynatomic", "--n", "3", "--c", "i", "--d", "0"),
     "error: d = 0 is a perfect square (or zero); not a quadratic field\n"),
    (("graph", "--d", "4", "--c", "i"), "error: d = 4 is a perfect square (or zero); not a quadratic field\n"),
    (("graph", "--d", "9", "--c", "1 + sqrt(2)"),
     "error: d = 9 is a perfect square (or zero); not a quadratic field\n"),
    (("graph", "--d", "2", "--c", "i"), "error: element lives in Q(sqrt(-1)), not Q(sqrt(2))\n"),
    (("graph", "--d", "-1", "--c", "sqrt(i)"), "error: sqrt() argument must be rational\n"),
    (("graph", "--d", "-1", "--c", "sqrt(1/2)"), "error: sqrt() argument must be an integer\n"),
    (("graph", "--d", "0", "--c", "2"), "error: d = 0 is a perfect square (or zero); not a quadratic field\n"),
    (("survey", "--d", "9", "--height", "1"),
     "error: d = 9 is a perfect square (or zero); not a quadratic field\n"),
    (("dynatomic", "--n", "2", "--d", "4", "--c", "1"),
     "error: d = 4 is a perfect square (or zero); not a quadratic field\n"),
    (("curve", "X0_5", "torsion-bound", "--primes", "-3,5"), "expected one argument"),
    (("graph", "--d", "1.5", "--c", "1"), "invalid int value: '1.5'"),
    (("curve", "X0_5", "count", "--deg", "3"), "invalid choice: 3"),
    (("graph", "--d", "-1"), "the following arguments are required: --c"),
    (("graph", "--d", "-1", "--c", "0", "--json=1"), "ignored explicit argument '1'"),
    (("chabauty", "--disk", "P9"), "invalid choice: 'P9'"),
])
def test_out_of_domain_input_exits_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert message in err and "bad reduction" not in err


def test_chabauty_at_prec_10(capsys):
    code, out, _ = run(capsys, "chabauty", "--prec", "10", "--json")
    record = json.loads(out)
    assert code == 0 and record["verdict"] is True
    expected = {"P0": [[0, 0], [6, 2]], "P2": [[0, 0], [5, 3]], "P4": [[0, 0]]}
    for disk, classes in expected.items():
        assert record["disks"][disk]["solution_classes"] == classes
        assert record["disks"][disk]["series_precision_bits"] == 9


def test_chabauty_at_prec_12(capsys):
    code, out, _ = run(capsys, "chabauty", "--prec", "12", "--json")
    record = json.loads(out)
    assert code == 0 and record["verdict"] is True
    assert record["annihilators"] == [[2, 0, 647, 0], [0, 1, 0, 1901]]
    expected = {"P0": [[0, 0], [6, 2]], "P2": [[0, 0], [5, 3]], "P4": [[0, 0]]}
    for disk, classes in expected.items():
        assert record["disks"][disk]["solution_classes"] == classes
        assert record["disks"][disk]["series_precision_bits"] == 11


@pytest.mark.parametrize("d, c, label", [
    ("-1000000000000", "-1", "3(2)"),  # d = -10^12 names Q(i)
    ("999999999989", "-2", "5(1,1)a"),
    ("-999999999989", "0", "3(1,1)?"),
])
def test_d_up_to_the_bound_is_accepted(capsys, d, c, label):
    code, out, err = run(capsys, "graph", "--d", d, "--c", c)
    assert code == 0 and err == "" and f"label {label}," in out


@pytest.mark.parametrize("key", ["label", "d", "c"])
def test_catalog_row_without_a_key_exits_1(tmp_path, capsys, key):
    row = {"label": "3(2)", "d": -1, "c": "-1", "vertices": 3}
    del row[key]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([row]))
    code, out, err = run(capsys, "graph", "--d", "-1", "--c", "0", "--catalog", str(path))
    assert code == 1 and out == ""
    assert err == f"error: catalog row without {key!r}: {path}\n"


@pytest.mark.parametrize("content, message", [
    ({"label": "3(2)", "d": -1, "c": "-1"}, "catalog is not a list of objects"),
    ([["3(2)", -1, "-1"]], "catalog is not a list of objects"),
    ([{"label": "3(2)", "d": "-1", "c": "-1"}], "catalog row with a non-int 'd'"),
    ([{"label": "3(2)", "d": -1, "c": -1}], "catalog row with a non-str 'c'"),
    ([{"label": "3(2)", "d": True, "c": "-1"}], "catalog row with a non-int 'd'"),
    ([{"label": 3, "d": -1, "c": "-1"}], "catalog row with a non-str 'label'"),
    ([{"label": "3(2)", "d": -1, "c": "-1", "vertices": "3"}], "catalog row with a non-int 'vertices'"),
    ([{"label": "3(2)", "d": 10**20 + 39, "c": "-1"}], "catalog row with |d| above 10^12"),
    ([{"label": "3(2)", "d": -(10**12 + 1), "c": "-1"}], "catalog row with |d| above 10^12"),
    ([{"label": "0", "d": -1, "c": "2"}, {"label": "0b", "d": -1, "c": "3"}],
     "catalog integrity failure: duplicate canonical codes"),
    ([{"label": "3(2)", "d": -1, "c": "-1", "vertices": 4}],
     "catalog integrity failure: witness 3(2) gave 3 vertices, expected 4"),
    ([{"label": "0", "d": -1, "c": "1*"}],
     "catalog integrity failure: bad field-element syntax: unexpected end of input"),
    ([{"label": "0", "d": -1, "c": "1/0"}], "catalog integrity failure: division by zero"),
    ([{"label": "0", "d": 4, "c": "1"}],
     "catalog integrity failure: d = 4 is a perfect square (or zero); not a quadratic field"),
    ([{"label": "0", "d": -1, "c": "(" * 10000 + "0" + ")" * 10000}],
     "catalog integrity failure: bad field-element syntax: nested more than 100 deep"),
])
def test_catalog_of_the_wrong_shape_exits_1(tmp_path, capsys, content, message):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, "graph", "--d", "-1", "--c", "0", "--catalog", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {message}: {path}\n"


@pytest.mark.parametrize("c, message", [
    ("sqrt(10000000000000000000000000000000000007)",
     "sqrt() argument must be at most 10^12 in absolute value"),
    ("*i", "bad field-element syntax: unexpected '*'"),
])
def test_catalog_witness_that_does_not_parse_exits_1(tmp_path, capsys, c, message):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([{"label": "0", "d": -1, "c": c}]))
    code, out, err = run(capsys, "graph", "--d", "-1", "--c", "0", "--catalog", str(path))
    assert code == 1 and out == ""
    assert message in err and "Fraction" not in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_survey_with_a_catalog_that_fails_its_checks_exits_1(tmp_path, capsys, jobs):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([{"label": "3(2)", "d": -1, "c": "-1", "vertices": 4}]))
    code, out, err = run(capsys, "survey", "--d", "-1", "--height", "1", "--jobs", jobs,
                         "--catalog", str(path))
    assert code == 1 and out == ""
    assert err == ("error: catalog integrity failure: witness 3(2) gave 3 vertices, "
                   f"expected 4: {path}\n")


def test_catalog_that_is_not_json_exits_1(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    path.write_text('[{"label": "3(2)", "d": -1,')
    code, out, err = run(capsys, "graph", "--d", "-1", "--c", "0", "--catalog", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: catalog {path} is not valid JSON: ") and err.count("\n") == 1


def test_dynatomic_text_and_json(capsys):
    code, out, _ = run(capsys, "dynatomic", "--n", "2")
    assert code == 0 and out.strip() == "1 + c + x + x^2"
    code, out, _ = run(capsys, "dynatomic", "--n", "1", "--m", "1", "--json")
    record = json.loads(out)
    assert record["coefficients"] == ["c", "1", "1"]
    assert record["d_n"] == 2 and record["r_n"] == 2
    code, out, _ = run(capsys, "dynatomic", "--n", "2", "--c", "i", "--json")
    record = json.loads(out)
    assert record["coefficients"] == ["1 + i", "1", "1"]


def test_curve_commands(capsys):
    code, out, _ = run(capsys, "curve", "X0_5", "jacobian", "--p", "5", "--json")
    record = json.loads(out)
    assert code == 0 and record["order_p2"] == 1189 and record["order_p"] == 41
    code, out, _ = run(capsys, "curve", "X1_13", "torsion-bound", "--primes", "3,5", "--json")
    assert json.loads(out)["bound"] == 19
    code, out, _ = run(capsys, "curve", "E17", "structure", "--p", "3", "--deg", "2", "--json")
    assert json.loads(out)["structure"] == [4, 4]
    code, out, _ = run(capsys, "curve", "X1_4", "genus", "--json")
    assert json.loads(out)["genus"] == 2
    code, out, _ = run(capsys, "curve", "X_good", "count", "--p", "2", "--json")
    assert json.loads(out)["count"] == 6


def test_curve_text_output(capsys):
    code, out, err = run(capsys, "curve", "X0_5", "jacobian", "--p", "5")
    assert code == 0 and err == ""
    assert out == "curve=X0_5, action=jacobian, order_p=41, order_p2=1189\n"
    code, out, _ = run(capsys, "curve", "E17", "structure", "--p", "3", "--deg", "2")
    assert out == "curve=E17, action=structure, structure=[4, 4]\n"
    code, out, _ = run(capsys, "curve", "X_good", "count", "--p", "2")
    assert out == "curve=X_good, action=count, count=6, q=2\n"


def test_elliptic_curves_share_the_characteristic_2_path(capsys):
    code, out, err = run(capsys, "curve", "E17", "count", "--p", "2", "--deg", "2")
    assert code == 0 and err == "" and out == "curve=E17, action=count, count=8, q=4\n"
    code, out, err = run(capsys, "curve", "E40", "count", "--p", "2")
    assert code == 1 and out == "" and err == "error: HypCurve(E40) has bad reduction at 2\n"


def test_curve_unknown_name(capsys):
    code, _, err = run(capsys, "curve", "X9_9", "genus")
    assert code == 1 and "unknown curve" in err


def test_curve_structure_needs_weierstrass(capsys):
    code, _, err = run(capsys, "curve", "X0_5", "structure")
    assert code == 1 and "Weierstrass" in err


@pytest.mark.parametrize("argv, expected", [
    (("curve", "X1_4", "count", "--p", "97", "--deg", "2"), {"count": 9790}),
    (("curve", "X0_5", "jacobian", "--p", "97"), {"order_p": 10957, "order_p2": 89989841}),
    (("curve", "X1_1_3", "torsion-bound", "--primes", "29,31,37", "--deg", "2"), {"bound": 63}),
    (("curve", "E40", "structure", "--p", "101", "--deg", "2"), {"structure": [24, 432]}),
    (("curve", "E40", "structure", "--p", "307", "--deg", "2"), {"structure": [4, 23700]}),
])
def test_curve_results_at_large_q(capsys, argv, expected):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--json")
    record = json.loads(out)
    assert code == 0 and err == ""
    assert {key: record[key] for key in expected} == expected
    # q = 94,249 for the last row; a scan over the orders of all points took over 300 s
    assert time.perf_counter() - start < 60


def test_survey_small(capsys):
    code, out, _ = run(capsys, "survey", "--d", "-1", "--height", "1", "--n-max", "3", "--json")
    assert code == 0
    record = json.loads(out)
    labels = {row["label"] for row in record["rows"]}
    assert labels <= {
        "0", "3(2)", "4(1)", "4(1,1)", "4(2)", "5(1,1)a", "5(1,1)b", "5(2)a",
        "6(1,1)", "6(2)", "6(2,1)", "6(3)", "7(2,1,1)a", "8(2)a", "8(2,1,1)",
        "8(3)", "10(2,1,1)a",
    }
    assert not record["flagged"]
    assert sum(record["histogram"].values()) == len(record["rows"])


def test_survey_text_mode_flags_labels_outside_the_list(tmp_path, capsys):
    # a catalog without most labels: those graphs get synthesized "?" labels
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([{"label": "3(2)", "d": -1, "c": "-1", "vertices": 3}]))
    argv = ("survey", "--d", "-1", "--height", "1", "--n-max", "3", "--catalog", str(path))
    code, record_text, _ = run(capsys, *argv, "--json")
    record = json.loads(record_text)
    code, out, err = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    rows, histogram = lines[:lines.index("histogram:")], lines[lines.index("histogram:") + 1:]
    marker = "  <-- OUTSIDE THE CLASSIFIED LIST"
    assert rows == [f"{r['c']:>20}  {r['label']}{marker if r['flagged'] else ''}"
                    for r in record["rows"]]
    assert f"{'-1':>20}  3(2)" in rows
    assert histogram == [f"  {label:>12}: {n}" for label, n in record["histogram"].items()]
    flagged = sum(row.endswith(marker) for row in rows)
    assert 0 < flagged == len(record["flagged"]) < len(rows)
    assert err == f"!! {flagged} parameter(s) fall outside the expected label list\n"


def test_chabauty_single_disk(capsys):
    code, out, _ = run(capsys, "chabauty", "--disk", "P0", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["single_disk"]["solution_classes"] == [[0, 0], [6, 2]]


@pytest.mark.parametrize("prec", [6, 8])
def test_chabauty_single_disk_matches_the_full_run(capsys, prec):
    certificates = full_theorem(prec=prec).certificates
    for disk in ("P0", "P2", "P4"):
        code, out, _ = run(capsys, "chabauty", "--disk", disk, "--prec", str(prec), "--json")
        assert code == 0
        assert json.loads(out)["single_disk"] == certificates[disk].to_record()


@pytest.mark.parametrize("argv", [
    ("chabauty", "--prec", "2"),
    ("chabauty", "--disk", "P0", "--prec", "2"),
])
def test_chabauty_pipeline_failure_exits_2_without_traceback(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("pipeline failure: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_chabauty_full_run_and_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "chabauty", "--json", "--out", str(target))
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] is True
    assert json.loads(target.read_text()) == record


def test_chabauty_out_file_is_the_json_stdout_without_its_newline(tmp_path, capsys):
    target = tmp_path / "disk.json"
    argv = ("chabauty", "--disk", "P2", "--prec", "8")
    code, out, _ = run(capsys, *argv, "--json", "--out", str(target))
    assert code == 0 and out.endswith("}\n")
    assert target.read_bytes() == out[:-1].encode()
    assert run(capsys, *argv, "--json") == (0, out, "")


def test_version_and_usage(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()
    assert main([]) == 1


@pytest.mark.parametrize("argv, code, err", [
    (("--version",), 0, ""),
    (("chabauty", "--prec", "-1"), 1, "error: prec must be >= 1, got -1\n"),
])
def test_module_entry_point_passes_the_exit_code_through(argv, code, err):
    src = str(Path(quaddyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "quaddyn", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code and proc.stderr == err
    if code == 0:
        assert proc.stdout == f"quaddyn {quaddyn.__version__}\n"


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_a_closed_stdout_ends_without_a_traceback(extra):
    """The reader takes one line of a 150-500 kB survey and closes the pipe."""
    src = str(Path(quaddyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    argv = ("survey", "--d", "-1", "--height", "12", "--n-max", "4", *extra)
    proc = subprocess.Popen([sys.executable, "-m", "quaddyn", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("disk", ["P0", "P2", "P4"])
def test_chabauty_single_disk_text_is_its_json_record(capsys, disk):
    code, out, _ = run(capsys, "chabauty", "--disk", disk, "--prec", "8", "--json")
    assert code == 0
    expected = json.dumps(json.loads(out)["single_disk"], indent=2, sort_keys=True) + "\n"
    assert run(capsys, "chabauty", "--disk", disk, "--prec", "8") == (0, expected, "")


def test_graph_include_infinity_adds_only_the_note(capsys):
    argv = ("graph", "--d", "-1", "--c", "-1/4+3/8*i")
    code, out, _ = run(capsys, *argv, "--json")
    code_inf, out_inf, _ = run(capsys, *argv, "--json", "--include-infinity")
    assert code == code_inf == 0
    record, record_inf = json.loads(out), json.loads(out_inf)
    assert set(record_inf) - set(record) == {"note"}
    assert record_inf.pop("note") == "the fixed point at infinity is omitted from the vertex list"
    assert record_inf == record
    for mode in ((), ("--dot",)):
        assert run(capsys, *argv, *mode, "--include-infinity") == run(capsys, *argv, *mode)
