"""Golden digests: the bytes of fixed CLI calls, kept as sha256 and length.

    python3 tools/golden.py

Runs from a source checkout and rewrites tests/golden.json.  Each row is one
argv, run in process through quaddyn.cli.main with stdout and stderr
captured.  Its digest is the sha256 and byte length of the UTF-8 JSON text of
[exit code, stdout, stderr].  tests/test_golden.py runs the same rows in
tier-1, so an output that changes on purpose means rewriting the file in the
same change, and naming every row whose digest moved.

The rows: dynatomic for n = 1..6 at every --m the CLI admits, symbolic and at
two small parameters, in text and --json; dynatomic at a height-10^7
parameter for m <= 2; graphs that take the dynatomic fallback (no height
box), in text, --json and --dot; and the shell: each subcommand with its
options reordered, in "--opt=value" form and with curve's positionals between
options, an abbreviation argparse completes, and the help and version texts;
then the records: graph --json at each builtin catalog witness, survey at
height 3 --json over the seven benchmark fields, every registry curve with
every action at its defaults --json, chabauty --json at --prec 6 and 8, and
each --disk at --prec 8 in text and --json.
COLUMNS is pinned to 80 while a row runs, so argparse wraps its usage and help
text the same way in every terminal.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"

# the largest --m the CLI admits for each n: d_n 2^(m-1) <= 108 symbolic, <= 432 at a c
SYMBOLIC_M = {1: 6, 2: 6, 3: 5, 4: 4, 5: 2, 6: 2}
SPECIALIZED_M = {1: 8, 2: 8, 3: 7, 4: 6, 5: 4, 6: 4}
SMALL_C = (("-1", "-21/16"), ("-3", "1/3 - 2/5*w"))
TALL_C = ("-1", "1234567/7654321+7654321/1234567*i")
FALLBACK_GRAPHS = (("-1", "4000"), ("-3", "-4000"), ("-1", "1000000000000"))
SUBCOMMANDS = ("graph", "survey", "dynatomic", "curve", "chabauty")
SHELL = [
    ["graph", "--d", "-1", "--c", "-1"],
    ["graph", "--c", "-1", "--d", "-1", "--n-max", "6", "--json"],
    ["graph", "--d=-3", "--c=-5/12", "--n-max=4"],
    ["graph", "--json", "--c", "i", "--include-infinity", "--d", "-1"],
    ["graph", "--n-max", "3", "--d", "-1", "--c", "-1/4 + 3/8*i", "--dot"],
    ["graph", "--d", "-1", "--c", "-1", "--include-infinity", "--dot", "--json"],
    ["survey", "--height", "1", "--d", "-1"],
    ["survey", "--json", "--n-max=3", "--d=-3", "--jobs", "1", "--height=1"],
    ["dynatomic", "--m", "1", "--n", "2"],
    ["dynatomic", "--c=-5/12", "--d=-3", "--n=3", "--json"],
    ["dynatomic", "--json", "--c", "-1", "--m=1", "--n", "1"],
    ["curve", "--p", "5", "X0_5", "count"],
    ["curve", "X0_5", "--json", "jacobian", "--p", "11"],
    ["curve", "--deg=2", "E17", "--p=7", "structure"],
    ["curve", "X0_5", "torsion-bound", "--primes=3,5", "--deg", "2", "--json"],
    ["curve", "--json", "X1_4", "genus"],
    ["chabauty", "--disk", "P0", "--json"],
    ["chabauty", "--json", "--prec=7", "--disk=P4"],
    ["chabauty", "--pre", "7", "--json"],
    ["--help"],
    ["-h"],
    ["--version"],
    *([name, "-h"] for name in SUBCOMMANDS),
]
# the benchmark's seven fields, copied so the rows stay put if the benchmark changes
SURVEY_FIELDS = (-1, -2, -3, -7, -11, 2, 5)
CURVE_ACTIONS = ("count", "jacobian", "torsion-bound", "genus", "structure")


def record_rows() -> list[list[str]]:
    from quaddyn.curves import load_registry
    from quaddyn.graphcat import _TABLE

    out = [["graph", "--d", str(d), "--c", c, "--json"] for _label, d, c, _n, _code in _TABLE]
    out += [["survey", "--d", str(d), "--height", "3", "--json"] for d in SURVEY_FIELDS]
    names = sorted({entry.name for entry in load_registry().values()})
    out += [["curve", name, action, "--json"] for name in names for action in CURVE_ACTIONS]
    out += [["chabauty", "--json", "--prec", prec] for prec in ("6", "8")]
    out += [["chabauty", "--disk", disk, "--prec", "8", *form]
            for disk in ("P0", "P2", "P4") for form in ([], ["--json"])]
    return out


def rows() -> list[list[str]]:
    out = []
    for n in range(1, 7):
        calls = [["--n", str(n), "--m", str(m)] for m in range(SYMBOLIC_M[n] + 1)]
        calls += [["--n", str(n), "--m", str(m), "--d", d, "--c", c]
                  for d, c in SMALL_C for m in range(SPECIALIZED_M[n] + 1)]
        calls += [["--n", str(n), "--m", str(m), "--d", TALL_C[0], "--c", TALL_C[1]]
                  for m in range(3)]
        out += [["dynatomic", *call, *form] for call in calls for form in ([], ["--json"])]
    out += [["graph", "--d", d, "--c", c, *form]
            for d, c in FALLBACK_GRAPHS for form in ([], ["--json"], ["--dot"])]
    return out + SHELL + record_rows()


def digest(argv: list[str]) -> dict:
    """sha256 and byte length of [exit code, stdout, stderr] of one in-process CLI call."""
    from quaddyn.cli import main

    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    data = json.dumps([code, out.getvalue(), err.getvalue()]).encode()
    return {"sha256": hashlib.sha256(data).hexdigest(), "length": len(data)}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    found = [{"argv": argv, **digest(argv)} for argv in rows()]
    GOLDEN.write_text(json.dumps(found, indent=1) + "\n")
    print(f"wrote {len(found)} rows to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
