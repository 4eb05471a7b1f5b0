"""The CLI's bytes on a fixed corpus, against the digests in tests/golden.json.

tools/golden.py holds the rows and writes the file: dynatomic for n = 1..6 at
every --m the CLI admits, symbolic and at parameters in Q(i) and Q(w), the
graphs that take the dynatomic fallback, the shell (reordered and "="
options, help and version text) and the --json records: the catalog
witnesses' graphs, height-3 surveys, every curve action and the chabauty
reports, with the --disk text forms.  A changed digest means the
output changed; an output changed on purpose is committed with the file
rewritten, and the rows whose digests moved are named with the reason.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import golden  # noqa: E402


def test_the_rows_are_the_committed_ones():
    assert [row["argv"] for row in json.loads(golden.GOLDEN.read_text())] == golden.rows()


def test_every_output_matches_its_digest():
    kept = json.loads(golden.GOLDEN.read_text())
    moved = [" ".join(row["argv"]) for row in kept
             if golden.digest(row["argv"]) != {"sha256": row["sha256"], "length": row["length"]}]
    assert moved == []


def test_a_changed_output_changes_its_digest(monkeypatch):
    row = ["graph", "--d", "-1", "--c", "4000", "--json"]
    kept = golden.digest(row)
    monkeypatch.setattr("quaddyn.cli._emit_json", lambda record: print(json.dumps(record)))
    assert golden.digest(row) != kept
