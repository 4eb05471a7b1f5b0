"""The CLI's JSON writer against json.dumps(indent=2, sort_keys=True), its oracle.

cli._json_text writes every record the CLI prints with --json, the --out
file of chabauty and the text form of chabauty --disk.  On seeded values of
the types records hold (dicts with str keys, lists, str, int, bool, None),
nested up to depth 6, and on every record the benchmark workloads' CLI ops
hand to _emit_json, its text must be the oracle's byte for byte.  Any other
type must raise TypeError rather than be written some other way.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from quaddyn import cli
from quaddyn.cli import _json_text

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, make_ops  # noqa: E402

# non-ASCII (two-byte, three-byte and astral), quotes, backslashes and control characters
CHARS = "ab Z09_-/é\"\\\x00\x01\x08\t\n\r\x1f\x7f ü€𝄞"
MAX_DEPTH = 6


def oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def text(rng) -> str:
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))


def scalar(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice([True, False, None])
    if kind == 1:
        return rng.randint(-1000, 1000)
    if kind == 2:  # 100 digits, either sign
        return rng.choice([-1, 1]) * rng.randrange(10**99, 10**100)
    if kind == 3:
        return rng.choice([[], {}])
    return text(rng)


def value(rng, depth=0):
    """A scalar or empty container, or a list or dict of values one level deeper."""
    if depth == MAX_DEPTH or rng.random() < 0.3 + 0.1 * depth:
        return scalar(rng)
    size = rng.randrange(1, 4)
    if rng.random() < 0.5:
        return [value(rng, depth + 1) for _ in range(size)]
    return {text(rng): value(rng, depth + 1) for _ in range(size)}


def depth(value) -> int:
    if isinstance(value, (list, dict)) and value:
        return 1 + max(map(depth, value.values() if isinstance(value, dict) else value))
    return 0


def test_the_writer_is_the_oracle_on_seeded_values():
    rng = random.Random(2026)
    values = [value(rng) for _ in range(2000)]
    for v in values:
        assert _json_text(v) == oracle(v), v
    assert max(map(depth, values)) == MAX_DEPTH


def test_the_writer_is_the_oracle_on_the_workload_records(monkeypatch):
    """Each record _emit_json receives over the CLI ops of the three workloads at seeds 1-3."""
    argvs = {op["key"]: op["argv"] for workload in WORKLOADS for seed in (1, 2, 3)
             for op in make_ops(workload, seed) if op["kind"] == "cli"}
    kept = []
    monkeypatch.setattr(cli, "_emit_json", kept.append)
    for argv in argvs.values():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    assert len(kept) == len(argvs)
    assert {record["schema"] for record in kept} == {
        "quaddyn/graph/v1", "quaddyn/survey/v1", "quaddyn/curve/v1", "quaddyn/chabauty/v1"}
    for record in kept:
        assert _json_text(record) == oracle(record)


@pytest.mark.parametrize("bad", [1.5, (1, 2), {3}, {1: "a"}, {"a": [0, 2.0]},
                                 {"a": 1, 2: "b"}, {"a": {("t",): 1}}])
def test_any_other_type_raises_type_error(bad):
    with pytest.raises(TypeError):
        _json_text(bad)
