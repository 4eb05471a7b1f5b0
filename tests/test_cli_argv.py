"""The CLI's strict fast path against argparse, the reference parser.

cli._fast_args turns a well-formed argv into a namespace without argparse and
returns None for everything else, which main then hands to argparse.  On
seeded argv over every subcommand, well formed or broken in the ways a user
breaks them, the fast path must return None or exactly the namespace that
main's argparse path (build_parser().parse_args after _glue_values) gives.
Every CLI op of the benchmark workloads must take the fast path.
"""

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

from quaddyn.cli import COMMANDS, _fast_args, _glue_values, build_parser

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, make_ops  # noqa: E402

INTS = ["0", "5", "11", "-1", "-12", "6", "1_0", " 3", "٣", "+4", "1000000000001"]
BAD_INTS = ["x", "", "1.5", "-1.5", "-", "--json", "-x", "3e2", "0x1f"]
TEXTS = ["-5/12", "-1/4 + 3/8*i", "i", "", "a=b", "x y", "3,5", "-3", "-.5", "P0", "1/3+i"]
BAD_TEXTS = ["-h", "--json", "-", "- 1", "--", "-x y", "-5\n"]
BROKEN = ["-h", "--help", "--", "--version", "--bogus", "-x", "-", "-5", "--json=1", "extra"]


def reference(argv):
    """vars() of the namespace main's argparse path gives, or None when argparse exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(build_parser().parse_args(_glue_values(list(argv))))
    except SystemExit:
        return None


def good_value(rng, keywords):
    if "choices" in keywords:
        return str(rng.choice(keywords["choices"]))
    return rng.choice(INTS if keywords.get("type") is int else TEXTS)


def well_formed(rng, name):
    """Some of the subcommand's options, each in one form, shuffled, positionals between."""
    arguments = COMMANDS[name][2]
    groups = []
    for key, keywords in arguments.items():
        if key[0] != "-" or not (keywords.get("required") or rng.random() < 0.5):
            continue
        value = good_value(rng, keywords)
        # a text after "--opt" that starts with "-" is an option to argparse, except after --c
        dashed = value[:1] == "-" and keywords.get("type") is not int and key != "--c"
        if keywords.get("action"):
            groups.append([key])
        elif dashed or rng.random() < 0.4:
            groups.append([f"{key}={value}"])
        else:
            groups.append([key, value])
    rng.shuffle(groups)
    place = 0
    for key, keywords in arguments.items():
        if key[0] != "-":  # in order, each at a random place after the one before
            place = rng.randint(place, len(groups))
            curve = rng.choice(["X0_5", "E17", "", "a b"])
            groups.insert(place, [good_value(rng, keywords) if keywords else curve])
            place += 1
    return [name] + [token for group in groups for token in group]


def broken(rng, argv):
    """One edit of the kind a user makes: a bad token, value or omission."""
    argv = list(argv)
    name, arguments = argv[0], COMMANDS[argv[0]][2]
    options = [key for key in arguments if key[0] == "-"]
    edit = rng.randrange(9)
    place = rng.randint(1, len(argv))
    if edit == 0:
        argv.insert(place, rng.choice(BROKEN))
    elif edit == 1:  # an abbreviation argparse may complete
        key = rng.choice(options)
        argv[place:place] = [key[:rng.randint(2, len(key) - 1)], rng.choice(INTS + TEXTS)]
    elif edit == 2:  # a repeat
        key = rng.choice(options)
        argv += [key] if arguments[key].get("action") else [key, good_value(rng, arguments[key])]
    elif edit == 3:  # a bad int
        key = rng.choice([k for k in options if arguments[k].get("type") is int] or options)
        argv += [key, rng.choice(BAD_INTS)]
    elif edit == 4:  # a value that starts with "-" but is no number
        argv += [rng.choice(options), rng.choice(BAD_TEXTS)]
    elif edit == 5:  # a missing value
        argv.append(rng.choice(options))
    elif edit == 6 and len(argv) > 1:  # a lost token: a required option, a value, a positional
        del argv[rng.randrange(1, len(argv))]
    elif edit == 7:  # a choices miss
        argv += ["--deg", "3"] if name == "curve" else ["--disk", "P9"]
    else:  # an unknown or misspelled subcommand
        argv[0] = rng.choice(["grap", "curves", "", "-h", "--version", "Graph"])
    return argv


def cases(seed=2026, count=2000):
    rng = random.Random(seed)
    out = []
    for k in range(count):
        argv = well_formed(rng, rng.choice(list(COMMANDS)))
        out.append((argv, True) if k % 2 else (broken(rng, argv), False))
    return out + [([], False), (["graph"], False)]


def test_the_fast_path_gives_argparse_namespace_or_none():
    seen = {"fast": 0, "argparse": 0}
    for argv, _ in cases():
        fast = _fast_args(argv)
        seen["argparse" if fast is None else "fast"] += 1
        if fast is not None:
            assert vars(fast) == reference(argv), argv
    assert seen["fast"] > 600 and seen["argparse"] > 600, seen


def test_well_formed_argv_take_the_fast_path():
    for argv, good in cases():
        if good and reference(argv) is not None:
            fast = _fast_args(argv)
            assert fast is not None, argv
            assert vars(fast) == reference(argv), argv


@pytest.mark.parametrize("argv", [
    ["curve", "--p", "5", "X0_5", "count"],
    ["curve", "X0_5", "--json", "jacobian", "--p", "11"],
    ["graph", "--d=-3", "--c=-5/12"],
    ["graph", "--d", "-1", "--c", "-5/12"],
    ["graph", "--d", "-1", "--c", "-h"],
    ["dynatomic", "--n", "2", "--c", ""],
    ["graph", "--d", "-1", "--c", "-1/4 + 3/8*i", "--include-infinity", "--n-max", "3"],
])
def test_edge_argv_take_the_fast_path(argv):
    fast = _fast_args(argv)
    assert fast is not None and vars(fast) == reference(argv)


@pytest.mark.parametrize("argv", [
    ["chabauty", "--pre", "7"],
    ["graph", "-h"],
    ["graph", "--d", "-1", "--c", "0", "--"],
    ["graph", "--d", "-1", "--d", "-1", "--c", "0"],
    ["graph", "--d", "-1", "--c", "0", "--json=1"],
    ["graph", "--d", "-1", "--c", "0", "--catalog"],
    ["graph", "--d", "-1", "--c", "0", "--catalog", "-x"],
    ["graph", "--d", "1.5", "--c", "1"],
    ["graph", "--d", "-1"],
    ["curve", "X0_5", "count", "--deg", "3"],
    ["curve", "X0_5"],
    ["curve", "X0_5", "count", "extra"],
    ["chabauty", "--disk", "P9"],
    ["--version"],
    ["plot"],
])
def test_help_abbreviations_and_malformed_argv_go_to_argparse(argv):
    assert _fast_args(argv) is None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_benchmark_op_takes_the_fast_path(workload):
    for seed in (1, 2, 3):
        for op in make_ops(workload, seed):
            if op["kind"] == "cli":
                fast = _fast_args(op["argv"])
                assert fast is not None, op["argv"]
                assert vars(fast) == reference(op["argv"]), op["argv"]
