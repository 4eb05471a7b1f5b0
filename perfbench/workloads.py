"""Seeded op lists for the three workloads.

An op is a plain dict, so it can be sent to the child process as JSON:

    {"key": str, "kind": "cli", "argv": [...]}            one quaddyn.cli.main call
    {"key": str, "kind": "jac", "case": str, "bound": int}  one quaddyn.jacobian call

`key` identifies the op's input (the same key always means the same
output); the gate and the digest pins are indexed by it.  Nothing here
imports quaddyn: the inputs depend on the seed alone.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("graph_n6", "survey_n4", "genus2")

WHY = {
    "graph_n6": "per-parameter graph queries at n_max 6: the 17 catalog witnesses plus small- "
                "and large-height c over seven fields; symbolic Phi_5/Phi_6 dominate",
    "survey_n4": "survey at height 3, n_max 4 over all seven fields in seeded order: "
                 "129 small parameters per op, so per-call overhead shows",
    "genus2": "chabauty, curve and jacobian ops that never touch dynatomic, factor, orbit "
              "or the catalog: the no-change control for graph work",
}

FIELDS = (-1, -2, -3, -7, -11, 2, 5)

# nominal seconds per pass (2 CPUs, Python 3.11): sets how many passes make a run
PASS_SECONDS = {"graph_n6": 33.0, "survey_n4": 9.5, "genus2": 10.5}

# label, witness d, witness c, expected vertex count (the catalog table)
CATALOG = (
    ("0", -1, "2", 0),
    ("3(2)", -1, "-1", 3),
    ("4(1)", -3, "1/4", 4),
    ("4(1,1)", -1, "-6", 4),
    ("4(2)", -1, "-3", 4),
    ("5(1,1)a", -1, "-2", 5),
    ("5(1,1)b", -1, "0", 5),
    ("5(2)a", -1, "i", 5),
    ("6(1,1)", -1, "-10/9", 6),
    ("6(2)", -1, "-13/9", 6),
    ("6(2,1)", -1, "1/4", 6),
    ("6(3)", -1, "-301/144", 6),
    ("7(2,1,1)a", -3, "0", 7),
    ("8(2)a", -3, "-5/12", 8),
    ("8(2,1,1)", -1, "-21/16", 8),
    ("8(3)", -1, "-29/16", 8),
    ("10(2,1,1)a", -1, "-1/4 + 3/8*i", 10),
)

# graph_n6 parameters per field besides the catalog witnesses
LARGE_PER_FIELD = 2
SMALL_PER_FIELD = 6

SURVEY_HEIGHT = 3
SURVEY_N_MAX = 4

# primes of good reduction (3..23) for the genus-2 registry curves
GENUS2_GOOD = {
    "X0_5": (3, 5, 7, 11, 13, 17, 19, 23),
    "X_good": (3, 5, 7, 11, 13, 17, 19, 23),
    "X1_4": (3, 5, 7, 11, 13, 17, 19, 23),
    "X1_1_3": (5, 7, 11, 13, 17, 19, 23),
    "X1_2_3": (3, 5, 7, 11, 17, 19, 23),
    "X1_(2,3)": (3, 5, 7, 11, 13, 17, 19, 23),
}
# E(F_{p^2}) group structures pinned by the acceptance gate
STRUCTURE_PINS = (("E17", 3), ("E17", 5), ("E40", 3), ("E40", 17))

JAC_CASES = ("order21", "order3_q", "order3_w1", "order3_w2", "rebase_d2", "rebase_mix")

TORSION_PAIRS = ((3, 11), (5, 13), (7, 17), (11, 19))
JAC_REPEATS = 2


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def elem_text(a: Fraction, b: Fraction, d: int) -> str:
    """a + b*sqrt(d) in the CLI's input syntax (i for d = -1)."""
    if b == 0:
        return _frac_text(a)
    symbol = "i" if d == -1 else f"sqrt({d})"
    stem = symbol if abs(b) == 1 else f"{_frac_text(abs(b))}*{symbol}"
    if a == 0:
        return stem if b > 0 else f"-{stem}"
    return f"{_frac_text(a)} {'+' if b > 0 else '-'} {stem}"


def _cli(argv: list) -> dict:
    return {"key": " ".join(argv), "kind": "cli", "argv": argv}


def _graph_op(d: int, c: str) -> dict:
    return _cli(["graph", "--d", str(d), "--c", c, "--json"])


def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def _large(rng: random.Random) -> Fraction:
    """Seven-digit numerator and denominator, so every draw has about the same height."""
    num = rng.randint(10**6, 10**7 - 1) * rng.choice((-1, 1))
    return Fraction(num, rng.randint(10**6, 10**7 - 1))


def _large_height_params() -> list:
    """LARGE_PER_FIELD large-height c per field, the same for every seed.

    Their cost has a heavy tail: about one draw in ten makes the norm
    polynomial split into many factors mod p, and Hensel lifting to the
    coefficient bound then takes 1-7 s instead of 0.5 s.  Drawn per seed,
    they made ops_per_s depend on how many such c a seed happened to get.
    Drawn once from a fixed generator (not chosen by hand), every run
    carries the same share of that tail.  They are the slowest ops of a
    pass, more than a tenth of it, so op_p90_ms falls among them.
    """
    rng = random.Random("graph_n6:large-height")
    return [(d, elem_text(_large(rng), _large(rng), d))
            for _ in range(LARGE_PER_FIELD) for d in FIELDS]


def graph_ops(rng: random.Random) -> list:
    """The catalog witnesses, the large-height c, and seeded small-height c in every field.

    Many distinct small-height c make the costs around the median dense, so
    the median op does not jump when the seed redraws a few of them.
    """
    ops = [_graph_op(d, c) for _label, d, c, _n in CATALOG]
    ops += [_graph_op(d, c) for d, c in _large_height_params()]
    ops += [_graph_op(d, elem_text(_small(rng), _small(rng), d))
            for _ in range(SMALL_PER_FIELD) for d in FIELDS]
    rng.shuffle(ops)
    return ops


def survey_ops(rng: random.Random) -> list:
    fields = list(FIELDS)
    rng.shuffle(fields)
    return [_cli(["survey", "--d", str(d), "--height", str(SURVEY_HEIGHT),
                  "--n-max", str(SURVEY_N_MAX), "--json"]) for d in fields]


def _curve_ops() -> list:
    """Genus-2 curve data: every curve at every prime of good reduction.

    The same ops for every seed (the seed only orders them).  The median
    and the p90 of genus2 land among these ops, and the curves' costs at
    one prime differ by up to 1.5x, so drawing curves per seed would move
    op_p50_ms and op_p90_ms with the draw.
    """
    ops = []
    for name in sorted(GENUS2_GOOD):
        good = GENUS2_GOOD[name]
        for p in good:
            ops.append(_cli(["curve", name, "jacobian", "--p", str(p), "--json"]))
            for deg in (1, 2):
                ops.append(_cli(["curve", name, "count", "--p", str(p), "--deg", str(deg),
                                 "--json"]))
        for p, q in TORSION_PAIRS:
            if p in good and q in good:
                for deg in (1, 2):
                    ops.append(_cli(["curve", name, "torsion-bound", "--primes", f"{p},{q}",
                                     "--deg", str(deg), "--json"]))
    return ops


def _structure_op(name: str, p: int) -> dict:
    return _cli(["curve", name, "structure", "--p", str(p), "--deg", "2", "--json"])


def _jac_op(case: str, bound: int) -> dict:
    return {"key": f"jacobian {case} {bound}", "kind": "jac", "case": case, "bound": bound}


def genus2_ops(rng: random.Random) -> list:
    rest = [_cli(["chabauty", "--disk", disk, "--prec", "8", "--json"])
            for disk in ("P0", "P2", "P4") * 2]
    rest.append(_cli(["chabauty", "--prec", "7", "--json"]))
    rest += [_structure_op(name, p) for name, p in STRUCTURE_PINS]
    rest += _curve_ops()
    rest += [_jac_op(case, rng.randint(21, 60)) for case in JAC_CASES * JAC_REPEATS]
    rng.shuffle(rest)
    # the full certification runs first, while the chabauty caches are cold
    return [_cli(["chabauty", "--json"])] + rest


def make_ops(workload: str, seed: int) -> list:
    """The op list of one pass; a run cycles through it."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "graph_n6":
        return graph_ops(rng)
    if workload == "survey_n4":
        return survey_ops(rng)
    if workload == "genus2":
        return genus2_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def params_per_op(op: dict) -> int:
    """Parameters classified by one op: 1 per graph, the box size per survey."""
    argv = op.get("argv", [])
    if argv[:1] == ["graph"]:
        return 1
    if argv[:1] == ["survey"]:
        return len(survey_box(int(argv[argv.index("--height") + 1])))
    return 0


def survey_box(height: int) -> set:
    """The (a, b) pairs u/w + v/w*sqrt(d) a survey of this height covers."""
    return {
        (Fraction(u, w), Fraction(v, w))
        for w in range(1, height + 1)
        for u in range(-height, height + 1)
        for v in range(-height, height + 1)
    }
