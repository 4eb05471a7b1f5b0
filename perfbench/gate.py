"""Output gate: every op's stdout is checked before its time counts.

The checks use their own exact arithmetic (pairs of Fractions for
a + b*sqrt(d)) and never call quaddyn, so a fault in the program cannot
hide itself.  `check(op, text, pins)` returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from fractions import Fraction

from workloads import CATALOG, survey_box

# -- exact elements of Q(sqrt(d)) as (a, b) --------------------------------

_NUM = r"\d+(?:/\d+)?"
_ELEM = re.compile(
    rf"^(?:(?P<a>-?{_NUM})(?: (?P<sign>[+-]) |$))?"
    rf"(?:(?P<neg>-)?(?:(?P<b>{_NUM})\*)?(?P<sym>i|w|sqrt\((?P<k>-?\d+)\)))?$"
)


def parse_elem(text: str, d: int) -> tuple[Fraction, Fraction]:
    """Parse the CLI's element syntax (i, w or sqrt(d)) into (a, b) with a + b*sqrt(d)."""
    m = _ELEM.match(text.strip())
    if m is None or not text.strip():
        raise ValueError(f"unparsable element {text!r}")
    a = Fraction(m["a"]) if m["a"] else Fraction(0)
    if m["sym"] is None:
        if m["sign"]:
            raise ValueError(f"dangling sign in {text!r}")
        return a, Fraction(0)
    b = Fraction(m["b"]) if m["b"] else Fraction(1)
    if (m["sign"] == "-") != bool(m["neg"]):
        b = -b
    sym = m["sym"]
    if sym == "i" and d == -1 or sym.startswith("sqrt") and int(m["k"]) == d:
        return a, b
    if sym == "w" and d == -3:  # w = (-1 + sqrt(-3))/2
        return a - b / 2, b / 2
    raise ValueError(f"{text!r} is not in Q(sqrt({d}))")


def _square_plus(v, c, d):
    a, b = v
    return a * a + d * b * b + c[0], 2 * a * b + c[1]


# -- digests ------------------------------------------------------------------

# the fields each record schema has today; fields added later are ignored
FIELDS = {
    "quaddyn/graph/v1": ("schema", "d", "c", "n_max", "complete_for_periods_le", "vertices",
                         "edges", "portraits", "cycle_structure", "flags", "label", "code"),
    "quaddyn/survey/v1": ("schema", "d", "height", "n_max", "rows", "histogram", "flagged"),
    "quaddyn/chabauty/v1": ("schema", "lambdas", "annihilators", "disks", "pinned_ok",
                            "points_on_X0_5", "rational_five_cycle_c",
                            "period_5_points_over_Q(i)", "verdict", "single_disk"),
    "quaddyn/curve/v1": ("schema", "curve", "action", "genus", "count", "q", "order_p",
                         "order_p2", "primes", "bound", "structure"),
    "perfbench/jacobian/v1": ("schema", "case", "value"),
}


def digest(record: dict) -> str:
    keys = FIELDS.get(record.get("schema"), ())
    kept = {k: record[k] for k in keys if k in record}
    text = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


# -- per-command checks ----------------------------------------------------------

_LABEL = re.compile(r"^(\d+)\((\d+(?:,\d+)*)\)([a-j])?(\?)?$")
_CATALOG_LABELS = {label for label, *_ in CATALOG}
_WITNESS = {(d, parse_elem(c, d)): (label, n) for label, d, c, n in CATALOG}


def _arg(argv: list, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _label_problems(label: str, size: int, cycles: list) -> list:
    if label == "0":
        return [] if size == 0 else [f"label 0 on {size} vertices"]
    m = _LABEL.match(label)
    if m is None:
        return [f"malformed label {label!r}"]
    out = []
    if int(m[1]) != size:
        out.append(f"label {label} but {size} vertices")
    if [int(x) for x in m[2].split(",")] != sorted(cycles, reverse=True):
        out.append(f"label {label} but cycle structure {cycles}")
    if not m[4] and label not in _CATALOG_LABELS:
        out.append(f"label {label} claims a catalog entry that does not exist")
    return out


def check_graph(argv: list, rec: dict) -> list:
    d = int(_arg(argv, "--d"))
    c = parse_elem(_arg(argv, "--c"), d)
    n_max = int(_arg(argv, "--n-max", 6))
    out = []
    if rec.get("schema") != "quaddyn/graph/v1" or rec.get("d") != d:
        return [f"schema/d {rec.get('schema')}/{rec.get('d')}"]
    if parse_elem(rec["c"], d) != c:
        out.append(f"record c {rec['c']!r} is not the input")
    if rec["n_max"] != n_max or rec["complete_for_periods_le"] != n_max:
        out.append("n_max / completeness bound")
    verts = [parse_elem(v, d) for v in rec["vertices"]]
    vset = set(verts)
    if len(vset) != len(verts):
        out.append("repeated vertex")
    succ = {}
    for src, dst in rec["edges"]:
        s, t = parse_elem(src, d), parse_elem(dst, d)
        if s in succ:
            out.append(f"two edges leave {src}")
        succ[s] = t
        if s not in vset or t not in vset:
            out.append(f"edge {src} -> {dst} leaves the vertex set")
        elif _square_plus(s, c, d) != t:
            out.append(f"edge {src} -> {dst} is not v*v + c")
    if set(succ) != vset:
        out.append("vertices without an outgoing edge")
    if out:
        return out
    cycles, portraits = [], {}
    for v in verts:
        seen, cur = {}, v
        while cur not in seen:
            seen[cur] = len(seen)
            cur = succ[cur]
        portraits[v] = [seen[cur], len(seen) - seen[cur]]
        if seen[cur] == 0 and min(seen) == v:  # count each cycle once, at its least member
            cycles.append(len(seen))
    given = {parse_elem(k, d): v for k, v in rec["portraits"].items()}
    if given != portraits:
        out.append("portraits do not match the edges")
    if sorted(rec["cycle_structure"]) != sorted(cycles) or rec["cycle_structure"] != sorted(
            rec["cycle_structure"]):
        out.append(f"cycle structure {rec['cycle_structure']} but edges give {sorted(cycles)}")
    zero_in = (Fraction(0), Fraction(0)) in vset
    quarter = c == (Fraction(1, 4), Fraction(0))
    flags = rec["flags"]
    expect = {"admissible": not zero_in, "strongly_admissible": not zero_in and not quarter,
              "zero_is_preperiodic": zero_in, "c_is_quarter": quarter}
    if any(flags.get(k) != v for k, v in expect.items()):
        out.append(f"flags {flags} but vertices give {expect}")
    out += _label_problems(rec["label"], len(verts), cycles)
    witness = _WITNESS.get((d, c))
    if witness is not None and n_max == 6 and (rec["label"], len(verts)) != witness:
        out.append(f"witness of {witness[0]} ({witness[1]} vertices) gave "
                   f"{rec['label']} ({len(verts)} vertices)")
    return out


def check_survey(argv: list, rec: dict) -> list:
    d, height = int(_arg(argv, "--d")), int(_arg(argv, "--height"))
    if rec.get("schema") != "quaddyn/survey/v1" or rec.get("d") != d:
        return [f"schema/d {rec.get('schema')}/{rec.get('d')}"]
    out = []
    if rec["height"] != height or rec["n_max"] != int(_arg(argv, "--n-max", 4)):
        out.append("height / n_max")
    rows = rec["rows"]
    box = survey_box(height)
    if len(rows) != len(box):
        out.append(f"{len(rows)} rows for a box of {len(box)}")
    if {parse_elem(r["c"], d) for r in rows} != box:
        out.append("rows do not cover the box")
    if rec["histogram"] != dict(Counter(r["label"] for r in rows)):
        out.append("histogram does not count the rows")
    if sum(rec["histogram"].values()) != len(rows):
        out.append("histogram does not sum to the row count")
    if rec["flagged"] != [r for r in rows if r["flagged"]]:
        out.append("flagged list is not the flagged rows")
    if d in (-1, -3) and rec["flagged"]:
        out.append(f"{len(rec['flagged'])} rows flagged over d = {d}")
    for r in rows:
        m = _LABEL.match(r["label"])
        if r["label"] != "0" and m is None:
            out.append(f"malformed label {r['label']!r}")
            break
    return out


_CHABAUTY_PINS = {"L1(E1)": [0, 30], "L2(E1)": [0, 42], "L1(E2)": [17, 47], "L2(E2)": [50, 53]}
_SIX_POINTS = ["(0, -1)", "(0, 1)", "(-3, -1)", "(-3, 1)", "inf+", "inf-"]


def check_chabauty(argv: list, rec: dict) -> list:
    prec = int(_arg(argv, "--prec", 6))
    if rec.get("schema") != "quaddyn/chabauty/v1":
        return ["schema"]
    disk = _arg(argv, "--disk")
    if disk is not None:
        cert = rec["single_disk"]
        ok = (cert["disk"] == disk and cert["certified"] is True and cert["solutions"] <= 2
              and cert["series_precision_bits"] == prec - 1)
        return [] if ok else [f"disk certificate {cert}"]
    out = []
    if rec["verdict"] is not True or not all(v is True for v in rec["pinned_ok"].values()):
        out.append(f"verdict {rec['verdict']}, pinned_ok {rec['pinned_ok']}")
    if any(not c["certified"] or c["solutions"] > 2 for c in rec["disks"].values()):
        out.append("a residue disk is not certified")
    if rec["points_on_X0_5"] != _SIX_POINTS:
        out.append(f"points {rec['points_on_X0_5']}")
    if prec == 6:
        if rec["lambdas"] != _CHABAUTY_PINS or rec["annihilators"] != [[2, 0, 7, 0], [0, 1, 0, 13]]:
            out.append("integral values / annihilators differ from the pins")
        if rec["disks"]["P0"]["solution_classes"] != [[0, 0], [6, 2]] or len(rec["disks"]) != 6:
            out.append("P0 solution classes differ from the pins")
    return out


# acceptance-gate values: #J(F_{p^2}) and E(F_{p^2}) invariant factors
_JAC_P2 = {("X0_5", 3): 81, ("X0_5", 5): 1189, ("X1_2_3", 3): 57, ("X1_2_3", 5): 361,
           ("X1_(2,3)", 3): 81, ("X1_(2,3)", 5): 817, ("X1_4", 3): 80, ("X1_1_3", 5): 441}
_STRUCTURE = {("E17", 3): [4, 4], ("E17", 5): [2, 16], ("E40", 3): [4, 4], ("E40", 17): [2, 160]}


def check_curve(argv: list, rec: dict) -> list:
    name, action = argv[1], argv[2]
    p, deg = int(_arg(argv, "--p", 3)), int(_arg(argv, "--deg", 1))
    if (rec.get("schema"), rec.get("curve"), rec.get("action")) != (
            "quaddyn/curve/v1", name, action):
        return [f"schema/curve/action {rec.get('schema')}/{rec.get('curve')}/{rec.get('action')}"]
    q = p**deg
    if action == "jacobian":
        n1, n2 = rec["order_p"], rec["order_p2"]
        out = []
        if not (math.sqrt(p) - 1) ** 4 <= n1 <= (math.sqrt(p) + 1) ** 4:
            out.append(f"#J(F_{p}) = {n1} outside the Weil interval")
        if n2 % n1:
            out.append(f"#J(F_p) = {n1} does not divide #J(F_p^2) = {n2}")
        if _JAC_P2.get((name, p), n2) != n2:
            out.append(f"#J(F_{p}^2) = {n2}, pinned {_JAC_P2[(name, p)]}")
        return out
    if action == "count":
        n = rec["count"]
        ok = rec["q"] == q and (n - q - 1) ** 2 <= 16 * q
        return [] if ok else [f"count {n} over F_{q} outside the Weil interval"]
    if action == "torsion-bound":
        primes = [int(x) for x in _arg(argv, "--primes").split(",")]
        ok = rec["primes"] == primes and isinstance(rec["bound"], int) and rec["bound"] > 0
        return [] if ok else [f"torsion bound {rec['bound']} for primes {rec['primes']}"]
    if action == "structure":
        n1, n2 = rec["structure"]
        out = []
        if n2 % n1 or (q - 1) % n1 or (n1 * n2 - q - 1) ** 2 > 4 * q:
            out.append(f"structure {rec['structure']} impossible over F_{q}")
        if deg == 2 and _STRUCTURE.get((name, p), rec["structure"]) != rec["structure"]:
            out.append(f"structure {rec['structure']}, pinned {_STRUCTURE[(name, p)]}")
        return out
    return [f"unchecked action {action}"]


_REBASE_U = {  # (coefficient of x^0, of x^1) of u after rebasing at (0, -1)
    "rebase_d2": ("-512/325 - 66/325*i", "742/325 - 44/325*i"),
    "rebase_mix": ("948975/488501 + 120593/488501*i", "7801337/2442505 - 1823949/2442505*i"),
}


def check_jacobian(op: dict, rec: dict) -> list:
    case, value = op["case"], rec.get("value")
    if rec.get("schema") != "perfbench/jacobian/v1" or rec.get("case") != case:
        return ["schema/case"]
    if case == "order21":
        return [] if value == 21 else [f"point order {value}, pinned 21"]
    if case.startswith("order3"):
        return [] if value is True else [f"order-3 certificate {value}"]
    u = [(Fraction(a), Fraction(b)) for a, b in value[0]]
    want = [parse_elem(t, -1) for t in _REBASE_U[case]] + [(Fraction(1), Fraction(0))]
    return [] if u == want else [f"rebased u {value[0]} differs from the pins"]


def check(op: dict, text: str, pins: dict | None = None) -> list:
    """Problems with one op's output; [] when it passes."""
    try:
        rec = json.loads(text)
    except json.JSONDecodeError:
        return ["output is not one JSON record"]
    if not isinstance(rec, dict):
        return ["output is not a JSON object"]
    try:
        if op["kind"] == "jac":
            out = check_jacobian(op, rec)
        else:
            command = op["argv"][0]
            out = {"graph": check_graph, "survey": check_survey, "chabauty": check_chabauty,
                   "curve": check_curve}[command](op["argv"], rec)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        out = [f"malformed record: {type(exc).__name__}: {exc}"]
    if pins and op["key"] in pins and digest(rec) != pins[op["key"]]:
        out.append(f"digest {digest(rec)} differs from the pinned {pins[op['key']]}")
    return out


def corrupt(text: str, kind: str) -> str:
    """A deliberately wrong copy of a graph, survey or chabauty output, for
    the gate's self-test: a dropped vertex or row, or a flipped label or verdict."""
    rec = json.loads(text)
    if kind == "vertex" and "vertices" in rec:
        rec["vertices"] = rec["vertices"][:-1]
    elif kind == "vertex" and "rows" in rec:
        rec["rows"] = rec["rows"][:-1]
    elif "label" in rec:
        rec["label"] = "3(2)" if rec["label"] != "3(2)" else "4(2)"
    elif "rows" in rec:
        rec["rows"][0]["label"] = "999(9)"
    elif "verdict" in rec:
        rec["verdict"] = False
    else:
        raise ValueError(f"no {kind} corruption for {rec.get('schema')}")
    return json.dumps(rec, indent=2, sort_keys=True) + "\n"
