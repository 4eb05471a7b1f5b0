"""Command-line front end.

Subcommands:
  graph      build + classify the preperiodic graph of one parameter
  survey     sweep parameters of bounded height and histogram the labels
  dynatomic  print a (generalized) dynatomic polynomial
  curve      finite-field data for a registry curve
  chabauty   run the X0(5)/Q(i) certification pipeline

Exit codes: 0 = verified/classified, 1 = usage error, 2 = verification
mismatch.  Every subcommand takes --json; output is byte-deterministic for
a fixed invocation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache

from . import __version__
from .dynatomic import MAX_PERIOD, dn_rn, dynatomic, gen_dynatomic
from .graphcat import _classify, builtin_catalog, classify, load_catalog, to_dot
from .orbit import build_graph
from .polys import format_poly, poly_to_json
from .quadfield import D_LIMIT, QuadElem, _norm, _quad, format_elem, parse_elem

QI_LABELS = frozenset({
    "0", "3(2)", "4(1,1)", "4(2)", "5(1,1)a", "5(1,1)b", "5(2)a", "6(1,1)",
    "6(2)", "6(2,1)", "6(3)", "8(2,1,1)", "8(3)", "10(2,1,1)a",
})
QW_LABELS = frozenset({
    "0", "3(2)", "4(1)", "4(1,1)", "4(2)", "5(1,1)a", "6(1,1)", "6(2)",
    "6(3)", "7(2,1,1)a", "8(2)a", "8(2,1,1)", "8(3)",
})


def _check_d(d: int) -> None:
    if abs(d) > D_LIMIT:
        raise ValueError(f"|d| must be at most 10^12, got {d}")


def _emit_json(record: dict) -> None:
    text = json.dumps(record, indent=2, sort_keys=True)
    assert json.loads(text) == record, "JSON record does not round-trip"
    print(text)


def cmd_graph(args) -> int:
    _check_d(args.d)
    c = parse_elem(args.c, args.d)
    graph = build_graph(c, args.d, args.n_max)
    label, code = _classify(graph, _catalog(args.catalog))
    record = graph.to_record()
    record["label"] = label
    record["code"] = code
    if args.include_infinity:
        record["note"] = "the fixed point at infinity is omitted from the vertex list"
    if args.dot:
        print(to_dot(graph))
        return 0
    if args.json:
        _emit_json(record)
        return 0
    print(f"G(f_c, Q(sqrt({record['d']}))) at c = {record['c']}:")
    print(f"  label {label}, {len(record['vertices'])} vertices, "
          f"cycle structure {tuple(record['cycle_structure'])}")
    print(f"  complete for periods <= {record['n_max']}")
    for key, val in sorted(record["flags"].items()):
        print(f"  {key}: {val}")
    succ = dict(record["edges"])
    for v in record["vertices"]:
        m, n = record["portraits"][v]
        print(f"    {v} -> {succ[v]}   portrait ({m}, {n})")
    return 0


def _survey_params(d: int, height: int) -> list:
    """Each c = (u + v sqrt(d))/w of the box once, in QuadElem.sort_key order.

    The representative with gcd(u, v, w) = 1 lies in the box whenever another
    one does.  The key is sort_key with the norm scaled by L^2 and the trace
    by L/2, L = lcm(1..height), so both are integers.
    """
    L = math.lcm(*range(1, height + 1))

    def key(t):
        u, v, w = t
        s = L // w
        return (u * u - d * v * v) * s * s, u * s, -v if u else v

    triples = sorted(((u, v, w) for w in range(1, height + 1) for u in range(-height, height + 1)
                      for v in range(-height, height + 1) if math.gcd(u, v, w) == 1), key=key)
    root = QuadElem(0, 1, d)  # s sqrt(m) with m squarefree; refuses a square d
    s, m = root.triple[1], root.d
    return [_quad(_norm(u, s * v, w), m) for u, v, w in triples]


def _catalog(path: str | None) -> tuple:
    return load_catalog(path) if path else builtin_catalog()


def _survey_one(task: tuple) -> str:
    c, n_max, catalog_path = task
    return classify(build_graph(c, c.d, n_max), _catalog(catalog_path))


# about (2H+1)^2 H parameters at height H; --d -1, 2 vCPUs, Python 3.11: height 60 took 40 s
# at 367 MB peak RSS (883 MB with --json), height 80 97 s at 839 MB (about 2 GB with --json)
HEIGHT_LIMIT = 60


def cmd_survey(args) -> int:
    _check_d(args.d)
    cpus = os.cpu_count() or 1  # a fork-started pool starts all its workers at once
    for name, value, limit in (("height", args.height, HEIGHT_LIMIT), ("jobs", args.jobs, cpus)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
        if value > limit:
            raise ValueError(f"{name} must be at most {limit}, got {value}")
    expected = {-1: QI_LABELS, -3: QW_LABELS}.get(args.d)
    params = _survey_params(args.d, args.height)
    tasks = [(c, args.n_max, args.catalog) for c in params]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        _catalog(args.catalog)  # built once here: fork-started workers inherit it
        chunk = -(-len(tasks) // (4 * args.jobs))
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_survey_one, tasks, chunksize=chunk))
    else:
        results = [_survey_one(task) for task in tasks]
    rows = []
    histogram: dict = {}
    for c, label in zip(params, results):
        flagged = expected is not None and label not in expected
        rows.append({"c": format_elem(c), "label": label, "flagged": flagged})
        histogram[label] = histogram.get(label, 0) + 1
    record = {
        "schema": "quaddyn/survey/v1",
        "d": args.d,
        "height": args.height,
        "n_max": args.n_max,
        "rows": rows,
        "histogram": dict(sorted(histogram.items())),
        "flagged": [r for r in rows if r["flagged"]],
    }
    if args.json:
        _emit_json(record)
        return 0
    for row in rows:
        marker = "  <-- OUTSIDE THE CLASSIFIED LIST" if row["flagged"] else ""
        print(f"{row['c']:>20}  {row['label']}{marker}")
    print("histogram:")
    for label, count in record["histogram"].items():
        print(f"  {label:>12}: {count}")
    if record["flagged"]:
        print(f"!! {len(record['flagged'])} parameter(s) fall outside the expected label list",
              file=sys.stderr)
    return 0


# the largest output degree d_n 2^(m-1) of dynatomic --m, symbolic and at a
# given --c; each takes about 17 s on 2 vCPUs with Python 3.11, and the next
# one up (128 symbolic, 864 at a c) 40 s or more
M_DEGREE_LIMIT = {"symbolic": 108, "specialized": 432}


def cmd_dynatomic(args) -> int:
    _check_d(args.d)
    if args.n < 1 or args.n > MAX_PERIOD:
        raise ValueError(f"period must be in 1..{MAX_PERIOD}")
    form = "symbolic" if args.c is None else "specialized"
    limit, d_n = M_DEGREE_LIMIT[form], dn_rn(args.n)[0]
    # d_n >= 2, so every m above limit.bit_length() exceeds the limit
    if args.m > 1 and (args.m > limit.bit_length() or d_n << (args.m - 1) > limit):
        raise ValueError(f"output degree d_n 2^(m-1) = {d_n}*2^{args.m - 1} exceeds {limit} "
                         f"for the {form} form")
    c = parse_elem(args.c, args.d) if args.c is not None else "c"
    poly = gen_dynatomic(args.m, args.n, c) if args.m else dynatomic(args.n, c)
    record = {
        "schema": "quaddyn/dynatomic/v1",
        "m": args.m,
        "n": args.n,
        "c": None if args.c is None else format_elem(c),
        "degree": poly.degree(),
        "d_n": dn_rn(args.n)[0],
        "r_n": dn_rn(args.n)[1],
        "coefficients": poly_to_json(poly),
    }
    if args.json:
        _emit_json(record)
    else:
        print(format_poly(poly))
    return 0


# the options each curve action reads, and their defaults
CURVE_OPTIONS = {
    "count": ("p", "deg"),
    "jacobian": ("p",),
    "torsion-bound": ("primes", "deg"),
    "genus": (),
    "structure": ("p", "deg"),
}
CURVE_DEFAULTS = {"p": 3, "deg": 1, "primes": "3,5"}


def _curve_help(name: str, what: str) -> str:
    users = ", ".join(action for action, names in CURVE_OPTIONS.items() if name in names)
    return f"{what}, default {CURVE_DEFAULTS[name]} ({users})"


def cmd_curve(args) -> int:
    for name, default in CURVE_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif name not in CURVE_OPTIONS[args.action]:
            raise ValueError(f"--{name} is not used by the {args.action} action")
    from .curves import (WeierstrassCurve, count_points_ff, curve_genus, elliptic_group_structure,
                         get_curve, jacobian_orders, torsion_bound)

    try:
        entry = get_curve(args.name)
    except KeyError as err:
        print(err.args[0], file=sys.stderr)
        return 1
    curve = entry.curve
    record = {"schema": "quaddyn/curve/v1", "curve": entry.name, "action": args.action}

    if args.action == "genus":
        record["genus"] = curve_genus(curve)
    elif args.action == "count":
        record["count"] = count_points_ff(curve, args.p, args.deg)
        record["q"] = args.p**args.deg
    elif args.action == "jacobian":
        orders = jacobian_orders(curve, args.p)
        record["order_p"], record["order_p2"] = orders
    elif args.action == "torsion-bound":
        try:
            primes = [int(p) for p in args.primes.split(",")]
        except ValueError:
            message = f"--primes must be comma-separated integers, got {args.primes!r}"
            raise ValueError(message) from None
        record["primes"] = primes
        record["bound"] = torsion_bound(curve, primes, args.deg)
    elif args.action == "structure":
        if not isinstance(curve, WeierstrassCurve):
            print("group structure needs a Weierstrass model (E17, E40)", file=sys.stderr)
            return 1
        record["structure"] = list(elliptic_group_structure(curve, args.p, args.deg))
    if args.json:
        _emit_json(record)
    else:
        body = {k: v for k, v in record.items() if k not in ("schema",)}
        print(", ".join(f"{k}={v}" for k, v in body.items()))
    return 0


def cmd_chabauty(args) -> int:
    from .chabauty import PREC_LIMIT, certify_residue_disk, full_theorem, transcript

    if args.prec < 1:
        raise ValueError(f"prec must be >= 1, got {args.prec}")
    if args.prec > PREC_LIMIT:
        raise ValueError(f"prec must be <= {PREC_LIMIT}, got {args.prec}")
    try:
        if args.disk:
            cert = certify_residue_disk(args.disk, args.prec)
            record = {"schema": "quaddyn/chabauty/v1", "single_disk": cert.to_record()}
            ok = cert.certified and cert.solutions <= 2
        else:
            report = full_theorem(prec=args.prec)
            record = report.to_record()
            ok = report.verdict()
    except RuntimeError as err:
        print(f"pipeline failure: {err}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump(record, fh, indent=2, sort_keys=True)
        except OSError as err:
            raise ValueError(f"cannot write {args.out}: {err.strerror}") from None
    if args.json:
        _emit_json(record)
    else:
        if "single_disk" in record:
            print(json.dumps(record["single_disk"], indent=2, sort_keys=True))
        else:
            print(transcript(report))
            print()
            print("verdict:", "verified" if ok else "NOT verified")
    return 0 if ok else 2


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quaddyn", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"quaddyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="build and classify a preperiodic graph")
    p.add_argument("--d", type=int, required=True, help="field discriminant parameter")
    p.add_argument("--c", required=True, help='parameter, e.g. "-1/4 + 3/8*i"')
    p.add_argument("--n-max", type=int, default=MAX_PERIOD, dest="n_max")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--catalog", default=None, help="override catalog (JSON witness list)")
    p.add_argument("--include-infinity", action="store_true",
                   help="note the omitted fixed point at infinity in the record")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("survey", help="sweep parameters of bounded height")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--n-max", type=int, default=4, dest="n_max")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers over c values")
    p.add_argument("--catalog", default=None, help="override catalog (JSON witness list)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("dynatomic", help="print a dynatomic polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--c", default=None, help="specialize at this parameter (else symbolic)")
    p.add_argument("--d", type=int, default=-1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dynatomic)

    p = sub.add_parser("curve", help="finite-field data for a registry curve")
    p.add_argument("name")
    p.add_argument("action", choices=list(CURVE_OPTIONS))
    p.add_argument("--p", type=int, help=_curve_help("p", "prime"))
    p.add_argument("--deg", type=int, choices=[1, 2], help=_curve_help("deg", "field degree"))
    p.add_argument("--primes", help=_curve_help("primes", "comma-separated primes"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("chabauty", help="run the X0(5)/Q(i) certification")
    p.add_argument("--prec", type=int, default=6, help="2-adic working precision (bits)")
    p.add_argument("--disk", choices=["P0", "P2", "P4"], default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.set_defaults(func=cmd_chabauty)
    return parser


def _glue_values(argv: list) -> list:
    """Join "--c -5/12" into "--c=-5/12" so leading minuses survive argparse."""
    out, k = [], 0
    while k < len(argv):
        tok = argv[k]
        if tok in ("--c",) and k + 1 < len(argv):
            out.append(f"{tok}={argv[k + 1]}")
            k += 2
        else:
            out.append(tok)
            k += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_glue_values(list(argv)))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
