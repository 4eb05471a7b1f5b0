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

import json
import math
import os
import re
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import __version__
from .dynatomic import MAX_PERIOD, dn_rn, dynatomic, gen_dynatomic
from .graphcat import _classify, builtin_catalog, classify, load_catalog, to_dot
from .orbit import build_graph
from .polys import format_terms, poly_to_json
from .quadfield import D_LIMIT, _norm, _quad, format_elem, parse_elem, sorted_elems, split_field

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


_WORDS = {True: "true", False: "false", None: "null"}


def _json_text(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) on dicts with str keys, lists, str, int,
    bool and None; any other type, or a key that is not a str, raises TypeError."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _WORDS[value]
    inner = indent + "  "
    if kind is list:
        items, ends = [_json_text(v, inner) for v in value], "[]"
    elif kind is dict:  # encode_basestring_ascii refuses a key that is not a str
        items, ends = [f"{encode_basestring_ascii(k)}: {_json_text(value[k], inner)}"
                       for k in sorted(value)], "{}"
    else:
        raise TypeError(f"no JSON text for {kind.__name__}")
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{indent}{ends[1]}" if items else ends


def _emit_json(record: dict) -> None:
    text = _json_text(record)
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
    one does; quadfield.sorted_elems orders them.
    """
    s, m = split_field(d)
    return sorted_elems(_quad(_norm(u, s * v, w), m) for w in range(1, height + 1)
                        for u in range(-height, height + 1) for v in range(-height, height + 1)
                        if math.gcd(u, v, w) == 1)


def _catalog(path: str | None) -> tuple:
    return load_catalog(path) if path else builtin_catalog()


def _survey_one(task: tuple) -> str:
    c, n_max, catalog_path = task
    return classify(build_graph(c, c.d, n_max), _catalog(catalog_path))


# about (2H+1)^2 H parameters at height H; --d -1, 2 vCPUs, Python 3.11: height 60 took 40 s
# at 373 MB peak RSS (618 MB with --json), height 30 at 60 MB (104 MB), height 80 97 s at 839 MB
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


# the largest output degree d_n 2^(m-1) of dynatomic --m, symbolic and at a given --c; on 2
# vCPUs with Python 3.11 the slowest call inside takes 0.2 s symbolic (n = 6, m = 2; degree
# 216 0.4 s) and 4 s at a c of height 10^7 (n = 6, m = 4; degree 864 there 45 s)
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
    # symbolic: over Z[c][x], each x-coefficient an int tuple in c
    coeffs = ([format_terms([str(k) for k in p], "c") for p in poly] if args.c is None
              else poly_to_json(poly))
    record = {
        "schema": "quaddyn/dynatomic/v1",
        "m": args.m,
        "n": args.n,
        "c": None if args.c is None else format_elem(c),
        "degree": len(coeffs) - 1,
        "d_n": dn_rn(args.n)[0],
        "r_n": dn_rn(args.n)[1],
        "coefficients": coeffs,
    }
    if args.json:
        _emit_json(record)
    else:
        print(format_terms(coeffs, "x"))
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
                fh.write(_json_text(record))
        except OSError as err:
            raise ValueError(f"cannot write {args.out}: {err.strerror}") from None
    if args.json:
        _emit_json(record)
    else:
        if "single_disk" in record:
            print(_json_text(record["single_disk"]))
        else:
            print(transcript(report))
            print()
            print("verdict:", "verified" if ok else "NOT verified")
    return 0 if ok else 2


# each subcommand's handler, help and arguments, an argument as add_argument's name and
# keywords in help order: build_parser hands them to argparse, _fast_args reads them directly
FLAG = {"action": "store_true", "default": False}
COMMANDS = {
    "graph": (cmd_graph, "build and classify a preperiodic graph", {
        "--d": {"type": int, "required": True, "help": "field discriminant parameter"},
        "--c": {"required": True, "help": 'parameter, e.g. "-1/4 + 3/8*i"'},
        "--n-max": {"type": int, "default": MAX_PERIOD},
        "--json": FLAG, "--dot": FLAG,
        "--catalog": {"help": "override catalog (JSON witness list)"},
        "--include-infinity": {**FLAG, "help": "note the omitted fixed point at infinity in "
                                                "the record"},
    }),
    "survey": (cmd_survey, "sweep parameters of bounded height", {
        "--d": {"type": int, "required": True}, "--height": {"type": int, "required": True},
        "--n-max": {"type": int, "default": 4},
        "--jobs": {"type": int, "default": 1, "help": "parallel workers over c values"},
        "--catalog": {"help": "override catalog (JSON witness list)"},
        "--json": FLAG,
    }),
    "dynatomic": (cmd_dynatomic, "print a dynatomic polynomial", {
        "--n": {"type": int, "required": True}, "--m": {"type": int, "default": 0},
        "--c": {"help": "specialize at this parameter (else symbolic)"},
        "--d": {"type": int, "default": -1},
        "--json": FLAG,
    }),
    "curve": (cmd_curve, "finite-field data for a registry curve", {
        "name": {}, "action": {"choices": list(CURVE_OPTIONS)},
        "--p": {"type": int, "help": _curve_help("p", "prime")},
        "--deg": {"type": int, "choices": [1, 2], "help": _curve_help("deg", "field degree")},
        "--primes": {"help": _curve_help("primes", "comma-separated primes")},
        "--json": FLAG,
    }),
    "chabauty": (cmd_chabauty, "run the X0(5)/Q(i) certification", {
        "--prec": {"type": int, "default": 6, "help": "2-adic working precision (bits)"},
        "--disk": {"choices": ["P0", "P2", "P4"]},
        "--json": FLAG,
        "--out": {"help": "also write the JSON report here"},
    }),
}


@lru_cache(maxsize=1)
def build_parser():
    import argparse

    parser = argparse.ArgumentParser(prog="quaddyn", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"quaddyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for key, keywords in arguments.items():
            p.add_argument(key, **keywords)
        p.set_defaults(func=func)
    return parser


# argparse reads a token that starts with "-" as a value only when it matches this
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _fast_args(argv):
    """parse_args's namespace for a well-formed argv, else None: argparse then parses it.

    Well formed: a subcommand, its positionals and its exact long options in
    any order, each option once, every value of its type and among its choices.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, arguments = COMMANDS[argv[0]]
    pending = [key for key in arguments if key[0] != "-"]  # the positionals still to come
    found, tokens = {}, iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            if not pending:
                return None
            key, value = pending.pop(0), token
        else:
            key, eq, value = token.partition("=")
            if key not in arguments or key in found or eq and arguments[key].get("action"):
                return None
            if arguments[key].get("action"):
                value = True
            elif not eq:
                value = next(tokens, None)
                # _glue_values hands argparse the token after --c as its value, whatever it is
                if value is None or (value[:1] == "-" and key != "--c"
                                     and not _NEGATIVE_NUMBER.match(value)):
                    return None
        keywords = arguments[key]
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if value not in keywords.get("choices", (value,)):
            return None
        found[key] = value
    args = {"command": argv[0], "func": func}
    for key, keywords in arguments.items():
        if key not in found and (key[0] != "-" or keywords.get("required")):
            return None
        args[key.lstrip("-").replace("-", "_")] = found.get(key, keywords.get("default"))
    return SimpleNamespace(**args)


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
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(_glue_values(list(argv)))
        except SystemExit as exc:
            return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
