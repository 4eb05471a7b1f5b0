"""Canonical forms and the catalog of realized preperiodic graphs.

canonical_code encodes an abstract functional digraph up to isomorphism:
each weakly-connected component is a cycle with trees hanging off it, so the
trees are AHU-encoded (children sorted), the cycle's sequence of tree codes
is rotated to its lexicographically minimal rotation, and the component
codes are sorted and joined.  Two graphs get the same code iff they are
isomorphic as directed graphs.

The builtin catalog is data: the seventeen graphs realized over Q(i) or Q(w),
each a _TABLE row of its witness (d, c) and its witness graph's vertex count
and canonical code, which the tests rebuild and check.  A catalog file has
no codes, so load_catalog builds and checks each of its witness graphs.
"""

from __future__ import annotations

from functools import lru_cache

from .orbit import PreperGraph, build_graph, cycle_structure, portraits_of
from .quadfield import D_LIMIT, format_elem, parse_elem


def _ahu(vertex, children, memo) -> str:
    if vertex in memo:
        return memo[vertex]
    code = "(" + "".join(sorted(_ahu(ch, children, memo) for ch in children[vertex])) + ")"
    memo[vertex] = code
    return code


def _min_rotation(seq: list[str]) -> tuple[str, ...]:
    best = None
    for k in range(len(seq)):
        rot = tuple(seq[k:] + seq[:k])
        if best is None or rot < best:
            best = rot
    return best


def canonical_code(graph) -> str:
    """Label-free canonical encoding; equal codes iff isomorphic digraphs."""
    if isinstance(graph, PreperGraph):
        succ, portraits = graph.succ, graph.portraits
    else:
        succ = dict(graph)
        portraits = portraits_of(succ)

    children = {v: [] for v in succ}
    for v, (m, _n) in portraits.items():
        if m:
            children[succ[v]].append(v)

    memo = {}
    comp_codes = []
    seen = set()
    for v, (m, _n) in portraits.items():
        if m or v in seen:
            continue
        cyc = [v]
        cur = succ[v]
        while cur != v:
            cyc.append(cur)
            cur = succ[cur]
        seen |= set(cyc)
        tree_seq = [_ahu(u, children, memo) for u in cyc]
        comp_codes.append("[" + "|".join(_min_rotation(tree_seq)) + "]")
    return "".join(sorted(comp_codes))


# --- the Appendix-B table of realized graphs --------------------------------
# label, witness d, witness c (text), the witness graph's vertex count and canonical code
_TABLE = (
    ("0", -1, "2", 0, ""),
    ("3(2)", -1, "-1", 3, "[(())|()]"),
    ("4(1)", -3, "1/4", 4, "[((()()))]"),
    ("4(1,1)", -1, "-6", 4, "[(())][(())]"),
    ("4(2)", -1, "-3", 4, "[(())|(())]"),
    ("5(1,1)a", -1, "-2", 5, "[((()))][(())]"),
    ("5(1,1)b", -1, "0", 5, "[((()()))][()]"),
    ("5(2)a", -1, "i", 5, "[((()))|(())]"),
    ("6(1,1)", -1, "-10/9", 6, "[((()()))][(())]"),
    ("6(2)", -1, "-13/9", 6, "[((()()))|(())]"),
    ("6(2,1)", -1, "1/4", 6, "[(())][(())|(())]"),
    ("6(3)", -1, "-301/144", 6, "[(())|(())|(())]"),
    ("7(2,1,1)a", -3, "0", 7, "[(())][(())|(())][()]"),
    ("8(2)a", -3, "-5/12", 8, "[((()()))|((()()))]"),
    ("8(2,1,1)", -1, "-21/16", 8, "[(())][(())][(())|(())]"),
    ("8(3)", -1, "-29/16", 8, "[((()()))|(())|(())]"),
    ("10(2,1,1)a", -1, "-1/4 + 3/8*i", 10, "[((()()))|(())][(())][(())]"),
)


class CatalogEntry:
    __slots__ = ("label", "code", "_witness")

    def __init__(self, label: str, code: str, witness: tuple):
        self.label = label
        self.code = code
        self._witness = witness  # (d, c as QuadElem), or (d, c as text) until first read

    @property
    def witness(self) -> tuple:
        d, c = self._witness
        if isinstance(c, str):
            self._witness = d, c = d, parse_elem(c, d)
        return d, c

    def __repr__(self):
        return f"CatalogEntry({self.label})"


def _entries_from_rows(rows, path: str) -> tuple[CatalogEntry, ...]:
    """Catalog entries from a file's (label, d, c text, expected vertex count) rows.

    Each witness graph is built, its vertex count checked when the row gives
    one, and its canonical code taken; a failure is a bad file (ValueError).
    """
    def failure(message: str) -> Exception:
        return ValueError(f"catalog integrity failure: {message}: {path}")

    entries = []
    for label, d, c_text, expected in rows:
        try:
            c = parse_elem(c_text, d)
        except (ValueError, ZeroDivisionError) as err:
            raise failure(str(err)) from None
        graph = build_graph(c, d)
        if expected is not None and graph.size() != expected:
            raise failure(f"witness {label} gave {graph.size()} vertices, expected {expected}")
        entries.append(CatalogEntry(label, canonical_code(graph), (d, c)))
    codes = [e.code for e in entries]
    if len(set(codes)) != len(codes):
        raise failure("duplicate canonical codes")
    return tuple(entries)


@lru_cache(maxsize=1)
def builtin_catalog() -> tuple[CatalogEntry, ...]:
    """The seventeen realized graphs, read from _TABLE: no graph is built, no witness parsed."""
    return tuple(CatalogEntry(label, code, (d, c_text))
                 for label, d, c_text, _size, code in _TABLE)


@lru_cache(maxsize=None)
def load_catalog(path: str) -> tuple[CatalogEntry, ...]:
    """Catalog override: a JSON list of {label, d, c[, vertices]} witnesses.

    Each file is read and its witnesses verified once per process.
    """
    import json

    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ValueError(f"cannot read catalog {path}: {err.strerror}") from None
    except ValueError as err:  # json.JSONDecodeError, or bytes that are not UTF-8
        raise ValueError(f"catalog {path} is not valid JSON: {err}") from None
    if not isinstance(raw, list) or not all(isinstance(row, dict) for row in raw):
        raise ValueError(f"catalog is not a list of objects: {path}")
    try:
        rows = [(row["label"], row["d"], row["c"], row.get("vertices")) for row in raw]
    except KeyError as err:
        raise ValueError(f"catalog row without {err.args[0]!r}: {path}") from None
    for row in rows:
        for key, value, kind in zip(("label", "d", "c", "vertices"), row, (str, int, str, int)):
            if type(value) is not kind and (key, value) != ("vertices", None):
                raise ValueError(f"catalog row with a non-{kind.__name__} {key!r}: {path}")
        if abs(row[1]) > D_LIMIT:
            raise ValueError(f"catalog row with |d| above 10^12: {path}")
    return _entries_from_rows(rows, path)


def _structure_label(graph: PreperGraph) -> str:
    cycles = ",".join(str(n) for n in sorted(cycle_structure(graph), reverse=True))
    return f"{graph.size()}({cycles})"


def classify(graph: PreperGraph, catalog: tuple | None = None) -> str:
    """Catalog label of the graph, or a synthesized "N(l1,...)?" label.

    When the catalog already holds entries of the same shape (vertex count
    and cycle structure) under variant letters, the next free letter is used,
    e.g. a near-miss of 10(2,1,1)a comes out as "10(2,1,1)b?".
    """
    return _classify(graph, catalog)[0]


def _classify(graph: PreperGraph, catalog: tuple | None) -> tuple[str, str]:
    """(classify's label, the canonical code it was looked up by)."""
    entries = builtin_catalog() if catalog is None else catalog
    code = canonical_code(graph)
    for entry in entries:
        if entry.code == code:
            return entry.label, code
    base = _structure_label(graph)
    taken = set()
    for entry in entries:
        if entry.label == base:
            taken.add("a")
        elif entry.label.startswith(base) and len(entry.label) == len(base) + 1:
            taken.add(entry.label[-1])
    if not taken:
        return base + "?", code
    letter = next(ch for ch in "abcdefghij" if ch not in taken)
    return base + letter + "?", code


def to_dot(graph: PreperGraph) -> str:
    """Deterministic DOT output, vertices in QuadElem.sort_key order, each formatted once."""
    if not graph.vertices:
        return "digraph G {}"
    text = {v: format_elem(v) for v in graph.vertices}
    lines = ["digraph G {"]
    lines += [f'    "{text[v]}";' for v in graph.vertices]
    lines += [f'    "{text[v]}" -> "{text[graph.succ[v]]}";' for v in graph.vertices]
    lines.append("}")
    return "\n".join(lines)
