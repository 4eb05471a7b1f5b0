import random
from fractions import Fraction

import pytest

from quaddyn import graphcat
from quaddyn.graphcat import _TABLE, builtin_catalog, canonical_code, classify, to_dot
from quaddyn.orbit import build_graph
from quaddyn.quadfield import QuadElem, parse_elem

F = Fraction


def q(a, b=0, d=-1):
    return QuadElem(F(a), F(b), d)


def test_empty_graph_code():
    assert canonical_code({}) == ""


def test_codes_separate_same_size_graphs():
    g1 = build_graph(q(F(-29, 16)), n_max=3)  # 8 vertices, one 3-cycle
    g2 = build_graph(q(F(-21, 16)), n_max=3)  # 8 vertices, cycles (1,1,2)
    assert g1.size() == g2.size() == 8
    assert canonical_code(g1) != canonical_code(g2)


def test_codes_identify_isomorphic_graphs_across_fields():
    g1 = build_graph(q(F(-10, 9)), -1, n_max=3)
    g2 = build_graph(q(F(-3, 4), 0, -3), -3, n_max=3)
    assert canonical_code(g1) == canonical_code(g2)  # both 6(1,1)


def test_code_is_isomorphism_invariant_under_relabeling():
    g = build_graph(parse_elem("-1/4 + 3/8*i", -1), n_max=3)
    base = {v: g.succ[v] for v in g.vertices}
    code = canonical_code(base)
    rng = random.Random(42)
    names = list(base)
    for _ in range(100):
        shuffled = list(names)
        rng.shuffle(shuffled)
        relabel = dict(zip(names, shuffled))
        permuted = {relabel[v]: relabel[base[v]] for v in base}
        assert canonical_code(permuted) == code


def test_malformed_graph_rejected():
    with pytest.raises(ValueError):
        canonical_code({"a": "b"})  # successor leaves the vertex set


def test_catalog_contents():
    catalog = builtin_catalog()
    assert len(catalog) == 17
    labels = [e.label for e in catalog]
    assert labels == [
        "0", "3(2)", "4(1)", "4(1,1)", "4(2)", "5(1,1)a", "5(1,1)b", "5(2)a",
        "6(1,1)", "6(2)", "6(2,1)", "6(3)", "7(2,1,1)a", "8(2)a", "8(2,1,1)",
        "8(3)", "10(2,1,1)a",
    ]
    assert len({e.code for e in catalog}) == 17
    by_label = {e.label: e for e in catalog}
    assert by_label["8(2)a"].witness[0] == -3
    assert by_label["5(2)a"].witness == (-1, q(0, 1))


def test_table_rows_are_those_of_their_witness_graphs():
    """The oracle of the builtin catalog: each row's vertex count and code are its witness
    graph's, and no two rows share a code."""
    for label, d, c_text, size, code in _TABLE:
        graph = build_graph(parse_elem(c_text, d), d)
        assert (graph.size(), canonical_code(graph)) == (size, code), label
    assert len({row[4] for row in _TABLE}) == len(_TABLE) == 17


def test_builtin_catalog_builds_no_graph(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the builtin catalog built or encoded a graph")

    monkeypatch.setattr(graphcat, "build_graph", refuse)
    monkeypatch.setattr(graphcat, "canonical_code", refuse)
    builtin_catalog.cache_clear()
    try:
        catalog = builtin_catalog()
    finally:
        builtin_catalog.cache_clear()
    assert [(e.label, e.code) for e in catalog] == [(row[0], row[4]) for row in _TABLE]
    assert [e.witness for e in catalog] == [(d, parse_elem(c, d)) for _, d, c, _, _ in _TABLE]


def test_classify_on_witnesses():
    for entry in builtin_catalog():
        graph = build_graph(entry.witness[1], entry.witness[0])
        assert classify(graph) == entry.label


def test_classify_fallback_labels():
    g = build_graph(q(-2, 0, 5), 5, n_max=4)
    assert g.size() == 9
    assert classify(g) == "9(2,1,1)?"
    g = build_graph(q(F(3, 16), 0, -15), -15, n_max=4)
    assert g.size() == 10
    assert classify(g) == "10(2,1,1)b?"


def test_to_dot():
    empty = build_graph(q(2), n_max=3)
    assert to_dot(empty) == "digraph G {}"
    g = build_graph(q(-1), n_max=3)
    dot = to_dot(g)
    lines = dot.splitlines()
    assert lines[0] == "digraph G {" and lines[-1] == "}"
    assert sum("->" in line for line in lines) == 3
    assert '"0" -> "-1";' in dot and '"-1" -> "0";' in dot
    g6 = build_graph(q(F(-301, 144)), n_max=3)
    dot6 = to_dot(g6)
    assert sum("->" in line for line in dot6.splitlines()) == 6
    assert to_dot(g6) == dot6  # deterministic


def test_builtin_catalog_parses_no_witness_until_read(monkeypatch):
    def refuse(*_args):
        raise AssertionError("the builtin catalog parsed a witness")

    builtin_catalog.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(graphcat, "parse_elem", refuse)
            catalog = builtin_catalog()
            assert [(e.label, e.code) for e in catalog] == [(row[0], row[4]) for row in _TABLE]
        witnesses = [e.witness for e in catalog]
        assert witnesses == [(d, parse_elem(c, d)) for _, d, c, _, _ in _TABLE]
        assert all(e.witness[1] is c for e, (_, c) in zip(catalog, witnesses))  # parsed once
    finally:
        builtin_catalog.cache_clear()
