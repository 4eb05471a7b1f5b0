import copy
import pickle
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from quaddyn import dynatomic, graphcat, orbit
from quaddyn.dynatomic import gen_dynatomic, specialize
from quaddyn.orbit import (
    PreperGraph,
    _admissible_flags,
    admissible_flags,
    build_graph,
    cycle_structure,
    periodic_points,
    portrait,
    portraits_of,
)
from polys_helper import PolyRing
from quaddyn.polys import QQ, QuadField, UniPoly
from quaddyn.quadfield import QuadElem, _norm, _quad, parse_elem, sorted_elems

F = Fraction
I = QuadElem(0, 1, -1)


def q(a, b=0, d=-1):
    return QuadElem(F(a), F(b), d)


def test_periodic_points_examples():
    pts = periodic_points(q(-1), n_max=3)
    assert pts[1] == set() and pts[2] == {q(0), q(-1)} and pts[3] == set()
    pts = periodic_points(I, n_max=2)
    assert pts[1] == set() and pts[2] == {-I, q(-1, 1)}
    pts = periodic_points(q(-3), n_max=2)
    assert pts[2] == {q(1), q(-2)}


def test_portrait_examples():
    c = q(F(-21, 16))
    assert portrait(c, q(F(7, 4))) == (0, 1)
    assert portrait(c, q(F(5, 4))) == (1, 2)
    c0 = q(0)
    assert portrait(c0, q(1)) == (0, 1)
    assert portrait(c0, I) == (2, 1)


def test_portrait_rejects_wandering_points():
    with pytest.raises(RuntimeError):
        portrait(q(1), q(1))  # orbit of 1 under z^2 + 1 escapes


@pytest.mark.parametrize("c, alpha, fields", [
    (I, q(0, 1, 2), "sqrt(-1) vs sqrt(2)"),
    (q(0, 1, 2), I, "sqrt(2) vs sqrt(-1)"),
    (q(F(1, 4), 1, -3), q(0, 1, 5), "sqrt(-3) vs sqrt(5)"),
])
def test_portrait_refuses_mixed_fields(c, alpha, fields):
    with pytest.raises(ValueError, match=rf"^mixed fields: {re.escape(fields)}$"):
        portrait(c, alpha)


def test_an_element_of_another_field_is_refused():
    message = re.escape("element lives in Q(sqrt(-1)), not Q(sqrt(2))")
    for call in (build_graph, periodic_points):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(I, 2)


def test_build_graph_examples():
    assert build_graph(q(2), n_max=4).size() == 0
    g = build_graph(q(F(-301, 144)), n_max=4)
    assert g.size() == 6
    expected = {q(x) for x in (F(5, 12), F(-5, 12), F(19, 12), F(-19, 12), F(23, 12), F(-23, 12))}
    assert set(g.vertices) == expected
    assert cycle_structure(g) == (3,)
    g = build_graph(parse_elem("-1/4 + 3/8*i", -1), n_max=4)
    assert g.size() == 10
    pts = {parse_elem(s, -1) for s in
           ("1/4 - 1/4*i", "1/4 + 3/4*i", "3/4 + 1/4*i", "3/4 - 3/4*i", "5/4 - 1/4*i")}
    assert set(g.vertices) == pts | {-p for p in pts}


def test_negation_closure_and_succ():
    g = build_graph(q(F(-13, 9)), n_max=3)
    vertices = set(g.vertices)
    for v in vertices:
        assert -v in vertices
        assert g.succ[v] == v * v + g.parameter
        assert g.succ[-v] == g.succ[v]


def test_in_degree_structure():
    # generic: in-degrees 0 or 2
    g = build_graph(q(-6), n_max=3)
    degrees = {v: 0 for v in g.vertices}
    for v in g.vertices:
        degrees[g.succ[v]] += 1
    assert all(deg in (0, 2) for deg in degrees.values())
    # 0 in the graph forces the critical value to have in-degree 1
    g = build_graph(I, n_max=3)
    degrees = {v: 0 for v in g.vertices}
    for v in g.vertices:
        degrees[g.succ[v]] += 1
    crit = I  # f(0) = c
    assert degrees[crit] == 1
    others = {v: d for v, d in degrees.items() if v != crit}
    assert all(deg in (0, 2) for deg in others.values())


def test_monotone_in_n_max():
    c = q(F(-29, 16))
    sizes = [build_graph(c, n_max=k).size() for k in (1, 2, 3, 4)]
    assert sizes == sorted(sizes)
    assert sizes[2] == sizes[3] == 8


def test_symbolic_dynatomic_is_built_once_per_process(monkeypatch):
    calls = []
    build = dynatomic.dynatomic

    def counting(n, c="c"):
        calls.append(n)
        return build(n, c)

    monkeypatch.setattr(dynatomic, "dynatomic", counting)
    dynatomic.symbolic_dynatomic.cache_clear()
    graphcat.builtin_catalog.cache_clear()
    graphcat.builtin_catalog()
    build_graph(q(F(-1, 4), F(3, 8)))
    assert calls == []  # the height-box engine needs no Phi_n
    periodic_points(q(F(-1, 4), F(3, 8)))
    assert calls == [1, 2, 3, 4, 5, 6]
    periodic_points(q(F(-1, 4), F(3, 8)))
    periodic_points(q(F(-5, 12), 0, -3))
    assert calls == [1, 2, 3, 4, 5, 6]


def test_portraits_match_generalized_dynatomic():
    g = build_graph(q(F(-21, 16)), n_max=3)
    for v in g.vertices:
        m, n = g.portraits[v]
        phi = specialize(gen_dynatomic(m, n), g.parameter)
        assert phi.eval(v).is_zero()


def test_cycle_counts_bounded_by_rn():
    from quaddyn.dynatomic import dn_rn

    for c, d in ((q(F(-29, 16)), -1), (q(0, 1), -1), (q(F(-5, 12), 0, -3), -3)):
        g = build_graph(c, d, n_max=4)
        structure = cycle_structure(g)
        for length in set(structure):
            if length >= 2:
                assert structure.count(length) <= dn_rn(length)[1]


def test_admissibility_examples():
    g = build_graph(q(0, 0, -3), -3, n_max=3)
    flags = admissible_flags(g, g.parameter)
    assert not flags.admissible and flags.zero_is_preperiodic
    g = build_graph(q(F(1, 4), 0, -3), -3, n_max=3)
    flags = admissible_flags(g, g.parameter)
    assert flags.admissible and not flags.strongly_admissible and flags.c_is_quarter
    g = build_graph(q(-6), n_max=3)
    flags = admissible_flags(g, g.parameter)
    assert flags.admissible and flags.strongly_admissible


def test_cycle_structure_examples():
    assert cycle_structure(build_graph(q(F(-13, 9)), n_max=3)) == (2,)
    assert cycle_structure(build_graph(q(F(-21, 16)), n_max=3)) == (1, 1, 2)
    assert cycle_structure(build_graph(q(2), n_max=3)) == ()


def counter_cycle_structure(graph):
    """cycle_structure as it was counted with Counter, the oracle of the dict count."""
    on_cycles = Counter(n for m, n in graph.portraits.values() if m == 0)
    return tuple(n for n in sorted(on_cycles) for _ in range(on_cycles[n] // n))


def counter_structural_flags(graph, cycles):
    """(admissible, strongly admissible) by in-degrees and cycle counts, counted with Counter."""
    in_deg = Counter(graph.succ.values())
    degrees_ok = all(in_deg[v] in (0, 2) for v in graph.vertices)
    counts = Counter(cycles)
    cycles_ok = all(length == 1 or mult <= dynatomic.dn_rn(length)[1]
                    for length, mult in counts.items())
    admissible = degrees_ok and cycles_ok
    return admissible, admissible and counts.get(1, 0) in (0, 2)


def random_functional_graph(rng, d):
    """A map on 1-12 elements of Q(sqrt(d)): arbitrary, or every image hit by exactly two."""
    points = {_quad(_norm(rng.randint(-4, 4), rng.randint(-2, 2), rng.randint(1, 3)), d)
              for _ in range(rng.randint(1, 12))}
    vertices = sorted_elems(points)
    if len(vertices) < 2 or rng.random() < 0.5:
        succ = {v: rng.choice(vertices) for v in vertices}
    else:  # pairs onto distinct targets: in-degrees 0 and 2 only
        vertices = vertices[:len(vertices) - len(vertices) % 2]
        targets = rng.sample(vertices, len(vertices) // 2)
        succ = {v: targets[k // 2] for k, v in enumerate(rng.sample(vertices, len(vertices)))}
    parameter = rng.choice([q(F(1, 4), 0, d), q(-1, 0, d), q(F(1, 3), 1, d)])
    return PreperGraph(tuple(vertices), succ, portraits_of(succ), d, parameter, 6)


def test_dict_counts_match_the_counter_counts_on_random_functional_graphs():
    rng = random.Random(2026)
    outcomes = Counter()
    for _ in range(400):
        graph = random_functional_graph(rng, rng.choice([-1, -2, -3, -7, -11, 2, 5]))
        cycles = cycle_structure(graph)
        assert cycles == counter_cycle_structure(graph)
        zero_in, quarter = 0 in graph.succ, graph.parameter.triple == (1, 0, 4)
        structural = counter_structural_flags(graph, cycles)
        if structural == (not zero_in, not zero_in and not quarter):
            flags = _admissible_flags(graph, graph.parameter, cycles)
            assert (flags.admissible, flags.strongly_admissible) == structural
            outcomes[structural] += 1
        else:
            with pytest.raises(RuntimeError, match="admissibility criteria disagree"):
                _admissible_flags(graph, graph.parameter, cycles)
            outcomes["disagree"] += 1
    assert len(outcomes) == 4 and min(outcomes.values()) >= 10, outcomes


def test_dict_counts_match_the_counter_counts_on_the_witnesses():
    for label, d, c_text, size, _code in graphcat._TABLE:
        graph = build_graph(parse_elem(c_text, d), d)
        assert graph.size() == size, label
        cycles = cycle_structure(graph)
        assert cycles == counter_cycle_structure(graph), label
        flags = admissible_flags(graph, graph.parameter)
        assert (flags.admissible, flags.strongly_admissible) == \
            counter_structural_flags(graph, cycles), label


def test_graph_record_round_trip():
    import json

    g = build_graph(I, n_max=3)
    record = g.to_record()
    assert json.loads(json.dumps(record)) == record
    assert record["schema"] == "quaddyn/graph/v1"
    assert len(record["vertices"]) == g.size()
    assert record["flags"]["zero_is_preperiodic"]


@pytest.mark.parametrize("d, c_text", [(-1, "-1/4 + 3/8*i"), (-3, "-5/12"), (-1, "2")])
def test_to_record_formats_each_vertex_once(monkeypatch, d, c_text):
    g = build_graph(parse_elem(c_text, d), d)
    calls = []
    monkeypatch.setattr(orbit, "format_elem", lambda v, style: calls.append(v) or "x")
    g.to_record()
    assert len(calls) == g.size() + 1


@pytest.mark.parametrize("d, c_text", [(-1, "-1/4 + 3/8*i"), (-3, "-5/12")])
def test_record_text_reads_back_to_the_graph(d, c_text):
    c = parse_elem(c_text, d)
    g = build_graph(c, d)
    record = g.to_record()
    assert [parse_elem(v, d) for v in record["vertices"]] == list(g.vertices)
    for v, image in record["edges"]:
        assert parse_elem(v, d) ** 2 + c == parse_elem(image, d)
    assert {parse_elem(v, d): tuple(mn) for v, mn in record["portraits"].items()} == g.portraits


def test_values_pickle_and_deep_copy():
    # --jobs workers take each c as it is; slot classes that block __setattr__
    # need their own __reduce__ for that
    ring = PolyRing(QQ, "c")
    values = [QuadElem(F(1, 3), F(-2, 5), d) for d in (-1, -3, 2, -4, 18, 999999999989)]
    values += [UniPoly(QQ, [F(1, 2), 0, F(-3)]), UniPoly(QuadField(-3), [q(1, 2, -3), q(-1)]),
               UniPoly(ring, [ring.gen(), ring.of(3)], "x"),
               build_graph(parse_elem("-1/4+3/8*i", -1), -1)]
    for value in values:
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert copied == value and type(copied) is type(value) and repr(copied) == repr(value)
    x = QuadElem(F(1, 3), F(-2, 5), 2)
    assert pickle.loads(pickle.dumps(x)).triple == x.triple and hash(copy.deepcopy(x)) == hash(x)


def test_graph_records_refuse_assignment():
    graph = build_graph(parse_elem("-1/4+3/8*i", -1), -1)
    flags = admissible_flags(graph, graph.parameter)
    for record, name in ((graph, "field"), (graph, "extra"), (flags, "admissible")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
