"""Tests for vertex-criticality reports, peeling, and join behavior."""

import pytest
from hypothesis import given, settings

from kcrit.critical import (
    CriticalityReport,
    check_min_class_colorings,
    find_critical_subgraph,
    is_vertex_critical,
    verify_join_criticality,
)
from kcrit.families import co_odd_cycle, odd_cycle
from kcrit.graph import (
    delete_vertex,
    disjoint_union,
    from_edge_list,
    induced_subgraph,
    join,
)
from kcrit.invariants import chromatic_number
from kcrit.canon import is_isomorphic
from kcrit.patterns import named_graph

from util import graphs


# ===== is_vertex_critical =====

def test_known_critical_graphs():
    assert is_vertex_critical(named_graph("K5"), 5) == CriticalityReport(5, True, None)
    assert is_vertex_critical(named_graph("C7"), 3) == CriticalityReport(3, True, None)
    assert is_vertex_critical(named_graph("K1"), 1) == CriticalityReport(1, True, None)


@pytest.mark.parametrize("name, k", [("C5", 3), ("C7", 3), ("K4", 4), ("C6", 3)])
def test_alpha_computed_once(monkeypatch, name, k):
    # alpha(C7) = 3 takes the branch-and-bound path, the rest alpha <= 2
    import kcrit.critical
    import kcrit.invariants
    g = named_graph(name)
    chi = chromatic_number(g)
    calls = []

    def counted(g):
        calls.append(g.n)
        return kcrit.invariants._alpha_raw(g.n, g.adj, (1 << g.n) - 1)

    monkeypatch.setattr(kcrit.critical, "independence_number", counted)
    monkeypatch.setattr(kcrit.invariants, "independence_number", counted)
    assert is_vertex_critical(g, k).k == chi
    assert calls == [g.n]


def test_wrong_chromatic_number_short_circuits():
    rep = is_vertex_critical(named_graph("C6"), 3)
    assert rep == CriticalityReport(2, False, None)


def test_witness_vertex():
    # C5 plus an isolated vertex: chi = 3 but deleting vertex 5 keeps it
    g = disjoint_union(named_graph("C5"), named_graph("K1"))
    rep = is_vertex_critical(g, 3)
    assert rep.k == 3 and not rep.is_critical and rep.witness == 5
    assert chromatic_number(delete_vertex(g, rep.witness)) == 3


def test_bad_k():
    with pytest.raises(ValueError):
        is_vertex_critical(named_graph("K2"), 0)


@given(graphs(min_n=1, max_n=7))
@settings(max_examples=60, deadline=None)
def test_report_matches_definition(g):
    chi = chromatic_number(g)
    rep = is_vertex_critical(g, chi)
    assert rep.k == chi
    expected = all(chromatic_number(delete_vertex(g, v)) < chi for v in range(g.n))
    assert rep.is_critical == expected
    if rep.is_critical:
        # standard consequence: minimum degree at least chi - 1
        assert min(g.degree(v) for v in range(g.n)) >= chi - 1
    elif rep.witness is not None:
        assert chromatic_number(delete_vertex(g, rep.witness)) == chi


# ===== find_critical_subgraph =====

def test_peel_pendant_cycle():
    g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    s = find_critical_subgraph(g, 3)
    assert s == 0b011111
    assert is_isomorphic(induced_subgraph(g, s), named_graph("C5"))


def test_peel_dominated_duplicate():
    co9 = co_odd_cycle(5)
    extra = [(9, u) for u in range(9) if co9.has_edge(0, u)]
    g = from_edge_list(10, list(co9.edges()) + extra)
    s = find_critical_subgraph(g, 5)
    assert bin(s).count("1") == 9
    assert is_isomorphic(induced_subgraph(g, s), co9)


def test_peel_join_supergraph():
    g = join(named_graph("K5"), named_graph("co-K4"))
    s = find_critical_subgraph(g, 5)
    assert is_vertex_critical(induced_subgraph(g, s), 5).is_critical


def test_peel_precondition():
    with pytest.raises(ValueError):
        find_critical_subgraph(named_graph("C6"), 3)
    with pytest.raises(ValueError):
        find_critical_subgraph(named_graph("K3"), 0)


@given(graphs(min_n=1, max_n=8))
@settings(max_examples=40, deadline=None)
def test_peel_output_is_critical(g):
    k = chromatic_number(g)
    s = find_critical_subgraph(g, k)
    sub = induced_subgraph(g, s)
    assert is_vertex_critical(sub, k).is_critical


# ===== colorings with every class of size two =====

def test_min_class_known_cases():
    assert check_min_class_colorings(co_odd_cycle(5), 5)
    assert check_min_class_colorings(named_graph("C5"), 3)
    assert check_min_class_colorings(co_odd_cycle(4), 4)


def test_min_class_preconditions():
    with pytest.raises(ValueError):
        check_min_class_colorings(named_graph("C6"), 3)  # not critical
    with pytest.raises(ValueError):
        check_min_class_colorings(named_graph("K2"), 2)  # complement disconnected


# ===== join criticality =====

def test_join_examples():
    assert verify_join_criticality(named_graph("C5"), named_graph("K2"), 3, 2)
    assert is_vertex_critical(join(named_graph("C5"), named_graph("K2")), 5).is_critical
    assert verify_join_criticality(named_graph("C5"), named_graph("C5"), 3, 3)
    assert is_vertex_critical(join(named_graph("C5"), named_graph("C5")), 6).is_critical
    # both sides false: C6 is not 3-vertex-critical and the join is not 4-critical
    assert verify_join_criticality(named_graph("C6"), named_graph("K1"), 3, 1)


def test_join_biconditional_on_standard_factors():
    factors = [
        (named_graph("K1"), 1),
        (named_graph("K2"), 2),
        (named_graph("K3"), 3),
        (named_graph("C5"), 3),
        (named_graph("C7"), 3),
        (co_odd_cycle(4), 4),
    ]
    for g, k1 in factors:
        for h, k2 in factors:
            assert verify_join_criticality(g, h, k1, k2), (k1, k2)
