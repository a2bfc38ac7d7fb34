"""Tests for the family constructors."""

import pytest

from kcrit.critical import is_vertex_critical
from kcrit.families import clique_substituted_odd_cycle, co_odd_cycle, odd_cycle
from kcrit.graph import join, read_graph_file
from kcrit.invariants import clique_number, independence_number
from kcrit.patterns import is_free, named_graph

from oracles import is_isomorphic
from lemmas import is_p2_lp1_free, substitute_clique, verify_join_criticality
from util import data_path, peak_traced


# ===== odd cycles =====

def test_odd_cycle_basics():
    assert is_isomorphic(odd_cycle(1), named_graph("K3"))
    g = odd_cycle(2)
    assert is_isomorphic(g, named_graph("C5"))
    assert is_vertex_critical(g, 3).is_critical


def test_odd_cycle_is_extremal_candidate():
    # order 2l+1, (P2+lP1)-free, 3-vertex-critical for small l
    for l in (1, 2, 3):
        g = odd_cycle(l)
        assert g.n == 2 * l + 1
        assert is_p2_lp1_free(g, l)
        assert is_vertex_critical(g, 3).is_critical


@pytest.mark.parametrize("build, args", [
    (odd_cycle, (2.5,)), (odd_cycle, (True,)), (odd_cycle, ("3",)), (odd_cycle, (10**20,)),
    (co_odd_cycle, (3.5,)), (co_odd_cycle, (True,)), (co_odd_cycle, (10**20,)),
    (clique_substituted_odd_cycle, (2.5, 4)), (clique_substituted_odd_cycle, (2, 4.0)),
    (clique_substituted_odd_cycle, (True, 4)), (clique_substituted_odd_cycle, (2, 10**20)),
], ids=["odd-float", "odd-bool", "odd-str", "odd-huge", "co-float", "co-bool", "co-huge",
        "clique-t-float", "clique-k-float", "clique-t-bool", "clique-k-huge"])
def test_family_parameters_are_ints_checked_before_building(build, args):
    # a ValueError, never a TypeError, and no list sized by the parameter
    with peak_traced() as peak, pytest.raises(ValueError, match=r"must be an int"):
        build(*args)
    assert peak[0] < 100_000


# ===== complements of odd cycles =====

def test_co_odd_cycle_small():
    assert is_isomorphic(co_odd_cycle(3), named_graph("C5"))
    fig = [g for _, g in read_graph_file(data_path("fig1.edges"))]
    hits = [i for i, g in enumerate(fig) if is_isomorphic(co_odd_cycle(4), g)]
    assert hits == [6]  # the 4-regular order-7 figure graph


def test_co_odd_cycle_properties():
    for k in range(3, 8):
        g = co_odd_cycle(k)
        assert g.n == 2 * k - 1
        assert independence_number(g) == 2
        assert is_free(g, "P3+P1")
        assert is_vertex_critical(g, k).is_critical


# ===== clique substitution =====

def test_substitute_identity():
    g = named_graph("C7")
    assert is_isomorphic(substitute_clique(g, 3, 1), g)


def test_substitute_on_cycle():
    g = substitute_clique(named_graph("C5"), 2, 2)
    assert g.n == 6
    assert clique_number(g) == 3


def test_substitute_errors():
    with pytest.raises(ValueError):
        substitute_clique(named_graph("C5"), 5, 2)
    with pytest.raises(ValueError):
        substitute_clique(named_graph("C5"), 0, 0)
    with pytest.raises(ValueError):
        substitute_clique(named_graph("C5"), 0, 28)


def test_clique_substituted_cycle_small():
    assert is_isomorphic(clique_substituted_odd_cycle(2, 3), named_graph("C5"))
    g = clique_substituted_odd_cycle(2, 4)
    assert g.n == 7
    assert is_free(g, "claw")
    assert is_vertex_critical(g, 4).is_critical
    g = clique_substituted_odd_cycle(2, 5)
    assert g.n == 9
    assert is_free(g, "claw")
    assert is_vertex_critical(g, 5).is_critical


def test_clique_substituted_cycle_grid():
    for t in (2, 3):
        for k in (3, 4, 5):
            g = clique_substituted_odd_cycle(t, k)
            assert g.n == (t + 1) + t * (k - 2)
            assert is_free(g, "claw")
            assert is_vertex_critical(g, k).is_critical


def test_iterated_substitution_matches_composite():
    # expand the two even-position vertices of C5 by hand
    g = named_graph("C5")
    for v in (3, 1):
        g = substitute_clique(g, v, 2)
    assert is_isomorphic(g, clique_substituted_odd_cycle(2, 4))


# ===== joins with cliques =====

def test_cycle_join_clique_criticality():
    for m in (1, 2, 3):
        for q in (1, 2):
            cyc = odd_cycle(m)
            kq = named_graph(f"K{q}")
            assert verify_join_criticality(cyc, kq, 3, q)
            assert is_vertex_critical(join(cyc, kq), 3 + q).is_critical
