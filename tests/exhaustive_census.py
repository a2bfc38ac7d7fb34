"""The piece census reproduced by exhaustion, with no structural assumption.

``census_general`` tests every graph class up to order 9 for
P3+P1-freeness and criticality directly, so it assumes neither
independence number two, nor the 2k - 1 order bound, nor the join
structure that ``census_copaw_critical`` is built on.  At k = 5 it must
find the same graphs order by order (the paper's appendix list); at
k = 4 the orders past 2k - 1 = 7 must be empty, as claim (ii) says.

At k = 6, order 11, every triangle-free graph F of that order is kept
when ``is_vertex_critical`` finds its complement 6-critical; this
assumes independence number two only, none of the rules of the piece
run's attachment predicate (degree cap, deficiency prune, piece test).
The enumeration must see all 105,071 triangle-free classes of order 11
(OEIS A006785), and the complements kept must be P_6 and the order-11
graphs of the shipped 6-critical list.

That enumeration still runs through the census's canonical
augmentation.  The fourth check shares only ``canon_raw`` and ``Graph``
with it: odd ear decompositions from K1 (Lovász 1972) grow every
triangle-free factor-critical graph to order 11, and their complements
must be P_1..P_6 as sets.

The fifth check covers the piece test of the k = 6 piece run's last
step: on each of its order-10 parents, the search that reads D(P - s)
off the parent's perfect matching must equal a fresh blossom pass on
P - s.

The five checks take about 60 s of wall time with two processes, so
the file name keeps them out of the default collection.  Run them with

    PYTHONPATH=src python -m pytest -q tests/exhaustive_census.py
"""

import os
from functools import cache

import oracles
from kcrit.canon import canonical_form
from kcrit.census import _filtered_level, _pieces, census_copaw_critical, census_general
from kcrit.critical import is_vertex_critical
from kcrit.generate import TRIANGLE_FREE, generate_graphs
from kcrit.graph import Graph, bits, complement, from_graph6, read_graph_list
from kcrit.invariants import alternating_forest, gallai_edmonds_raw

from util import data_path

WORKERS = min(2, os.cpu_count() or 1)


@cache
def _p6():
    return _pieces(6)


def _by_order(rows):
    return {r.n: set(r.codes) for r in rows}


def test_exhaustive_k5_census_equals_piece_census():
    general = census_general(5, "P3+P1", 9, workers=WORKERS)
    assert [(r.n, r.count) for r in general] == [(5, 1), (6, 0), (7, 1), (8, 6), (9, 170)]
    assert _by_order(general) == _by_order(census_copaw_critical(5))


def test_exhaustive_k4_census_is_empty_past_order_7():
    general = census_general(4, "P3+P1", 9, workers=WORKERS)
    assert [(r.n, r.count) for r in general] == \
        [(4, 1), (5, 0), (6, 1), (7, 6), (8, 0), (9, 0)]


def test_exhaustive_order_11_equals_p6():
    found, classes = set(), 0
    for f in generate_graphs(11, TRIANGLE_FREE):
        classes += 1
        g = complement(f)
        if is_vertex_critical(g, 6).is_critical:
            found.add(canonical_form(g))
    shipped = {code for _, code in read_graph_list(data_path("critical6.g6"))[1]
               if from_graph6(code).n == 11}
    assert classes == 105071
    assert len(shipped) == 17828
    assert found == set(_p6()[6]) == shipped


def test_ear_decompositions_give_the_pieces_to_order_11():
    pieces, ears = _p6(), oracles.ear_pieces(11)
    assert [len(ears[m]) for m in (1, 3, 5, 7, 9, 11)] == [1, 0, 1, 6, 170, 17828]
    for j in range(1, 7):
        assert set(pieces[j]) == {canonical_form(complement(f)) for f in ears[2 * j - 1]}


def test_search_from_a_mate_equals_a_fresh_pass_at_order_11():
    # the piece test of the k = 6 run's last step: on every order-10
    # parent with a perfect matching M, for every s under the degree
    # cap, the search from M(s) in P - s gives D(P - s) as a fresh
    # blossom pass on P - s does
    level = [Graph(1, (0,))]
    for _ in range(2, 11):
        level = _filtered_level(level, 11)[0]
    parents = searches = 0
    for parent in level:
        p, adj = parent.n, parent.adj
        full = (1 << p) - 1
        mates = gallai_edmonds_raw(p, adj, full)[0]
        if -1 in mates:
            continue
        parents += 1
        for s in bits(sum(1 << v for v, a in enumerate(adj) if a.bit_count() < 5)):
            searches += 1
            assert alternating_forest(p, adj, full ^ 1 << s, mates, mates[s]) == \
                gallai_edmonds_raw(p, adj, full ^ 1 << s)[1], (parent, s)
    # the deficiency prune leaves only perfectly matchable parents here
    assert (len(level), parents, searches) == (6211, 6211, 59674)
