"""The censuses reproduced by exhaustion, with no structural assumption.

``census_general`` grows the complements of every graph that could be
k-vertex-critical up to its order, pruned only by the elementary degree
bound (minimum degree >= k - 1, so the complement's maximum degree is
at most order - k) and by the pattern, and tests criticality directly.
It assumes neither independence number two, nor the 2k - 1 order bound,
nor any rule of the piece run.  Against the pipeline it replaced (every
class of order <= 8 filtered directly) it must find the same classes
at k = 3 and 5 for no pattern and each pattern of order four, and keep
exactly the capped pattern-free classes at every order.  Driven past
its public cap of 9 through the same run generator, with P3+P1
forbidden: k = 4 and 5 to order 11 must be empty past 2k - 1, as claim
(ii) says, and k = 6 to order 11 must be the shipped 6-critical list at
every order, each run with its exact number of criticality tests.  The
order-12 check at k = 6 (1,235,922 complements tested, none
6-critical) takes about 90 s of wall time with two processes and is
marked slow.

At k = 6, order 11, every triangle-free graph F of that order is kept
when ``is_vertex_critical`` finds its complement 6-critical; this
assumes independence number two only.  The enumeration must see all
105,071 triangle-free classes of order 11 (OEIS A006785), and the
complements kept must be P_6 and the order-11 graphs of the shipped
6-critical list.

Every piece of order 11 joined with K1 gets from ``_join_code``, without
a search, the canonical code of a random relabelling of the join.

Odd ear decompositions from K1 (Lovász 1972) grow every triangle-free
factor-critical graph to order 11, sharing only ``canon_raw`` and
``Graph`` with the census; their complements must be P_1..P_6 as sets.

On each order-10 parent of the k = 6 piece run's last step, the search
that reads D(P - s) off the parent's perfect matching must equal a
fresh blossom pass on P - s.

At the order-11 leaf of that run, the canonicity tests must number the
Aut(F)-orbits on the minimum-degree vertices of the pieces F, summed
(``util.rooted_pieces``), and ``_pieces(6)`` and
``census_copaw_critical(6)``, on one process and on two, must keep their
pinned digests (as ``tests/test_digests.py`` pins the smaller outputs).
``kcrit census --k 6 --out`` on two processes must write the shipped
6-critical list byte for byte.

The file name keeps these checks out of the default collection.  Run
them with

    PYTHONPATH=src python -m pytest -q -m "not slow" tests/exhaustive_census.py

and the order-12 check alone with

    PYTHONPATH=src python -m pytest -q -m slow tests/exhaustive_census.py
"""

import os
from functools import cache, partial
from random import Random

import pytest

import kcrit.census as census
import oracles
from kcrit.canon import canonical_form
from kcrit.census import (_general_expand, _join_code, _levels, _mapper, _piece_expand,
                          _pieces, census_copaw_critical, census_general)
from kcrit.cli import main
from kcrit.critical import is_vertex_critical
from kcrit.generate import TRIANGLE_FREE, _canonical_extension, generate_graphs
from kcrit.graph import Graph, bits, complement, from_graph6, join, read_graph_list, relabel
from kcrit.invariants import alternating_forest, matching_raw
from kcrit.patterns import ORDER4_NAMES, as_pattern, is_free

from util import codes_by_order, data_path, digest, rooted_pieces, spy

WORKERS = min(2, os.cpu_count() or 1)
P3P1 = as_pattern("P3+P1")


@cache
def _p6():
    return _pieces(6)


def _tested(expand, parent):
    # expand(parent), with the number of complements it tested for
    # criticality
    tested, real = [0], census.is_vertex_critical

    def counting(g, k):
        tested[0] += 1
        return real(g, k)

    census.is_vertex_critical = counting
    try:
        return expand(parent), tested[0]
    finally:
        census.is_vertex_critical = real


def _general_steps(k, last, mapper, tests):
    # (order, (children kept, codes)) of each step of a census_general
    # run to order last with P3+P1 forbidden, past the public cap of 9;
    # tests[0] adds up the criticality tests of the steps taken
    def counted(expand, parents):
        for result, tested in mapper(partial(_tested, expand), parents):
            tests[0] += tested
            yield result

    expand = partial(_general_expand, k=k, last=last, pattern=P3P1)
    return enumerate(_levels(expand, last, counted), 1)


def _general_run(k, last):
    # the codes found at each order n >= k, and the criticality tests of
    # the run, on WORKERS processes
    tests = [0]
    with _mapper(WORKERS) as mapper:
        found = {n: set(codes) for n, (_, codes) in _general_steps(k, last, mapper, tests)
                 if n >= k}
    return found, tests[0]


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("pattern", (None, *ORDER4_NAMES))
def test_general_census_equals_the_filtered_census(k, pattern):
    rows = census_general(k, pattern, 8)
    assert codes_by_order(rows) == codes_by_order(oracles.filtered_general_census(k, pattern, 8))
    assert all(len(set(r.codes)) == r.count for r in rows)


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("pattern", (None, *ORDER4_NAMES))
def test_general_run_keeps_exactly_the_capped_free_classes(k, pattern):
    # orders 1..8 of a run to order 9: the unpruned all-graphs level, in
    # its order, cut to maximum degree <= 9 - k and to the graphs whose
    # complement is free of the pattern
    pat = None if pattern is None else as_pattern(pattern)
    expand = partial(_general_expand, k=k, last=9, pattern=pat)
    for n, (level, _) in enumerate(_levels(expand, 8), 1):
        assert level == [f for f in oracles.all_graphs_level(n)
                         if max(a.bit_count() for a in f.adj) <= 9 - k
                         and (pat is None or is_free(complement(f), pat))], (n, k)


@pytest.mark.parametrize("k", [4, 5])
def test_general_run_is_empty_past_2k_minus_1_to_order_11(k):
    # claim (ii) past the order-9 cap: the orders up to 2k - 1 are the
    # piece census, every order after them is empty.  Only complements
    # within their own order's degree bound are tested (121,571 and
    # 120,021 under the cap 11 - k alone)
    found, tests = _general_run(k, 11)
    pieces = codes_by_order(census_copaw_critical(k))
    assert found == {n: pieces.get(n, set()) for n in range(k, 12)}
    assert tests == {4: 121114, 5: 118286}[k]


def test_general_run_gives_the_k6_census_to_order_11():
    # the k = 6 census by a second route: no alpha <= 2, no piece rules
    shipped = {}
    for _, code in read_graph_list(data_path("critical6.g6"))[1]:
        shipped.setdefault(from_graph6(code).n, set()).add(code)
    found, tests = _general_run(6, 11)
    assert [len(found[n]) for n in range(6, 12)] == [1, 0, 1, 6, 171, 17828]
    assert found == {n: shipped.get(n, set()) for n in range(6, 12)}
    assert tests == 101975          # 107,945 under the cap 11 - 6 alone


@pytest.mark.slow
def test_general_run_finds_no_6_critical_graph_of_order_12():
    # claim (ii) at k = 6, one order past 2k - 1; at the last order every
    # pattern-free child is tested, as the cap is the order's own bound
    tests = [0]
    with _mapper(WORKERS) as mapper:
        for n, (level, codes) in _general_steps(6, 12, mapper, tests):
            if n == 11:
                parents, before = len(level), tests[0]
    assert (parents, tests[0] - before, codes) == (104765, 1235922, [])


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


def test_join_codes_of_the_order_11_pieces_with_k1():
    # K1 v h for every piece h of P_6, 17,828 of the 17,834 graphs of the
    # k = 7 order-12 row: the code _join_code writes without a search is
    # the canonical code of a random relabelling
    rng = Random(61)
    k1 = Graph(1, (0,))
    for code in _p6()[6]:
        h = from_graph6(code)
        perm = list(range(h.n + 1))
        rng.shuffle(perm)
        assert _join_code(["@", code]) == canonical_form(relabel(join(k1, h), perm)), code
    assert len(_p6()[6]) == 17828


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
    *_, (level, _) = _levels(partial(_piece_expand, last=11), 10)
    parents = searches = 0
    for parent in level:
        p, adj = parent.n, parent.adj
        full = (1 << p) - 1
        mates = matching_raw(p, adj, full)[0]
        if -1 in mates:
            continue
        parents += 1
        for s in bits(sum(1 << v for v, a in enumerate(adj) if a.bit_count() < 5)):
            searches += 1
            assert alternating_forest(p, adj, full ^ 1 << s, mates, mates[s]) == \
                matching_raw(p, adj, full ^ 1 << s)[1], (parent, s)
    # the deficiency prune leaves only perfectly matchable parents here
    assert (len(level), parents, searches) == (6211, 6211, 59674)


def test_leaf_canonicity_tests_count_the_rooted_pieces_of_order_11(monkeypatch):
    # the counting identity checks the k = 6 run without comparing codes;
    # the same run makes one blossom pass per parent (16,136 passes when
    # a size-only pass preceded the pass for D)
    tests = spy(monkeypatch, _canonical_extension)
    passes = spy(monkeypatch, matching_raw)
    parents = spy(monkeypatch, _piece_expand)
    pieces = _pieces(6)[6]
    assert rooted_pieces(pieces) == sum(args[0] + 1 == 11 for args in tests) == 49073
    assert passes == [(q.n, q.adj, (1 << q.n) - 1) for q, _ in parents]
    assert len(passes) == 8123


def test_k6_piece_codes_keep_their_digest():
    assert digest(_p6()) == "bb7d871905e2259314e62527e1e7f5af50b0d0fec28473579f2b4d50c2c5844f"


@pytest.mark.parametrize("workers", sorted({1, WORKERS}))
def test_k6_census_rows_keep_their_digest(workers):
    assert digest(census_copaw_critical(6, workers=workers)) == \
        "686ce89c74c730b49ab41c4746d1e60caf1a5e64a44905065645403682754f19"


def test_k6_census_out_reproduces_the_shipped_list(tmp_path, capsys):
    # the command line, with children crossing the pool with the
    # automorphism generators their acceptance found
    out_file = tmp_path / "critical6.g6"
    assert main(["census", "--k", "6", "--workers", str(WORKERS), "--out", str(out_file)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total 18007"
    assert out_file.read_bytes() == data_path("critical6.g6").read_bytes()
