"""Tests for the census pipelines and list verification."""

import os
from collections import Counter
from functools import lru_cache, partial, reduce
from random import Random

import pytest

import kcrit.census
import oracles
from kcrit.canon import canon_raw, canonical_form
from kcrit.census import (
    CensusRow,
    VerifyReport,
    _assembled,
    _filtered_level,
    _general_expand,
    _join_cross_check,
    _levels,
    _mapper,
    _pieces,
    _piece_expand,
    census_copaw_critical,
    census_general,
    verify_list,
)
from kcrit.critical import is_vertex_critical
from kcrit.families import co_odd_cycle
from kcrit.generate import (TRIANGLE_FREE, _canonical_extension, _independent_masks,
                            _mask_orbit_reps, child_graphs)
from kcrit.graph import (Graph, complement, format_edge_list, from_graph6, join,
                         read_graph_file, read_graph_list, relabel, to_graph6)
from kcrit.invariants import alternating_forest, independence_number, matching_raw
from kcrit.patterns import ORDER4_NAMES, as_pattern, is_free, named_graph

from lemmas import co_components
from util import (all_codes, codes_by_order, data_path, level_run, random_copaw_free,
                  random_graph, random_triangle_free, rooted_pieces, spy)


# ===== the fast pipeline =====

def test_census_k3():
    rows = census_copaw_critical(3)
    assert [(r.n, r.count) for r in rows] == [(3, 1), (4, 0), (5, 1)]
    assert all_codes(rows) == {canonical_form(named_graph("K3")),
                               canonical_form(named_graph("C5"))}


def test_census_k4():
    rows = census_copaw_critical(4)
    assert [(r.n, r.count) for r in rows] == [(4, 1), (5, 0), (6, 1), (7, 6)]
    assert sum(r.count for r in rows) == 8
    assert canonical_form(co_odd_cycle(4)) in all_codes(rows)


def test_census_k5():
    rows = census_copaw_critical(5)
    assert [(r.n, r.count) for r in rows] == [
        (5, 1), (6, 0), (7, 1), (8, 6), (9, 170)]
    assert sum(r.count for r in rows) == 178
    assert canonical_form(co_odd_cycle(5)) in all_codes(rows)


def test_census_truncated_k6():
    rows = census_copaw_critical(6, n_max=9)
    assert [(r.n, r.count) for r in rows] == [(6, 1), (7, 0), (8, 1), (9, 6)]


def test_census_row_shape():
    rows = census_copaw_critical(4)
    for row in rows:
        assert isinstance(row, CensusRow)
        assert row.count == len(row.codes)
        gs = [from_graph6(c) for c in row.codes]
        assert all(g.n == row.n for g in gs)
        assert [canonical_form(g) for g in gs] == list(row.codes)


def test_census_soundness_double_entry():
    # fresh recomputation with the generic tools, not the matching shortcut
    for row in census_copaw_critical(4):
        for g in (from_graph6(c) for c in row.codes):
            assert is_free(g, "P3+P1")
            assert independence_number(g) <= 2
            assert g.n <= 7
            assert min(row.bit_count() for row in g.adj) >= 3
            assert is_vertex_critical(g, 4).is_critical


@pytest.mark.parametrize("workers", [0, -2])
def test_census_rejects_workers_below_one(workers):
    with pytest.raises(ValueError, match="workers"):
        census_copaw_critical(4, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        census_general(3, None, 5, workers=workers)


@pytest.mark.parametrize("workers", [True, 1.5])
def test_census_rejects_workers_that_are_not_ints(workers):
    with pytest.raises(ValueError, match="workers must be an int"):
        census_copaw_critical(3, workers=workers)
    with pytest.raises(ValueError, match="workers must be an int"):
        census_general(3, None, 5, workers=workers)


def test_census_rejects_workers_above_cpu_count(monkeypatch):
    # checked before any pool is made, so this starts no process
    monkeypatch.setattr(kcrit.census, "Pool", lambda *a: pytest.fail("pool made"))
    workers = (os.cpu_count() or 1) + 1
    with pytest.raises(ValueError, match="at most the CPU count"):
        census_copaw_critical(4, workers=workers)
    with pytest.raises(ValueError, match="at most the CPU count"):
        census_general(3, None, 5, workers=workers)


def test_census_workers_match_serial():
    serial = census_copaw_critical(4, workers=1)
    parallel = census_copaw_critical(4, workers=2)
    assert serial == parallel


def test_filtered_level_workers_keep_degree_bound():
    # the pool path must expand with the same degree bound as the serial
    # one and hand down the same generators; a run to order 9 keeps to
    # maximum degree 4
    to_9, to_7 = partial(_piece_expand, last=9), partial(_piece_expand, last=7)
    *_, (parents, _) = _levels(to_9, 6)
    serial = _filtered_level(parents, to_9)
    with _mapper(2) as mapper:
        parallel = _filtered_level(parents, to_9, mapper)
        parallel_leaf = _filtered_level(parents, to_7, mapper)
    assert len(parents) >= 8 and any(p._gens is not None for p in parents)
    kids, codes = serial
    assert parallel == serial
    # Graph equality ignores the generators, so compare them on their own
    assert [g._gens for g in parallel[0]] == [g._gens for g in kids]
    assert any(g._gens is not None for g in kids)
    assert len(codes) == 6                                   # P_4 at order 7
    assert max(a.bit_count() for g in kids for a in g.adj) <= 4
    # the leaf step (order 7 of a run to order 7) keeps no children and
    # finds the same pieces
    assert parallel_leaf == _filtered_level(parents, to_7)
    assert parallel_leaf == ([], codes)


# ===== the prime-piece census against the level-by-level pipeline =====

def _level_filter_census(k, n_max):
    # the pipeline the piece census replaced, kept as an oracle: grow
    # triangle-free F of maximum degree <= n_max - k to order n_max and
    # keep, at every order n >= k, the F whose complement is
    # k-vertex-critical, read off maximum matchings in F
    rows = {}
    for n, level in enumerate(level_run(TRIANGLE_FREE, n_max, n_max - k), 1):
        if n < k:
            continue
        full = (1 << n) - 1
        rows[n] = {canonical_form(complement(f)) for f in level
                   if oracles.matching_size(n, f.adj, full) == n - k
                   and all(oracles.matching_size(n, f.adj, full ^ 1 << v) == n - k
                           for v in range(n))}
    return rows


@pytest.mark.parametrize("k, n_max", [(k, n) for k in (3, 4, 5) for n in range(k, 2 * k)]
                         + [(6, n) for n in range(6, 11)])
def test_piece_census_equals_level_filter_census(k, n_max):
    rows = census_copaw_critical(k, n_max)
    assert codes_by_order(rows) == _level_filter_census(k, n_max)
    assert all(len(set(r.codes)) == r.count for r in rows)


def _is_piece(f):
    # factor-critical: one vertex exposed, and D is every vertex
    full = (1 << f.n) - 1
    mates, d = matching_raw(f.n, f.adj, full)
    return mates.count(-1) == 1 and d == full


def _is_piece_per_vertex(f):
    # factor-critical by the filter the Gallai-Edmonds test replaced:
    # every F - v has a perfect matching
    full = (1 << f.n) - 1
    return all(2 * oracles.matching_size(f.n, f.adj, full ^ 1 << v) == f.n - 1
               for v in range(f.n))


@lru_cache(maxsize=None)
def _unpruned_levels(top):
    # one run that keeps every child at every order: the triangle-free F
    # of maximum degree <= top - 1, from K1 up to order 2*top - 1
    return level_run(TRIANGLE_FREE, 2 * top - 1, top - 1)


@pytest.mark.parametrize("top", [3, 4, 5])
def test_piece_filter_equals_per_vertex_filter(top):
    # at every odd order of the unpruned run, D and the per-vertex filter
    # call the same F factor-critical
    for n, level in enumerate(_unpruned_levels(top), 1):
        if n % 2:
            assert [_is_piece(f) for f in level] == [_is_piece_per_vertex(f) for f in level]


@pytest.mark.parametrize("top", [3, 4, 5])
def test_deficiency_prune_and_leaf_step_lose_no_piece(top):
    # the unpruned run finds the same pieces in the same order, and both
    # prunes drop something: the deficiency prune some graph at some
    # order, the leaf step (only pieces at the last order) some child,
    # for one of minimum degree < 2
    last = 2 * top - 1
    unpruned, drops = {}, 0
    for n, level in enumerate(_unpruned_levels(top), 1):
        if n < last:
            kept = [f for f in level
                    if matching_raw(n, f.adj, (1 << n) - 1)[0].count(-1) < last - n]
            drops += len(kept) < len(level)
        if n == last - 1:   # the perfect-matching prune it generalises
            assert kept == [f for f in level if oracles.has_perfect_matching(f)]
        if n % 2:
            unpruned[(n + 1) // 2] = [canonical_form(complement(f))
                                      for f in level if _is_piece(f)]
    assert drops and 0 < len(kept)
    assert any(min(a.bit_count() for a in f.adj) < 2 for f in level)
    assert _pieces(top) == unpruned
    assert [len(unpruned[j]) for j in range(1, top + 1)] == [1, 0, 1, 6, 170][:top]


def _predicted(parent, s):
    # (e(F), F is a piece) for F = parent + vertex p attached to s, read
    # off the parent alone: e(F) = e(P) - 1 if s meets D(P), e(P) + 1
    # otherwise; F is a piece iff P has a perfect matching and the
    # D(P - v) over v in s cover P
    p, adj = parent.n, parent.adj
    full = (1 << p) - 1
    mates, d = matching_raw(p, adj, full)
    exposed = mates.count(-1)
    reach = 0
    for v in range(p):
        if s >> v & 1:
            reach |= matching_raw(p, adj, full ^ 1 << v)[1]
    return exposed - 1 if s & d else exposed + 1, not exposed and reach == full


def _extended(parent, s):
    p = parent.n
    rows = [a | (s >> v & 1) << p for v, a in enumerate(parent.adj)]
    return Graph(p + 1, (*rows, s))


def test_parent_decides_the_childs_deficiency_and_piece_verdict():
    # the lemmas behind the piece run's attachment predicate, on every
    # independent set of seeded triangle-free parents of orders 1..10,
    # against a direct blossom pass on each child
    rng = Random(3101)
    parents = [random_triangle_free(rng, n, q) for n in range(1, 11)
               for q in (0.2, 0.35, 0.5) for _ in range(3)]
    kinds = set()
    for parent in parents:
        p = parent.n
        e_p = p - 2 * oracles.max_matching(parent)
        full = (1 << p + 1) - 1
        for s in _independent_masks(parent.adj, p):
            mates, d = matching_raw(p + 1, _extended(parent, s).adj, full)
            exposed = mates.count(-1)
            piece = exposed == 1 and d == full
            assert _predicted(parent, s) == (exposed, piece)
            kinds.add((p % 2, exposed < e_p, piece))
    # parents of both parities, sets that lower e and sets that raise it,
    # and pieces, which need an even parent with a perfect matching
    assert {k[0] for k in kinds} == {k[1] for k in kinds} == {0, 1}
    assert (0, False, True) in kinds and not any(k[2] for k in kinds if k[0])


@pytest.mark.parametrize("top", [3, 4, 5])
def test_piece_expand_equals_the_per_child_blossom_path(top):
    # on every parent of the run to order 2*top - 1: the same children,
    # generators included, and the same piece codes, in the same order,
    # as the old path that gave each accepted child its own blossom pass
    last = 2 * top - 1
    level = [Graph(0, ())]          # the run starts from the empty graph
    while level and level[0].n < last:
        step = []
        for parent in level:
            kids, codes = kcrit.census._piece_expand(parent, last)
            old_kids, old_codes = oracles.per_child_piece_expand(parent, last)
            assert codes == old_codes
            assert [(f.adj, f._gens) for f in kids] == [(f.adj, f._gens) for f in old_kids]
            step += kids
        level = step


def test_piece_run_counts_its_blossom_passes_exactly(monkeypatch):
    # each parent of the piece run, the empty graph first, gets one
    # blossom pass (matching_raw) for its exposed count, D(P) and a
    # maximum matching M; when its children have odd order and e(P) = 0,
    # one alternating search from M(v) in P - v for D(P - v), per vertex
    # v under the degree cap.  No child gets a pass of its own: 296
    # passes and 1,288 searches, where a size-only pass before the D
    # pass made 575, and a fresh pass on every P - v made 1,822 (573 and
    # 295 parents when the run started from K1).  The same run offers
    # 1,557 attachment sets to the orbit step and 842 representatives to
    # the canonicity test (2,566 and 1,327 from K1 when the new vertex's
    # degree rule was checked on each representative)
    passes = spy(monkeypatch, matching_raw)
    searches = spy(monkeypatch, alternating_forest, [kcrit.census])
    offered = spy(monkeypatch, _mask_orbit_reps)
    tested = spy(monkeypatch, _canonical_extension)
    parents = spy(monkeypatch, _piece_expand)
    _pieces(5)
    want = 0
    for parent, last in parents:
        p, n = parent.n, parent.n + 1
        exposed = p - 2 * oracles.max_matching(parent)
        low = sum(a.bit_count() < (last - 1) // 2 for a in parent.adj)
        want += low if n % 2 and not exposed else 0
    assert passes == [(q.n, q.adj, (1 << q.n) - 1) for q, _ in parents]   # one per parent
    assert len(searches) == want
    assert (len(parents), len(passes), len(searches)) == (296, 296, 1288)
    assert (sum(len(masks) for masks, _ in offered), len(tested)) == (1557, 842)


def test_leaf_canonicity_tests_count_the_rooted_pieces(monkeypatch):
    # a class accepted twice at the leaf step, or not at all, breaks the
    # equality (the order-11 leaf is in the exhaustive step)
    tests = spy(monkeypatch, _canonical_extension)
    pieces = _pieces(5)[5]
    assert rooted_pieces(pieces) == sum(args[0] + 1 == 9 for args in tests) == 417


def test_census_k6_counts_its_labelling_searches_exactly(monkeypatch):
    # census_copaw_critical(6, 10) codes the 178 pieces P_1..P_5 by a
    # search, and of the 383 joins of its rows and its cross-check only
    # the two with two cores (C5 v C5, in the order-10 row and in the
    # cross-check); 561 searches when every join was searched.  Of the
    # 314 children that reach stage 3 of the canonicity test, 106 are
    # decided on the root cells and 208 searched, and 144 parents are
    # labelled: 452 canon_raw calls when stage 3 always searched
    import kcrit.generate as generate
    coded = spy(monkeypatch, canonical_form)
    labelled = spy(monkeypatch, canon_raw, [generate])
    refined = spy(monkeypatch, generate._refine, [generate])
    census_copaw_critical(6, 10)
    searched = [args for args in labelled if len(args) == 3]     # from root cells
    assert (len(coded), len(labelled) - len(searched), len(searched), len(refined)) == \
        (180, 144, 208, 314)


def test_join_code_searches_only_two_or_more_cores(monkeypatch):
    # canonical codes of cliques and of one factor with a core (C5, or
    # C5 v K1 with a dominating vertex of its own) give the code of the
    # join without a search, in any factor order
    c5, k1, k2 = named_graph("C5"), Graph(1, (0,)), named_graph("K2")
    graphs = {"C5": c5, "K1": k1, "K2": k2, "C5vK1": join(c5, k1)}
    code = {name: canonical_form(g) for name, g in graphs.items()}
    searched = spy(monkeypatch, canonical_form)
    for names in (["K1"], ["K2", "K1"], ["C5", "K1"], ["K1", "C5", "K2"],
                  ["C5", "K2", "K1", "K1"], ["C5vK1", "K2"]):
        got = kcrit.census._join_code([code[x] for x in names])
        assert got == canonical_form(reduce(join, [graphs[x] for x in names])), names
    assert searched == []
    got = kcrit.census._join_code([code["C5"], code["K1"], code["C5"]])
    assert got == canonical_form(join(join(c5, k1), c5))
    assert len(searched) == 1


def test_pieces_hand_generators_down(monkeypatch):
    # a parent that stage 3 labelled when it was accepted comes with its
    # own generators, so the next step does not label it again
    calls = spy(monkeypatch, child_graphs)
    _pieces(5)
    seen = [args[0] for args in calls]
    handed = [p for p in seen if p._gens is not None]
    assert len(handed) > len(seen) // 4
    assert all(p._gens == canon_raw(p.n, p.adj)[2] for p in handed)


def test_ear_decompositions_give_the_pieces():
    # P_1..P_5 as sets against the complements of the triangle-free
    # factor-critical graphs that odd ear decompositions grow to order 9,
    # an oracle that shares only canon_raw and Graph with the piece run
    pieces, ears = _pieces(5), oracles.ear_pieces(9)
    for j in range(1, 6):
        assert len(set(pieces[j])) == len(pieces[j])
        assert set(pieces[j]) == {canonical_form(complement(f)) for f in ears[2 * j - 1]}
    assert [len(ears[m]) for m in (1, 3, 5, 7, 9)] == [1, 0, 1, 6, 170]


def test_join_cross_check_names_a_missing_join():
    # the census must hold every join of smaller critical graphs: with
    # C5 v K1, the join of a 1- and a 3-critical factor, taken out of the
    # k=4 codes, the check raises and names the factors and the code
    pieces = _pieces(4)
    found = {c for row in census_copaw_critical(4) for c in row.codes}
    code = canonical_form(join(named_graph("C5"), Graph(1, (0,))))
    _join_cross_check(4, 7, pieces, found)
    with pytest.raises(RuntimeError) as info:
        _join_cross_check(4, 7, pieces, found - {code})
    assert str(info.value) == ("census for k=4 is missing the join of a 1- and "
                               f"a 3-critical factor ({code})")


def test_assembly_equals_the_recursive_partition_assembly():
    # the same joins in the same order as the assembly over the recursive
    # partition generator; P_6 (order 11, only ever taken whole) is read
    # from the shipped list instead of a 5 s piece run
    pieces = _pieces(5)
    pieces[6] = [code for _, code in read_graph_list(data_path("critical6.g6"))[1]
                 if from_graph6(code).n == 11]
    # with two stand-in codes (K1, 2K1) for every P_j, P_2 included, any
    # change in the order of the partitions or of the picks would show
    stand_ins = {j: ["@", "A?"] for j in range(1, 7)}
    for k in range(3, 7):
        for n in range(k, 2 * k):
            for ps in (pieces, stand_ins):
                assert _assembled(ps, k, n) == oracles.assembled(ps, k, n), (k, n)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_shipped_graphs_are_joins_of_odd_pieces(k):
    # Gallai: n + #co-components = 2k, every co-component of odd order 2j-1
    for _, g in read_graph_file(data_path(f"critical{k}.g6")):
        comps = co_components(g)
        assert g.n + len(comps) == 2 * k
        assert all(c.bit_count() % 2 == 1 for c in comps)
        # a co-component of order 2j-1 >= 3 has degrees 2..j-1 in the
        # complement: the piece test implies them, so the piece run does
        # not test them apart
        co = complement(g).adj
        for c in comps:
            j = (c.bit_count() + 1) // 2
            assert j == 1 or all(2 <= (co[v] & c).bit_count() <= j - 1
                                 for v in range(g.n) if c >> v & 1)


# ===== the general pipeline =====

def test_general_vs_fast_pipeline_small():
    fast = all_codes(census_copaw_critical(4))
    general = all_codes(census_general(4, "P3+P1", 7))
    assert fast == general


def test_general_3critical_unrestricted():
    rows = census_general(3, None, 7)
    assert [(r.n, r.count) for r in rows] == [
        (3, 1), (4, 0), (5, 1), (6, 0), (7, 1)]
    assert all_codes(rows) == {canonical_form(named_graph(f"C{m}"))
                               for m in (3, 5, 7)}


def test_general_p2lp1_censuses():
    for l in (1, 2):
        rows = census_general(3, f"P2+{l}P1", 2 * l + 1)
        got = all_codes(rows)
        expect = {canonical_form(named_graph(f"C{2*m+1}")) for m in range(1, l + 1)}
        assert got == expect
        assert max(r.n for r in rows if r.count) == 2 * l + 1


def test_general_workers_match_serial():
    serial = census_general(4, "P3+P1", 7)
    parallel = census_general(4, "P3+P1", 7, workers=2)
    assert parallel == serial
    assert [r.count for r in serial] == [1, 0, 1, 6]


def test_general_1critical_is_k1():
    rows = census_general(1, None, 3)
    assert [(r.n, r.count) for r in rows] == [(1, 1), (2, 0), (3, 0)]


@pytest.mark.parametrize("pattern", (None, *ORDER4_NAMES))
def test_general_census_equals_the_filtered_census(pattern):
    # the pipeline the pruned run replaced, every class of order <= 8
    # filtered directly: the same classes at every order, none twice
    rows = census_general(4, pattern, 8)
    assert codes_by_order(rows) == \
        codes_by_order(oracles.filtered_general_census(4, pattern, 8))
    assert all(len(set(r.codes)) == r.count for r in rows)


@pytest.mark.parametrize("pattern", [None, "P3+P1", "C4", "K3+P1"])
def test_general_run_keeps_exactly_the_capped_free_classes(pattern):
    # orders 1..8 of a run to order 9 at k = 5: each level is the
    # unpruned all-graphs level, in its order, cut to maximum degree
    # <= 9 - 5 and to the graphs whose complement is free of the pattern
    # (every order-4 pattern, and k = 3, in tests/exhaustive_census.py)
    pat = None if pattern is None else as_pattern(pattern)
    expand = partial(_general_expand, k=5, last=9, pattern=pat)
    for n, (level, _) in enumerate(_levels(expand, 8), 1):
        assert level == [f for f in oracles.all_graphs_level(n)
                         if max(a.bit_count() for a in f.adj) <= 4
                         and (pat is None or is_free(complement(f), pat))], n


@pytest.mark.parametrize("k, pattern, tested", [
    (3, None, 205913), (4, "C4", 1540), (5, "co-K4", 14922)])
def test_general_run_tests_criticality_within_the_order_bound(monkeypatch, k, pattern,
                                                              tested):
    # only a child whose complement G has minimum degree >= k - 1, the
    # bound of its own order, is tested for criticality; the run's cap
    # alone (maximum degree <= 9 - k in F) let 210,418, 2,680 and 17,432
    # through
    degrees, real = [], kcrit.census.is_vertex_critical

    def recording(g, j):
        degrees.append(min(a.bit_count() for a in g.adj))
        return real(g, j)

    monkeypatch.setattr(kcrit.census, "is_vertex_critical", recording)
    census_general(k, pattern, 9)
    assert len(degrees) == tested
    assert min(degrees) >= k - 1


def test_exhaustive_k5_census_equals_piece_census():
    # every P3+P1-free class of order <= 9 under the degree cap, tested
    # directly, against the piece census (the paper's appendix list)
    general = census_general(5, "P3+P1", 9)
    assert [(r.n, r.count) for r in general] == [(5, 1), (6, 0), (7, 1), (8, 6), (9, 170)]
    assert codes_by_order(general) == codes_by_order(census_copaw_critical(5))


def test_exhaustive_k4_census_is_empty_past_order_7():
    # claim (ii) at k = 4, to order 9
    general = census_general(4, "P3+P1", 9)
    assert [(r.n, r.count) for r in general] == \
        [(4, 1), (5, 0), (6, 1), (7, 6), (8, 0), (9, 0)]


def test_general_args():
    with pytest.raises(ValueError):
        census_general(0, None, 5)
    with pytest.raises(ValueError):
        census_general(3, None, 10)  # over the order-9 cap


# ===== verify_list =====

def test_verify_appendix_file():
    rep = verify_list(data_path("appendix5.edges"), 5, "P3+P1")
    assert rep.total == 178
    assert rep.failures == ()
    assert rep.ok


def test_verify_figure_file():
    rep = verify_list(data_path("fig1.edges"), 4)
    assert rep.total == 11 and rep.ok


def test_verify_census_comparison():
    codes = all_codes(census_copaw_critical(5))
    rep = verify_list(data_path("appendix5.edges"), 5, "P3+P1", census_codes=codes)
    assert rep.census_match is True and rep.ok
    rep = verify_list(data_path("fig1.edges"), 4, census_codes={"dummy"})
    assert rep.census_match is False and not rep.ok


def test_verify_never_searches_for_p3p1(monkeypatch):
    # P3+P1 is decided by the join decomposition, not by an embedding search
    from kcrit.patterns import contains_induced
    calls = spy(monkeypatch, contains_induced)
    rep = verify_list(data_path("critical5.g6"), 5, "P3+P1")
    assert rep.total == 178 and rep.ok
    assert calls == []
    assert not is_free(named_graph("C7"), "P3+P1") and calls == []


def test_verify_flags_duplicates_and_noncritical(tmp_path):
    k4 = format_edge_list(named_graph("K4"))
    c6 = to_graph6(named_graph("C6"))
    path = tmp_path / "bad.txt"
    path.write_text(f"{k4}\n{c6}\n{k4}\n")
    rep = verify_list(path, 4)
    assert rep.total == 3 and not rep.ok
    assert (2, "not 4-vertex-critical") in rep.failures
    assert any(line == 3 and "line 1" in msg for line, msg in rep.failures)


def test_verify_flags_pattern_hit(tmp_path):
    path = tmp_path / "c7.txt"
    path.write_text(format_edge_list(named_graph("C7")) + "\n")
    rep = verify_list(path, 3, "P3+P1")
    assert (1, "contains the forbidden pattern") in rep.failures


def _mixed_list(rng) -> list[Graph]:
    # random graphs, random P3+P1-free joins (alpha > 2 when a factor is
    # a union of cliques), shipped critical graphs, and repeated lines,
    # both verbatim and relabelled
    shipped = [[from_graph6(c) for _, c in read_graph_list(data_path(f"critical{k}.g6"))[1]]
               for k in (4, 5, 6)]
    gs = [random_graph(rng, rng.randint(1, 9), rng.choice([0.3, 0.5, 0.7, 0.9]))
          for _ in range(16)]
    gs += [random_copaw_free(rng, 11) for _ in range(16)]
    gs += shipped[0] + rng.sample(shipped[1], 10) + rng.sample(shipped[2], 6)
    gs += [named_graph("C7"), Graph(1, (0,))]
    gs += rng.sample(gs, 4)
    gs += [relabel(g, rng.sample(range(g.n), g.n)) for g in rng.sample(gs, 4)]
    rng.shuffle(gs)
    return gs


def _verify_oracle(gs, k, pattern) -> VerifyReport:
    # each line checked by the public entry points on their own: the
    # reference for verify_list's one chi_raw pass per line
    failures, codes, seen = [], [], {}
    for lineno, g in enumerate(gs, 1):
        code = canonical_form(g)
        codes.append(code)
        if code in seen:
            failures.append((lineno, f"isomorphic to the graph on line {seen[code]}"))
        else:
            seen[code] = lineno
        if pattern is not None and not is_free(g, pattern):
            failures.append((lineno, "contains the forbidden pattern"))
        if not is_vertex_critical(g, k).is_critical:
            failures.append((lineno, f"not {k}-vertex-critical"))
    return VerifyReport(len(gs), tuple(failures), tuple(codes))


def test_verify_equals_the_per_line_oracle(tmp_path):
    gs = _mixed_list(Random(50))
    path = tmp_path / "mixed.g6"
    path.write_text("".join(to_graph6(g) + "\n" for g in gs))
    failed = Counter()
    for k in range(1, 8):
        for pattern in (None, "P3+P1", "claw", "K4", "co-K4"):
            rep = verify_list(path, k, pattern)
            assert rep == _verify_oracle(gs, k, pattern), (k, pattern)
            failed.update((k, msg.split()[0]) for _, msg in rep.failures)
    # each kind of failure occurs, and some lines are critical at each k = 3..6
    assert {kind for _, kind in failed} == {"isomorphic", "contains", "not"}
    assert all(failed[k, "not"] < 5 * len(gs) for k in range(3, 7))


def test_verify_builds_one_complement_and_one_triangle_test_per_line(monkeypatch, tmp_path):
    # alpha <= 2 on every line: the chi_raw pass decides P3+P1 with the rest
    from kcrit.invariants import triangle_free_raw
    from kcrit.patterns import contains_induced, copaw_decompose
    c7 = tmp_path / "c7.g6"
    c7.write_text(to_graph6(named_graph("C7")) + "\n")
    built = spy(monkeypatch, complement)
    tested = spy(monkeypatch, triangle_free_raw)
    decomposed = spy(monkeypatch, copaw_decompose)
    searched = spy(monkeypatch, contains_induced)
    rep = verify_list(data_path("critical5.g6"), 5, "P3+P1")
    assert rep.total == 178 and rep.ok
    assert (len(built), len(tested), decomposed, searched) == (178, 178, [], [])
    # alpha(C7) = 3: the join decomposition decides it, once
    rep = verify_list(c7, 3, "P3+P1")
    assert rep.failures == ((1, "contains the forbidden pattern"),)
    assert len(decomposed) == 1 and searched == []
