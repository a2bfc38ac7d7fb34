"""Tests for the census pipelines and list verification."""

import os
from functools import partial
from random import Random

import pytest

import kcrit.census
import oracles
from kcrit.canon import canon_raw, canonical_form
from kcrit.census import (
    CensusRow,
    _assembled,
    _filtered_level,
    _general_expand,
    _join_cross_check,
    _mapper,
    _pieces,
    _piece_expand,
    census_copaw_critical,
    census_general,
    verify_list,
)
from kcrit.critical import is_vertex_critical
from kcrit.families import co_odd_cycle
from kcrit.generate import TRIANGLE_FREE, _independent_masks, child_graphs
from kcrit.graph import (Graph, complement, format_edge_list, from_graph6, join,
                         read_graph_file, read_graph_list, to_graph6)
from kcrit.invariants import gallai_edmonds_raw, independence_number, matching_raw
from kcrit.patterns import ORDER4_NAMES, as_pattern, is_free, named_graph

from lemmas import co_components
from util import data_path, degree_rule, random_triangle_free


def _codes(rows):
    return {c for row in rows for c in row.codes}


def _by_order(rows):
    return {r.n: set(r.codes) for r in rows}


# ===== the fast pipeline =====

def test_census_k3():
    rows = census_copaw_critical(3)
    assert [(r.n, r.count) for r in rows] == [(3, 1), (4, 0), (5, 1)]
    assert _codes(rows) == {canonical_form(named_graph("K3")),
                            canonical_form(named_graph("C5"))}


def test_census_k4():
    rows = census_copaw_critical(4)
    assert [(r.n, r.count) for r in rows] == [(4, 1), (5, 0), (6, 1), (7, 6)]
    assert sum(r.count for r in rows) == 8
    assert canonical_form(co_odd_cycle(4)) in _codes(rows)


def test_census_k5():
    rows = census_copaw_critical(5)
    assert [(r.n, r.count) for r in rows] == [
        (5, 1), (6, 0), (7, 1), (8, 6), (9, 170)]
    assert sum(r.count for r in rows) == 178
    assert canonical_form(co_odd_cycle(5)) in _codes(rows)


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


def test_census_args():
    with pytest.raises(ValueError):
        census_copaw_critical(2)
    with pytest.raises(ValueError, match="hours"):
        census_copaw_critical(7)
    with pytest.raises(ValueError):
        census_copaw_critical(8)
    with pytest.raises(ValueError):
        census_copaw_critical(4, n_max=8)
    with pytest.raises(ValueError):
        census_copaw_critical(4, n_max=3)


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
    parents = [Graph(1, (0,))]
    for _ in range(5):
        parents, _ = _filtered_level(parents, to_9)
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
    level = [Graph(1, (0,))]
    for n in range(2, n_max + 1):
        level = [c for p in level
                 for c in child_graphs(p, TRIANGLE_FREE, degree_rule(p, n_max - k))]
        if n < k:
            continue
        full = (1 << n) - 1
        rows[n] = {canonical_form(complement(f)) for f in level
                   if matching_raw(n, f.adj, full) == n - k
                   and all(matching_raw(n, f.adj, full ^ 1 << v) == n - k
                           for v in range(n))}
    return rows


@pytest.mark.parametrize("k, n_max", [(k, n) for k in (3, 4, 5) for n in range(k, 2 * k)]
                         + [(6, n) for n in range(6, 11)])
def test_piece_census_equals_level_filter_census(k, n_max):
    rows = census_copaw_critical(k, n_max)
    assert {r.n: set(r.codes) for r in rows} == _level_filter_census(k, n_max)
    assert all(len(set(r.codes)) == r.count for r in rows)


def _is_piece(f):
    # factor-critical: one vertex exposed, and D is every vertex
    full = (1 << f.n) - 1
    mates, d = gallai_edmonds_raw(f.n, f.adj, full)
    return mates.count(-1) == 1 and d == full


@pytest.mark.parametrize("top", [3, 4, 5])
def test_deficiency_prune_and_leaf_step_lose_no_piece(top):
    # an unpruned run that keeps every child at every order finds the same
    # pieces in the same order, and both prunes drop something: the
    # deficiency prune some graph at some order, the leaf step (only
    # pieces at the last order) some child, for one of minimum degree < 2
    last = 2 * top - 1
    level, unpruned, drops = [Graph(1, (0,))], {}, 0
    for n in range(2, last + 1):
        kept = [f for f in level
                if f.n - 2 * matching_raw(f.n, f.adj, (1 << f.n) - 1) <= last - n]
        drops += len(kept) < len(level)
        if n == last:       # the perfect-matching prune it generalises
            assert kept == [f for f in level if oracles.has_perfect_matching(f)]
        level = [c for p in level
                 for c in child_graphs(p, TRIANGLE_FREE, degree_rule(p, top - 1))]
        if n % 2:
            unpruned[n] = [canonical_form(complement(f)) for f in level if _is_piece(f)]
    assert drops and 0 < len(kept)
    assert any(min(a.bit_count() for a in f.adj) < 2 for f in level)
    pieces = _pieces(top)
    assert [pieces[j] for j in range(2, top + 1)] == \
        [unpruned[2 * j - 1] for j in range(2, top + 1)]
    assert [len(pieces[j]) for j in range(1, top + 1)] == [1, 0, 1, 6, 170][:top]


def _predicted(parent, s):
    # (e(F), F is a piece) for F = parent + vertex p attached to s, read
    # off the parent alone: e(F) = e(P) - 1 if s meets D(P), e(P) + 1
    # otherwise; F is a piece iff P has a perfect matching and the
    # D(P - v) over v in s cover P
    p, adj = parent.n, parent.adj
    full = (1 << p) - 1
    mates, d = gallai_edmonds_raw(p, adj, full)
    exposed = mates.count(-1)
    reach = 0
    for v in range(p):
        if s >> v & 1:
            reach |= gallai_edmonds_raw(p, adj, full ^ 1 << v)[1]
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
            mates, d = gallai_edmonds_raw(p + 1, _extended(parent, s).adj, full)
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
    level = [Graph(1, (0,))]
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
    # each parent of the piece run gets one blossom pass for its exposed
    # count (matching_raw), and one for D(P) and a maximum matching M when
    # e(P) is 0 or N - n (N the last order); when its children have odd
    # order and e(P) = 0, one alternating search from M(v) in P - v for
    # D(P - v), per vertex v under the degree cap.  No child gets a pass
    # of its own: 573 passes and 1,288 searches, where a fresh pass on
    # every P - v made 1,822 passes.  The same run offers 1,556
    # attachment sets to the orbit step and 841 representatives to the
    # canonicity test (2,566 and 1,327 when the new vertex's degree rule
    # was checked on each representative)
    import kcrit.generate as generate
    import kcrit.invariants as invariants
    passes, searches, want, parents = [0], [0], [0, 0], [0]
    real, search = invariants.gallai_edmonds_raw, kcrit.census.alternating_forest
    offered, tested = [0], [0]
    reps, test = generate._mask_orbit_reps, generate._canonical_extension

    def reps_spy(masks, gens):
        offered[0] += len(masks)
        return reps(masks, gens)

    def test_spy(*args):
        tested[0] += 1
        return test(*args)

    monkeypatch.setattr(generate, "_mask_orbit_reps", reps_spy)
    monkeypatch.setattr(generate, "_canonical_extension", test_spy)

    def counting(*args):
        passes[0] += 1
        return real(*args)

    def searching(*args):
        searches[0] += 1
        return search(*args)

    monkeypatch.setattr(kcrit.census, "gallai_edmonds_raw", counting)
    monkeypatch.setattr(invariants, "gallai_edmonds_raw", counting)
    monkeypatch.setattr(kcrit.census, "alternating_forest", searching)
    expand = kcrit.census._piece_expand

    def spy(parent, last):
        p, n = parent.n, parent.n + 1
        exposed = p - 2 * oracles.max_matching(parent)
        low = sum(a.bit_count() < (last - 1) // 2 for a in parent.adj)
        want[0] += 1 + (exposed in (0, last - n))
        want[1] += low if n % 2 and not exposed else 0
        parents[0] += 1
        return expand(parent, last)

    monkeypatch.setattr(kcrit.census, "_piece_expand", spy)
    _pieces(5)
    assert [passes[0], searches[0]] == want
    assert (parents[0], *want) == (295, 573, 1288)
    assert (offered[0], tested[0]) == (1556, 841)


def test_pieces_hand_generators_down(monkeypatch):
    # a parent that stage 3 labelled when it was accepted comes with its
    # own generators, so the next step does not label it again
    import kcrit.census as census
    seen, expand = [], census.child_graphs

    def spy(parent, *args, **kwargs):
        seen.append(parent)
        return expand(parent, *args, **kwargs)

    monkeypatch.setattr(census, "child_graphs", spy)
    _pieces(5)
    handed = [p for p in seen if p._gens is not None]
    assert len(handed) > len(seen) // 4
    assert all(p._gens == canon_raw(p.n, p.adj)[2] for p in handed)


def _per_vertex_pieces(top):
    # the piece filter the Gallai-Edmonds test replaced, kept as an
    # oracle without its prunes: at each odd order 2j-1 <= 2*top-1, the
    # triangle-free F of maximum degree <= top-1 whose every F - v has a
    # perfect matching, in discovery order
    pieces, level = {}, [Graph(1, (0,))]
    for n in range(2, 2 * top):
        level = [c for p in level
                 for c in child_graphs(p, TRIANGLE_FREE, degree_rule(p, top - 1))]
        if n % 2:
            full = (1 << n) - 1
            pieces[(n + 1) // 2] = [
                canonical_form(complement(f)) for f in level
                if all(2 * matching_raw(n, f.adj, full ^ 1 << v) == n - 1
                       for v in range(n))]
    return pieces


@pytest.mark.parametrize("top", [3, 4, 5])
def test_piece_filter_equals_per_vertex_filter(top):
    pieces, oracle = _pieces(top), _per_vertex_pieces(top)
    assert [pieces[j] for j in range(2, top + 1)] == \
        [oracle[j] for j in range(2, top + 1)]


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
    fast = _codes(census_copaw_critical(4))
    general = _codes(census_general(4, "P3+P1", 7))
    assert fast == general


def test_general_3critical_unrestricted():
    rows = census_general(3, None, 7)
    assert [(r.n, r.count) for r in rows] == [
        (3, 1), (4, 0), (5, 1), (6, 0), (7, 1)]
    assert _codes(rows) == {canonical_form(named_graph(f"C{m}"))
                            for m in (3, 5, 7)}


def test_general_p2lp1_censuses():
    for l in (1, 2):
        rows = census_general(3, f"P2+{l}P1", 2 * l + 1)
        got = _codes(rows)
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
    assert _by_order(rows) == _by_order(oracles.filtered_general_census(4, pattern, 8))
    assert all(len(set(r.codes)) == r.count for r in rows)


@pytest.mark.parametrize("pattern", [None, "P3+P1", "C4", "K3+P1"])
def test_general_run_keeps_exactly_the_capped_free_classes(pattern):
    # orders 1..8 of a run to order 9 at k = 5: each level is the
    # unpruned all-graphs level, in its order, cut to maximum degree
    # <= 9 - 5 and to the graphs whose complement is free of the pattern
    # (every order-4 pattern, and k = 3, in tests/exhaustive_census.py)
    pat = None if pattern is None else as_pattern(pattern)
    expand = partial(_general_expand, k=5, last=9, pattern=pat)
    level = [Graph(0, ())]
    for n in range(1, 9):
        level = _filtered_level(level, expand)[0]
        assert level == [f for f in oracles.all_graphs_level(n)
                         if max(a.bit_count() for a in f.adj) <= 4
                         and (pat is None or is_free(complement(f), pat))], n


def test_exhaustive_k5_census_equals_piece_census():
    # every P3+P1-free class of order <= 9 under the degree cap, tested
    # directly, against the piece census (the paper's appendix list)
    general = census_general(5, "P3+P1", 9)
    assert [(r.n, r.count) for r in general] == [(5, 1), (6, 0), (7, 1), (8, 6), (9, 170)]
    assert _by_order(general) == _by_order(census_copaw_critical(5))


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
    codes = _codes(census_copaw_critical(5))
    rep = verify_list(data_path("appendix5.edges"), 5, "P3+P1", census_codes=codes)
    assert rep.census_match is True and rep.ok
    rep = verify_list(data_path("fig1.edges"), 4, census_codes={"dummy"})
    assert rep.census_match is False and not rep.ok


def test_verify_never_searches_for_p3p1(monkeypatch):
    # P3+P1 is decided by the join decomposition, not by an embedding search
    import kcrit.patterns
    calls = []
    real = kcrit.patterns.contains_induced

    def counted(g, h):
        calls.append(g.n)
        return real(g, h)

    monkeypatch.setattr(kcrit.patterns, "contains_induced", counted)
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
