"""Tests for the census pipelines and list verification."""

import os

import pytest

import kcrit.census
import oracles
from kcrit.canon import canon_raw, canonical_form
from kcrit.census import (
    CensusRow,
    _deficiency,
    _filtered_level,
    _mapper,
    _pieces,
    census_copaw_critical,
    census_general,
    verify_list,
)
from kcrit.critical import is_vertex_critical
from kcrit.families import co_odd_cycle
from kcrit.generate import TRIANGLE_FREE, child_graphs
from kcrit.graph import (Graph, complement, format_edge_list, from_graph6, read_graph_file,
                         to_graph6)
from kcrit.invariants import independence_number, matching_raw
from kcrit.patterns import is_free, named_graph

from lemmas import co_components
from util import data_path


def _codes(rows):
    return {c for row in rows for c in row.codes}


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
    # one and hand down the same generators
    parents, gens = [Graph(1, (0,))], None
    for _ in range(5):
        (parents, gens), _ = _filtered_level(parents, 4, gens=gens)
    serial = _filtered_level(parents, 4, gens=gens)
    with _mapper(2) as mapper:
        parallel = _filtered_level(parents, 4, mapper, gens)
        parallel_leaf = _filtered_level(parents, 4, mapper, gens, leaf=True)
    assert len(parents) >= 8 and any(g is not None for g in gens)
    (kids, kid_gens), codes = serial
    assert parallel == serial
    assert len(kid_gens) == len(kids) and any(g is not None for g in kid_gens)
    assert len(codes) == 6                                   # P_4 at order 7
    assert max(a.bit_count() for g in kids for a in g.adj) <= 4
    # the leaf step keeps no children and finds the same pieces
    assert parallel_leaf == _filtered_level(parents, 4, gens=gens, leaf=True)
    assert parallel_leaf == (([], []), codes)


# ===== the prime-piece census against the level-by-level pipeline =====

def _level_filter_census(k, n_max):
    # the pipeline the piece census replaced, kept as an oracle: grow
    # triangle-free F of maximum degree <= n_max - k to order n_max and
    # keep, at every order n >= k, the F whose complement is
    # k-vertex-critical, read off maximum matchings in F
    rows = {}
    level = [Graph(1, (0,))]
    for n in range(2, n_max + 1):
        level = [c for p in level for c in child_graphs(p, TRIANGLE_FREE, n_max - k)]
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


@pytest.mark.parametrize("top", [3, 4, 5])
def test_deficiency_prune_and_leaf_step_lose_no_piece(top):
    # an unpruned run that keeps every child at every order finds the same
    # pieces in the same order, and both prunes drop something: the
    # deficiency prune some graph at some order, the leaf step (minimum
    # degree >= 2 at the last order) some child
    last = 2 * top - 1
    level, unpruned, drops = [Graph(1, (0,))], {}, 0
    for n in range(2, last + 1):
        kept = [f for f in level if _deficiency(f) <= last - n]
        drops += len(kept) < len(level)
        if n == last:       # the perfect-matching prune it generalises
            assert kept == [f for f in level if oracles.has_perfect_matching(f)]
        (level, _), unpruned[n] = _filtered_level(level, top - 1)
    assert drops and 0 < len(kept)
    assert any(min(a.bit_count() for a in f.adj) < 2 for f in level)
    pieces = _pieces(top)
    assert [pieces[j] for j in range(2, top + 1)] == \
        [unpruned[2 * j - 1] for j in range(2, top + 1)]
    assert [len(pieces[j]) for j in range(1, top + 1)] == [1, 0, 1, 6, 170][:top]


def test_pieces_hand_generators_down(monkeypatch):
    # a parent that stage 4 labelled when it was accepted comes with its
    # own generators, so the next step does not label it again
    import kcrit.census as census
    seen, expand = [], census.child_graphs

    def spy(parent, *args, gens=None, **kwargs):
        seen.append((parent, gens))
        return expand(parent, *args, gens=gens, **kwargs)

    monkeypatch.setattr(census, "child_graphs", spy)
    _pieces(5)
    handed = [(p, g) for p, g in seen if g is not None]
    assert len(handed) > len(seen) // 4
    assert all(g == canon_raw(p.n, p.adj)[2] for p, g in handed)


def _per_vertex_pieces(top):
    # the piece filter the Gallai-Edmonds test replaced, kept as an
    # oracle without its prunes: at each odd order 2j-1 <= 2*top-1, the
    # triangle-free F of maximum degree <= top-1 whose every F - v has a
    # perfect matching, in discovery order
    pieces, level = {}, [Graph(1, (0,))]
    for n in range(2, 2 * top):
        level = [c for p in level for c in child_graphs(p, TRIANGLE_FREE, top - 1)]
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


@pytest.mark.parametrize("k", [4, 5, 6])
def test_shipped_graphs_are_joins_of_odd_pieces(k):
    # Gallai: n + #co-components = 2k, every co-component of odd order 2j-1
    for _, g in read_graph_file(data_path(f"critical{k}.g6")):
        comps = co_components(g)
        assert g.n + len(comps) == 2 * k
        assert all(c.bit_count() % 2 == 1 for c in comps)


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


def test_general_args():
    with pytest.raises(ValueError):
        census_general(0, None, 5)
    with pytest.raises(ValueError):
        census_general(3, None, 10)  # over the all-graphs cap


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
