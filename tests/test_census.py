"""Tests for the census pipelines and list verification."""

import pytest

from kcrit.canon import canonical_form
from kcrit.census import (
    CensusRow,
    _filtered_level,
    _has_perfect_matching,
    _mapper,
    _pieces,
    census_copaw_critical,
    census_general,
    verify_list,
)
from kcrit.critical import is_vertex_critical
from kcrit.families import co_odd_cycle
from kcrit.generate import TRIANGLE_FREE, child_graphs
from kcrit.graph import Graph, complement, format_edge_list, read_graph_file, to_graph6
from kcrit.invariants import independence_number, matching_raw
from kcrit.patterns import co_components, is_free, named_graph

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
        gs = row.graphs()
        assert all(g.n == row.n for g in gs)
        assert [canonical_form(g) for g in gs] == list(row.codes)


def test_census_soundness_double_entry():
    # fresh recomputation with the generic tools, not the matching shortcut
    for row in census_copaw_critical(4):
        for g in row.graphs():
            assert is_free(g, "P3+P1")
            assert independence_number(g) <= 2
            assert g.n <= 7
            assert min(g.degree(v) for v in range(g.n)) >= 3
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


def test_census_workers_match_serial():
    serial = census_copaw_critical(4, workers=1)
    parallel = census_copaw_critical(4, workers=2)
    assert serial == parallel


def test_filtered_level_workers_keep_degree_bound():
    # the pool path must expand with the same degree bound as the serial one
    parents = [Graph(1, (0,))]
    for _ in range(5):
        parents, _ = _filtered_level(parents, 4)
    serial = _filtered_level(parents, 4)
    with _mapper(2) as mapper:
        parallel = _filtered_level(parents, 4, mapper)
    assert len(parents) >= 8
    assert [g.adj for g in parallel[0]] == [g.adj for g in serial[0]]
    assert parallel[1] == serial[1] and len(serial[1]) == 6   # P_4 at order 7
    assert max(a.bit_count() for g in serial[0] for a in g.adj) <= 4


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
def test_perfect_matching_prune_loses_no_piece(top):
    # without the prune, the filter finds the same pieces in the same order
    level, unpruned = [Graph(1, (0,))], {}
    for n in range(2, 2 * top):
        if n == 2 * top - 1:
            kept = [f for f in level if _has_perfect_matching(f)]
            assert 0 < len(kept) < len(level)
        level, unpruned[n] = _filtered_level(level, top - 1)
    pieces = _pieces(top)
    assert [pieces[j] for j in range(3, top + 1)] == \
        [unpruned[2 * j - 1] for j in range(3, top + 1)]
    assert [len(pieces[j]) for j in range(1, top + 1)] == [1, 0, 1, 6, 170][:top]


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


def test_general_alpha_restricted_mode():
    fast = _codes(census_copaw_critical(4))
    restricted = _codes(census_general(4, "P3+P1", 7, alpha_le_2=True))
    assert fast == restricted


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


@pytest.mark.parametrize("alpha_le_2", [False, True])
def test_general_workers_match_serial(alpha_le_2):
    serial = census_general(4, "P3+P1", 7, alpha_le_2=alpha_le_2)
    parallel = census_general(4, "P3+P1", 7, alpha_le_2=alpha_le_2, workers=2)
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
    with pytest.raises(ValueError):
        census_general(3, None, 12, alpha_le_2=True)


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
