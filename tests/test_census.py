"""Tests for the census pipelines and list verification."""

import pytest

from kcrit.canon import canonical_form
from kcrit.census import (
    CensusRow,
    _filtered_level,
    census_copaw_critical,
    census_general,
    verify_list,
)
from kcrit.critical import is_vertex_critical
from kcrit.families import co_odd_cycle
from kcrit.graph import Graph, format_edge_list, to_graph6
from kcrit.invariants import independence_number
from kcrit.patterns import is_free, named_graph

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
    for _ in range(6):
        parents, _ = _filtered_level(parents, 5, 1, 4)
    serial = _filtered_level(parents, 5, 1, 4)
    parallel = _filtered_level(parents, 5, 2, 4)
    assert len(parents) >= 8                 # enough to take the pool path
    assert [g.adj for g in parallel[0]] == [g.adj for g in serial[0]]
    assert parallel[1] == serial[1]
    assert max(a.bit_count() for g in serial[0] for a in g.adj) <= 4


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
