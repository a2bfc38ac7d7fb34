"""Graph representation, transformations, and serialization."""

from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from kcrit.graph import (Graph, bits, complement, delete_vertex, disjoint_union,
                         format_edge_list, from_edge_list, from_graph6,
                         induced_subgraph, join, mask_of, parse_edge_list,
                         parse_graph_line, relabel, to_graph6)
from util import data_path, graphs, random_graph

K4 = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
C5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def complete(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# ===== construction =====

def test_from_edge_list_k4():
    assert K4.n == 4
    assert K4.edge_count() == 6
    assert all(K4.degree(v) == 3 for v in range(4))


def test_from_edge_list_empty():
    g = from_edge_list(3, [])
    assert g.n == 3 and g.edge_count() == 0


def test_from_edge_list_c5_degrees():
    assert all(C5.degree(v) == 2 for v in range(5))


def test_from_edge_list_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 1), (1, 0)])


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(2, (0b10,) * 2)        # self-loop at vertex 1
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))       # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (0b10,))            # bit above n


# ===== transformations =====

def test_complement_k4():
    assert complement(K4).edge_count() == 0


def test_complement_involution_exact():
    assert complement(complement(C5)) == C5


def test_induced_path_of_cycle():
    p3 = induced_subgraph(C5, {0, 1, 2})
    assert p3.n == 3 and p3.edges() == [(0, 1), (1, 2)]


def test_induced_full_identity():
    assert induced_subgraph(C5, (1 << 5) - 1) == C5


def test_induced_of_complete():
    assert induced_subgraph(complete(5), {0, 2, 3, 4}) == complete(4)


def test_delete_vertex():
    p4 = delete_vertex(C5, 0)
    assert p4.n == 4 and p4.edge_count() == 3 and sorted(p4.degree_sequence()) == [1, 1, 2, 2]
    assert delete_vertex(K4, 2) == complete(3)


@pytest.mark.parametrize("s, vertex", [
    (-1, 5),                    # a negative mask holds every vertex from n up
    (0b1100001, 5),
    (1 << 9, 9),
    ([0, 7], 7),
    ({1, -2}, -2),
])
def test_induced_rejects_vertices_out_of_range(s, vertex):
    with pytest.raises(ValueError, match=f"vertex {vertex} out of range for n=5"):
        induced_subgraph(C5, s)


@pytest.mark.parametrize("v", [-1, 5, 7])
def test_delete_vertex_rejects_vertices_out_of_range(v):
    with pytest.raises(ValueError, match=f"vertex {v} out of range for n=5"):
        delete_vertex(C5, v)


@given(graphs(max_n=9), st.integers(0, (1 << 9) - 1))
def test_induced_subgraph_is_valid(g, s):
    # built without the constructor's checks; they must pass anyway
    h = induced_subgraph(g, s & ((1 << g.n) - 1))
    assert Graph(h.n, h.adj) == h
    assert induced_subgraph(g, list(bits(s & ((1 << g.n) - 1)))) == h


def test_join_and_union():
    assert join(complete(1), complete(1)) == complete(2)
    p2_2p1 = disjoint_union(from_edge_list(2, [(0, 1)]), Graph(2, (0, 0)))
    assert p2_2p1.n == 4 and p2_2p1.edge_count() == 1
    w = join(C5, complete(1))
    assert w.n == 6 and w.degree(5) == 5 and w.edge_count() == 10


def test_join_order_overflow():
    with pytest.raises(ValueError):
        join(complete(20), complete(20))


def test_relabel_reverses():
    g = relabel(C5, [4, 3, 2, 1, 0])
    assert g.edge_count() == 5 and all(g.degree(v) == 2 for v in range(5))


def test_mask_helpers():
    assert mask_of([0, 2, 4]) == 0b10101
    assert list(bits(0b10101)) == [0, 2, 4]


# ===== graph6 =====

def test_graph6_k4():
    # frozen from the independent encoder: K4 packs to two characters
    assert oracles.graph6_encode(K4) == "C~"
    assert to_graph6(K4) == "C~"
    assert from_graph6("C~") == K4


def test_graph6_single_vertex():
    g = Graph(1, (0,))
    assert to_graph6(g) == "@"
    assert from_graph6("@") == g


def test_graph6_matches_reference_encoder():
    for g in oracles.all_labeled_graphs(5):
        assert to_graph6(g) == oracles.graph6_encode(g)


@given(graphs(max_n=12))
def test_graph6_round_trip(g):
    assert from_graph6(to_graph6(g)) == g


def test_graph6_malformed():
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("C~~")          # body too long
    with pytest.raises(ValueError):
        from_graph6("C")            # body too short
    with pytest.raises(ValueError):
        from_graph6("A~")           # nonzero padding bits
    with pytest.raises(ValueError):
        from_graph6(chr(35 + 63))   # order 35 > 31 cap
    with pytest.raises(ValueError):
        from_graph6("C" + chr(30))  # byte below 63


def test_graph6_decoder_equals_bitwise_oracle():
    # the one-integer decoder against the bit-at-a-time decoder it replaced
    for name in ("critical4.g6", "critical5.g6", "critical6.g6"):
        lines = data_path(name).read_text().split()
        codes = [c for c in lines if not c.startswith(("k=", "count="))]
        assert codes
        for c in codes:
            assert from_graph6(c) == oracles.from_graph6(c)
    rng = Random(6)
    for n in range(32):
        for _ in range(4):
            g = random_graph(rng, n, rng.random())
            assert from_graph6(to_graph6(g)) == oracles.from_graph6(to_graph6(g)) == g


def _error(decode, text):
    with pytest.raises(ValueError) as exc:
        decode(text)
    return str(exc.value)


@pytest.mark.parametrize("text", ["B~", "Ab", "C~~", "~", "`", "A\x7f", ""])
def test_graph6_errors_equal_oracle(text):
    assert _error(from_graph6, text) == _error(oracles.from_graph6, text)


# ===== edge-list text =====

def test_parse_edge_list_forms():
    assert parse_edge_list("5: 0 1, 1 2, 2 3, 3 4, 0 4") == C5
    assert parse_edge_list("3:") == from_edge_list(3, [])
    assert parse_edge_list("01 02 03 12 13 23") == K4
    assert parse_edge_list("{01, 02, 03, 12, 13, 23}") == K4
    assert parse_edge_list("4: 0 1 # a comment") == from_edge_list(4, [(0, 1)])


def test_parse_edge_list_errors():
    for bad in ["", "x: 0 1", "3: 0", "3: 0 1 2", "001 02", "ab cd"]:
        with pytest.raises(ValueError):
            parse_edge_list(bad)


@given(graphs(max_n=10))
def test_edge_list_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


def test_parse_graph_line_dispatch():
    assert parse_graph_line("C~") == K4
    assert parse_graph_line("01 02 03 12 13 23") == K4
    assert parse_graph_line("4: 0 1, 0 2, 0 3, 1 2, 1 3, 2 3") == K4
    assert parse_graph_line("01,02,12") == complete(3)
    assert parse_graph_line("{01,02,12}") == complete(3)


def test_parse_graph_line_reports_graph6_errors():
    # a token that is not edge-list shaped gets graph6's own error
    for bad in ["C~~", "A~", "k=5"]:
        with pytest.raises(ValueError, match="graph6"):
            parse_graph_line(bad)


def test_read_graph_file(tmp_path):
    from kcrit.graph import read_graph_file
    p = tmp_path / "graphs.txt"
    p.write_text("# two graphs\n5: 0 1, 1 2, 2 3, 3 4, 0 4\n\nC~\n")
    loaded = read_graph_file(p)
    assert [ln for ln, _ in loaded] == [2, 4]
    assert loaded[0][1] == C5 and loaded[1][1] == K4


def test_read_graph_file_header(tmp_path):
    from kcrit.graph import read_graph_file
    p = tmp_path / "critical.g6"
    p.write_text("k=4 count=2\nC~\nDhc\n")
    assert [g.n for _, g in read_graph_file(p)] == [4, 5]
    p.write_text("k=4 count=3\nC~\nDhc\n")
    with pytest.raises(ValueError, match="header says 3"):
        read_graph_file(p)
    p.write_text("C~\nk=4 count=1\n")           # only as the first line
    with pytest.raises(ValueError, match=":2:"):
        read_graph_file(p)


def test_read_shipped_databases():
    from kcrit.graph import read_graph_file
    from util import data_path
    counts = {k: len(read_graph_file(data_path(f"critical{k}.g6")))
              for k in (4, 5)}
    assert counts == {4: 8, 5: 178}
