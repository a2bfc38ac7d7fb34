"""Graph representation, transformations, and serialization."""

import os
import pathlib
import subprocess
import sys
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kcrit.graph as kcrit_graph
import oracles
from kcrit.graph import (Graph, bits, complement, delete_vertex, disjoint_union,
                         format_edge_list, from_edge_list, from_graph6,
                         induced_subgraph, join, mask_of, parse_edge_list,
                         parse_graph_line, read_graph_list, relabel, to_graph6,
                         write_graph_list)
from util import data_path, graphs, peak_traced, random_graph

K4 = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
C5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
P3 = from_edge_list(3, [(0, 1), (1, 2)])


def complete(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# ===== construction =====

def test_from_edge_list_k4():
    assert K4.n == 4
    assert len(K4.edges()) == 6
    assert all(K4.adj[v].bit_count() == 3 for v in range(4))


def test_from_edge_list_empty():
    g = from_edge_list(3, [])
    assert g.n == 3 and len(g.edges()) == 0


def test_from_edge_list_c5_degrees():
    assert all(C5.adj[v].bit_count() == 2 for v in range(5))


def test_from_edge_list_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(ValueError, match=r"^duplicate edge \(0,1\)$"):
        from_edge_list(3, [(0, 1), (1, 0)])


def test_from_edge_list_rejects_bool_vertex():
    with pytest.raises(ValueError, match="not an int"):
        from_edge_list(2, [(True, False)])


def test_from_edge_list_rejects_float_vertex():
    with pytest.raises(ValueError, match="not an int"):
        from_edge_list(3, [(0, 1.0)])


@pytest.mark.parametrize("n", [2.0, "3", None, True, -1, 10**20, 10**7],
                         ids=["float", "str", "none", "bool", "negative", "overflow", "huge"])
def test_from_edge_list_checks_the_order_before_allocating(n):
    # rejected with Graph's own message and no list of n entries made
    with peak_traced() as peak, pytest.raises(ValueError, match=r"must be an int in 0\.\.31, got"):
        from_edge_list(n, [])
    assert peak[0] < 100_000


@pytest.mark.parametrize("make", [
    lambda: disjoint_union(Graph(20, (0,) * 20), Graph(12, (0,) * 12)),
    lambda: join(Graph(16, (0,) * 16), Graph(16, (0,) * 16)),
    lambda: from_graph6(chr(63 + 40) + "?" * 130),
], ids=["disjoint-union", "join", "graph6"])
def test_orders_over_the_cap_get_the_one_order_message(make):
    with pytest.raises(ValueError, match=r"order must be an int in 0\.\.31, got (32|40)$"):
        make()


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(2, (0b10,) * 2)        # self-loop at vertex 1
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))       # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (0b10,))            # bit above n
    with pytest.raises(ValueError, match="^adjacency tuple length differs from order$"):
        Graph(2, (0,))


@pytest.mark.parametrize("n, adj", [(2.0, (2, 1)), (True, (0,)), ("1", (0,))])
def test_graph_rejects_an_order_that_is_not_an_int(n, adj):
    with pytest.raises(ValueError, match="order must be an int"):
        Graph(n, adj)


@pytest.mark.parametrize("call, message", [
    (lambda: Graph(2, None), "adj must be an iterable of rows, got None"),
    (lambda: Graph(2, 5), "adj must be an iterable of rows, got 5"),
    (lambda: from_edge_list(3, [5]), "edge 5 is not a pair of vertices"),
    (lambda: from_edge_list(3, [(0, 1, 2)]), r"edge \(0, 1, 2\) is not a pair of vertices"),
    (lambda: from_edge_list(3, [(0, 1), [2]]), r"edge \[2\] is not a pair of vertices"),
], ids=["adj-none", "adj-int", "edge-int", "edge-triple", "edge-single"])
def test_malformed_arguments_raise_value_error_naming_them(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_graph_stores_adjacency_as_a_tuple():
    g = Graph(2, [2, 1])
    assert g.adj == (2, 1) and g == Graph(2, (2, 1))
    assert hash(g) == hash(Graph(2, (2, 1)))
    assert join(g, g) == complete(4)


@pytest.mark.parametrize("adj, vertex", [((2.0, 1), 0), ((2, "1"), 1), ((2, None), 1),
                                         ((2, True), 1)])
def test_graph_rejects_rows_that_are_not_ints(adj, vertex):
    with pytest.raises(ValueError, match=f"vertex {vertex} is not an int"):
        Graph(2, adj)


def _adjacency_cases():
    # seeded valid graphs, then each fault alone and in combination
    rng = Random(22)
    for _ in range(400):
        n = rng.randint(0, 31)
        adj = list(random_graph(rng, n, rng.random()).adj)
        yield n, tuple(adj)
        if n < 2:
            continue
        for _ in range(rng.randint(1, 3)):
            v, u = rng.randrange(n), rng.randrange(n)
            if type(adj[v]) is not int:
                continue
            fault = rng.randrange(6)
            if fault == 0:
                adj[v] ^= 1 << u            # asymmetric pair, or a self-loop
            elif fault == 1:
                adj[v] |= 1 << v            # self-loop
            elif fault == 2:
                adj[v] |= 1 << rng.randint(n, 40)   # a bit at or above n
            elif fault == 3:
                adj[v] = -1 - adj[v]        # a negative row
            elif fault == 4:
                adj[v] = rng.choice((float(adj[v]), str(adj[v]), None))
            else:
                adj[v] = bool(adj[v] & 1)   # a bool row
            yield n, tuple(adj)


def test_graph_checks_equal_the_row_and_pair_loops():
    accepted = rejected = 0
    for n, adj in _adjacency_cases():
        fault = oracles.adjacency_fault(n, adj)
        if fault is None:
            assert Graph(n, adj).adj == adj
            accepted += 1
        else:
            with pytest.raises(ValueError) as exc:
                Graph(n, adj)
            assert str(exc.value) == fault
            rejected += 1
    assert accepted > 400 and rejected > 400
    # a row that spills into the next 32-bit slot must not pass as that slot's edge
    with pytest.raises(ValueError, match="neighbor bit at or above n=3"):
        Graph(3, (1 << 34, 0, 1 << 1))


# ===== transformations =====

def test_complement_k4():
    assert len(complement(K4).edges()) == 0


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
    assert p4.n == 4 and len(p4.edges()) == 3 and sorted(r.bit_count() for r in p4.adj) == [1, 1, 2, 2]
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
    assert p2_2p1.n == 4 and len(p2_2p1.edges()) == 1
    w = join(C5, complete(1))
    assert w.n == 6 and w.adj[5].bit_count() == 5 and len(w.edges()) == 10


def test_join_order_overflow():
    with pytest.raises(ValueError):
        join(complete(20), complete(20))


@pytest.mark.parametrize("call, message", [
    (lambda: relabel(P3, [True, False, 2]), "not a permutation"),
    (lambda: relabel(P3, [1, 0, 2.0]), "not a permutation"),
    (lambda: delete_vertex(P3, True), "vertex must be an int, got True"),
    (lambda: delete_vertex(P3, 1.0), "vertex must be an int, got 1.0"),
    (lambda: induced_subgraph(P3, [False, 2]), "vertex must be an int, got False"),
    (lambda: induced_subgraph(P3, True), "vertex mask must be an int, got True"),
], ids=["relabel-bool", "relabel-float", "delete-bool", "delete-float",
        "induced-iterable-bool", "induced-mask-bool"])
def test_vertex_indices_must_be_ints(call, message):
    # a bool is an int but names no vertex, as in Graph's order check
    with pytest.raises(ValueError, match=message):
        call()


def test_relabel_reverses():
    g = relabel(C5, [4, 3, 2, 1, 0])
    assert len(g.edges()) == 5 and all(g.adj[v].bit_count() == 2 for v in range(5))


@pytest.mark.parametrize("perm", [[2, 1, 0, 3], [0, 0, 1], [0, 1], [0, 1, -1], [0.0, 1, 2]])
def test_relabel_rejects_non_permutations(perm):
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="not a permutation of 0..2"):
        relabel(p3, perm)


def test_mask_helpers():
    assert mask_of([0, 2, 4]) == 0b10101
    assert list(bits(0b10101)) == [0, 2, 4]


@pytest.mark.parametrize("vertices", [[True], [0, False], [1.0], ["1"], [None], [-1],
                                      [0, -3]])
def test_mask_of_rejects_non_int_vertices(vertices):
    with pytest.raises(ValueError, match="must be an int"):
        mask_of(vertices)


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
        codes = [c for _, c in read_graph_list(data_path(name))[1]]
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


def test_graph6_each_pad_bit_is_rejected():
    # every order with pad bits, each pad bit set alone on an empty body
    checked = 0
    for n in range(2, 32):
        size = n * (n - 1) // 2
        pad = -size % 6
        if not pad:
            continue
        need = (size + 5) // 6
        for bit in range(pad):
            text = chr(n + 63) + "?" * (need - 1) + chr(63 + (1 << bit))
            assert _error(from_graph6, text) == _error(oracles.from_graph6, text)
            assert "padding" in _error(from_graph6, text)
            checked += 1
    assert checked == sum(-(n * (n - 1) // 2) % 6 for n in range(2, 32))


@pytest.mark.parametrize("order", ["descending", "ascending"])
def test_graph6_table_grows_in_either_order(monkeypatch, order):
    # a fresh table, grown first by the longest code or step by step
    monkeypatch.setattr(kcrit_graph, "_G6_TABLE", ())
    rng = Random(15)
    orders = sorted((rng.randint(0, 31) for _ in range(60)),
                    reverse=order == "descending")
    for n in orders:
        code = to_graph6(random_graph(rng, n, rng.random()))
        assert from_graph6(code) == oracles.from_graph6(code)
    longest = (max(orders) * (max(orders) - 1) // 2 + 5) // 6
    assert len(kcrit_graph._G6_TABLE) == longest


def test_graph6_table_is_not_built_at_import():
    script = ("import kcrit, kcrit.graph; "
              "assert kcrit.graph._G6_TABLE == (), len(kcrit.graph._G6_TABLE)")
    src = str(pathlib.Path(kcrit_graph.__file__).parents[1])
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": src})


# ===== edge-list text =====

def test_parse_edge_list_forms():
    assert parse_edge_list("5: 0 1, 1 2, 2 3, 3 4, 0 4") == C5
    assert parse_edge_list("3:") == from_edge_list(3, [])
    assert parse_edge_list("01 02 03 12 13 23") == K4
    assert parse_edge_list("{01, 02, 03, 12, 13, 23}") == K4
    assert parse_edge_list("4: 0 1 # a comment") == from_edge_list(4, [(0, 1)])
    assert parse_edge_list(" 3 :\t0  1 ,1 2 ") == P3


def test_parse_edge_list_errors():
    for bad in ["", "x: 0 1", "3: 0", "3: 0 1 2", "001 02", "ab cd"]:
        with pytest.raises(ValueError):
            parse_edge_list(bad)


@pytest.mark.parametrize("parse, line, message", [
    (parse_edge_list, "{}", "no edges in compact line"),
    (parse_edge_list, "", "blank graph line"),
    (parse_graph_line, "  # note", "blank graph line"),
    # numbers are ASCII decimal digits: no '_' separator, sign or other script
    (parse_edge_list, "1_0: 0 9", "bad order field '1_0'"),
    (parse_edge_list, "+3: 0 1", "bad order field '+3'"),
    (parse_edge_list, "\u0663: 0 1", "bad order field '\u0663'"),
    (parse_edge_list, "3: 0 -1", "bad edge '0 -1'"),
    (parse_edge_list, "3: 0 +1", "bad edge '0 +1'"),
    (parse_edge_list, "12: 1_0 2", "bad edge '1_0 2'"),
    (parse_edge_list, "4: 0 \u0663", "bad edge '0 \u0663'"),
    (parse_edge_list, "{0\u0663}", "bad two-digit pair '0\u0663'"),
    (parse_graph_line, "01 \u00b9\u00b2", "bad two-digit pair '\u00b9\u00b2'"),
], ids=["compact-empty", "edge-list-blank", "graph-line-comment", "order-underscore",
        "order-sign", "order-arabic-indic", "edge-negative", "edge-sign",
        "edge-underscore", "edge-arabic-indic", "compact-arabic-indic",
        "compact-superscript"])
def test_parse_errors_name_the_fault(parse, line, message):
    with pytest.raises(ValueError) as info:
        parse(line)
    assert str(info.value) == message


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


def test_read_graph_list(tmp_path):
    p = tmp_path / "list.g6"
    p.write_text("# a comment\nk=4 count=2  # header\n\nC~\n# skipped\nDhc # K1+C4\n")
    assert read_graph_list(p) == (4, [(4, "C~"), (6, "Dhc")])
    p.write_text("C~\n\nDhc\n")
    assert read_graph_list(p) == (None, [(1, "C~"), (3, "Dhc")])
    p.write_text("")
    assert read_graph_list(p) == (None, [])


@pytest.mark.parametrize("text, message", [
    ("k=4\nC~\n", ":1: bad header 'k=4'"),
    ("\nk=4 count=two\nC~\n", ":2: bad header"),
    ("k=4 count=1\n# C~\n", "header says 1 graphs, file has 0"),
    ("k=4 count=1\nC~\nC~\n", "header says 1 graphs, file has 2"),
])
def test_read_graph_list_errors(tmp_path, text, message):
    p = tmp_path / "list.g6"
    p.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_graph_list(p)


def test_write_graph_list_sorts_under_a_header(tmp_path):
    p = tmp_path / "list.g6"
    with open(p, "w") as fh:
        write_graph_list(fh, 5, ["Dhc", "C~", "B?"])
    assert p.read_text() == "k=5 count=3\nB?\nC~\nDhc\n"
    assert read_graph_list(p) == (5, [(2, "B?"), (3, "C~"), (4, "Dhc")])
    with open(p, "w") as fh:
        write_graph_list(fh, 3, [])
    assert p.read_text() == "k=3 count=0\n"


def test_read_shipped_databases():
    from kcrit.graph import read_graph_file
    from util import data_path
    counts = {k: len(read_graph_file(data_path(f"critical{k}.g6")))
              for k in (4, 5)}
    assert counts == {4: 8, 5: 178}
