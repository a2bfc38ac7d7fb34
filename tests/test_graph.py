"""Graph representation, transformations, and serialization."""

import os
import pathlib
import subprocess
import sys
import types
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kcrit.graph as kcrit_graph
import oracles
from kcrit.graph import (Graph, bits, complement, disjoint_union,
                         format_edge_list, from_edge_list, from_graph6,
                         induced_subgraph, join, mask_of, parse_edge_list,
                         parse_graph_line, read_graph_list, relabel, to_graph6,
                         write_graph_list)
from kcrit.patterns import named_graph
from util import data_path, graphs, peak_traced, random_graph

K4 = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
C5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
P3 = from_edge_list(3, [(0, 1), (1, 2)])


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


@given(graphs(max_n=10), st.randoms(use_true_random=False))
def test_from_edge_list_builds_rows_graph_accepts(g, rng):
    # any order and orientation of the edges gives rows that pass Graph's checks
    edges = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in g.edges()]
    rng.shuffle(edges)
    h = from_edge_list(g.n, edges)
    assert Graph(h.n, h.adj) == h == g


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
    (lambda: Graph(2, (0,)), "adjacency tuple length differs from order"),
    (lambda: Graph(2, (0b10,) * 2), "self-loop at vertex 1"),
    (lambda: Graph(2, (0b10, 0b00)), "asymmetric adjacency between 0 and 1"),
    (lambda: Graph(1, (0b10,)), "vertex 0 has a neighbor bit at or above n=1"),
    (lambda: from_edge_list(3, [(0, 3)]), r"edge \(0,3\) out of range for n=3"),
    (lambda: from_edge_list(3, [(1, 1)]), "self-loop at vertex 1"),
    (lambda: from_edge_list(3, [(0, 1), (1, 0)]), r"duplicate edge \(0,1\)"),
    (lambda: from_edge_list(2, [(True, False)]),
     r"edge \(True,False\) has a vertex that is not an int"),
    (lambda: from_edge_list(3, [(0, 1.0)]), r"edge \(0,1\.0\) has a vertex that is not an int"),
], ids=["adj-none", "adj-int", "edge-int", "edge-triple", "edge-single", "adj-short",
        "adj-loop", "adj-asymmetric", "adj-bit-above-n", "edge-out-of-range", "edge-loop",
        "edge-duplicate", "edge-bool-vertex", "edge-float-vertex"])
def test_malformed_arguments_raise_value_error_naming_them(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_graph_stores_adjacency_as_a_tuple():
    g = Graph(2, [2, 1])
    assert g.adj == (2, 1) and g == Graph(2, (2, 1))
    assert hash(g) == hash(Graph(2, (2, 1)))
    assert join(g, g) == K4


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


def _one_defect(rng, n, adj, kind):
    # the rows of a valid graph with one defect of the given kind
    adj = list(adj)
    v = rng.randrange(n)
    if kind == "not-int":
        adj[v] = rng.choice((float(adj[v]), str(adj[v]), None, bool(adj[v] & 1)))
    elif kind == "bit-at-n":
        adj[v] |= 1 << rng.randint(n, 40)
    elif kind == "self-loop":
        adj[v] |= 1 << v
    else:
        u = rng.choice([u for u in range(n) if u != v])
        adj[v] ^= 1 << u                # one pair, one way
    return tuple(adj)


@pytest.mark.parametrize("kind", ["not-int", "bit-at-n", "self-loop", "asymmetric"])
def test_graph_message_equals_the_row_scan(kind):
    rng = Random(55)
    for _ in range(300):
        n = rng.randint(2, 31)
        adj = random_graph(rng, n, rng.random()).adj
        assert oracles.graph_row_scan(n, adj) is None and Graph(n, adj).adj == adj
        bad = _one_defect(rng, n, adj, kind)
        with pytest.raises(ValueError) as exc:
            Graph(n, bad)
        assert str(exc.value) == oracles.graph_row_scan(n, bad)


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
    assert induced_subgraph(named_graph("K5"), {0, 2, 3, 4}) == K4


@pytest.mark.parametrize("s, vertex", [
    (-1, 5),                    # a negative mask holds every vertex from n up
    (0b1100001, 5),
    (1 << 9, 9),
    ([0, 7], 7),
    ({1, -2}, -2),
])
def test_induced_rejects_vertices_out_of_range(s, vertex):
    # mask_of, which reads a vertex list, names a negative vertex itself
    message = (f"vertex {vertex} out of range for n=5" if vertex >= 0
               else f"vertex must be an int in 0..30, got {vertex}")
    with pytest.raises(ValueError) as info:
        induced_subgraph(C5, s)
    assert str(info.value) == message


@given(graphs(max_n=9), st.integers(0, (1 << 9) - 1))
def test_induced_subgraph_is_valid(g, s):
    # built without the constructor's checks; they must pass anyway
    h = induced_subgraph(g, s & ((1 << g.n) - 1))
    assert Graph(h.n, h.adj) == h
    assert induced_subgraph(g, list(bits(s & ((1 << g.n) - 1)))) == h


def test_join_and_union():
    assert join(named_graph("K1"), named_graph("K1")) == named_graph("K2")
    p2_2p1 = disjoint_union(from_edge_list(2, [(0, 1)]), Graph(2, (0, 0)))
    assert p2_2p1.n == 4 and len(p2_2p1.edges()) == 1
    w = join(C5, named_graph("K1"))
    assert w.n == 6 and w.adj[5].bit_count() == 5 and len(w.edges()) == 10


def test_join_order_overflow():
    with pytest.raises(ValueError):
        join(named_graph("K20"), named_graph("K20"))


@pytest.mark.parametrize("call, message", [
    (lambda: relabel(P3, [True, False, 2]), "not a permutation"),
    (lambda: relabel(P3, [1, 0, 2.0]), "not a permutation"),
    (lambda: induced_subgraph(P3, [False, 2]), "vertex must be an int in 0..30, got False"),
    (lambda: induced_subgraph(P3, [1.0, 2]), "vertex must be an int in 0..30, got 1.0"),
    (lambda: induced_subgraph(P3, True), "vertex mask must be an int, got True"),
    (lambda: induced_subgraph(P3, 1.0), "vertex mask must be an int, got 1.0"),
    (lambda: induced_subgraph(P3, None), "vertex mask must be an int, got None"),
], ids=["relabel-bool", "relabel-float", "induced-iterable-bool", "induced-iterable-float",
        "induced-mask-bool", "induced-mask-float", "induced-mask-none"])
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
                                      [0, -3], [31], [10**7]])
def test_mask_of_rejects_non_int_vertices(vertices):
    # induced_subgraph reads a vertex list through mask_of: the same
    # message, and no mask as wide as the vertex is built
    message = f"vertex must be an int in 0..30, got {vertices[-1]!r}"
    for read in (mask_of, lambda s: induced_subgraph(C5, s)):
        with peak_traced() as peak, pytest.raises(ValueError) as info:
            read(vertices)
        assert str(info.value) == message and peak[0] < 100_000


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
    # every order up to the cap: every pad length, multi-byte bodies
    rng = Random(6)
    for n in range(0, 32):
        for _ in range(3):
            g = random_graph(rng, n, rng.random())
            assert to_graph6(g) == oracles.graph6_encode(g), n


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


def test_graph6_follows_the_row_slot_when_the_cap_moves():
    # graph.py with the cap at 63: rows sit 64 bits apart in the decoder
    # and in the symmetry check alike
    path = pathlib.Path(kcrit_graph.__file__)
    source = path.read_text(encoding="utf-8")
    assert source.count("\nMAX_VERTICES = 31\n") == 1
    module = types.ModuleType("kcrit_graph_cap63")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module      # dataclass looks itself up here
    try:
        exec(compile(source.replace("\nMAX_VERTICES = 31\n", "\nMAX_VERTICES = 63\n"),
                     str(path), "exec"), module.__dict__)
        assert module._SLOT == 64
        rng = Random(25)
        for n in range(63):
            adj = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            g = module.Graph(n, tuple(adj))
            assert module.from_graph6(module.to_graph6(g)) == g, n
        # two one-way pairs, the first in row-then-column order across bit 32
        adj[30] |= 1 << 61
        adj[61] = adj[61] & ~(1 << 30) | 1 << 60
        adj[60] &= ~(1 << 61)
        with pytest.raises(ValueError, match="^asymmetric adjacency between 30 and 61$"):
            module.Graph(62, tuple(adj))
    finally:
        del sys.modules[module.__name__]


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
def test_graph6_table_grows_in_either_order(order):
    # a fresh memo, filled first by the longest code or step by step
    kcrit_graph._g6_entries.cache_clear()
    rng = Random(15)
    orders = sorted((rng.randint(0, 31) for _ in range(60)),
                    reverse=order == "descending")
    for n in orders:
        code = to_graph6(random_graph(rng, n, rng.random()))
        assert from_graph6(code) == oracles.from_graph6(code)
    longest = (max(orders) * (max(orders) - 1) // 2 + 5) // 6
    assert kcrit_graph._g6_entries.cache_info().currsize == longest


def test_graph6_table_is_not_built_at_import():
    script = ("import kcrit, kcrit.graph; "
              "size = kcrit.graph._g6_entries.cache_info().currsize; "
              "assert size == 0, size")
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
    assert parse_graph_line("01,02,12") == named_graph("K3")
    assert parse_graph_line("{01,02,12}") == named_graph("K3")


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
    ("k=\u0664 count=1\nC~\n", ":1: bad header"),
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
