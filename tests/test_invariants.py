"""Invariant computations against exhaustive oracles and known values."""

import random

import pytest
from hypothesis import given, settings

import oracles
import kcrit.invariants
from kcrit.critical import is_vertex_critical
from kcrit.generate import generate_graphs
from kcrit.graph import (Graph, bits, complement, from_edge_list,
                         from_graph6, induced_subgraph, read_graph_file, relabel)
from kcrit.invariants import (Coloring, _bb_coloring, _matching, alternating_forest, chi_raw,
                              chromatic_number, clique_number, independence_number,
                              is_k_colorable, is_proper_coloring, matching_raw,
                              triangle_free_raw)
from kcrit.patterns import ORDER4_NAMES, copaw_decompose, named_graph
from lemmas import coloring_with_min_class_size
from util import (data_path, delete_vertex, graphs, peak_traced, random_copaw_free,
                  random_graph, random_triangle_free, spy)


C5 = named_graph("C5")
C9BAR = complement(named_graph("C9"))


# ===== alpha and omega =====

def test_alpha_examples():
    assert independence_number(Graph(4, (0, 0, 0, 0))) == 4
    assert independence_number(C9BAR) == 2
    # frozen from the subset-scan oracle
    assert oracles.independence_number(named_graph("C7")) == 3
    assert independence_number(named_graph("C7")) == 3


def test_omega_examples():
    assert clique_number(named_graph("K5")) == 5
    assert clique_number(C5) == 2


def test_alpha_omega_against_oracle_all_n5():
    for g in oracles.all_labeled_graphs(5):
        assert independence_number(g) == oracles.independence_number(g)
        assert clique_number(g) == oracles.clique_number(g)


# ===== matching =====

def _matching_size(g, active=None):
    # mates is a matching on active: mutual pairs, each an edge of g
    # inside active, and -1 at every other entry; its size
    active = (1 << g.n) - 1 if active is None else active
    mates = matching_raw(g.n, g.adj, active)[0]
    assert len(mates) == g.n
    for v, m in enumerate(mates):
        if m != -1:
            assert mates[m] == v and g.adj[v] >> m & 1, (g, v)
            assert active >> v & 1 and active >> m & 1, (g, v)
    return sum(m > v for v, m in enumerate(mates))


def test_matching_examples():
    for g, nu in ((named_graph("K4"), 2), (C5, 2), (Graph(3, (0, 0, 0)), 0)):
        assert _matching_size(g) == nu == oracles.max_matching(g)
    assert _matching_size(named_graph("K4"), 0b0111) == 1


def test_matching_against_oracle_all_n5():
    for g in oracles.all_labeled_graphs(5):
        assert _matching_size(g) == oracles.max_matching(g)


def test_matching_against_oracle_random_n10():
    rng = random.Random(97)
    for _ in range(150):
        g = random_graph(rng, 10, p=rng.choice([0.2, 0.4, 0.6, 0.8]))
        assert _matching_size(g) == oracles.max_matching(g)


def test_matching_blossom_heavy():
    # odd components force blossom contraction
    from kcrit.graph import disjoint_union
    g = disjoint_union(C5, named_graph("C7"))
    assert _matching_size(g) == 2 + 3 == oracles.max_matching(g)
    assert _matching_size(named_graph("C9")) == 4 == oracles.max_matching(named_graph("C9"))


# ===== the Gallai-Edmonds set D =====

def _brute_d(g, active):
    # v is in D iff some maximum matching misses v iff nu(F - v) = nu(F)
    nu = oracles.matching_size(g.n, g.adj, active)
    return sum(1 << v for v in range(g.n)
               if active >> v & 1 and oracles.matching_size(g.n, g.adj, active ^ 1 << v) == nu)


def _d(g, active=None):
    active = (1 << g.n) - 1 if active is None else active
    return matching_raw(g.n, g.adj, active)[1]


def _with_pendant_paths(core, lengths):
    # hang a path of the given length off each listed core vertex
    edges, n = list(core.edges()), core.n
    for v, length in lengths:
        for _ in range(length):
            edges.append((v, n))
            v, n = n, n + 1
    return from_edge_list(n, edges)


def test_d_examples():
    assert _d(C5) == 0b11111                      # factor-critical
    assert _d(named_graph("C6")) == 0             # perfect matching: D empty
    assert _d(Graph(3, (0, 0, 0))) == 0b111
    star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    assert _d(star) == 0b1110                     # the centre is in A(F)
    # C5 with a two-edge path 0-5-6: the blossom and the path's end are
    # in D, the middle vertex 5 never goes exposed
    assert _d(_with_pendant_paths(C5, [(0, 2)])) == 0b1011111


def test_d_against_brute_force_blossoms():
    rng = random.Random(41)
    cases = [named_graph(f"C{m}") for m in (3, 5, 7, 9, 11, 13)]
    for core in (C5, named_graph("C7")):
        for _ in range(12):
            picks = rng.sample(range(core.n), rng.randint(1, 3))
            tails = [(v, rng.randint(1, 3)) for v in picks]
            g = _with_pendant_paths(core, tails)
            if g.n <= 13:
                cases.append(g)
    from kcrit.graph import disjoint_union
    cases.append(disjoint_union(C5, named_graph("C7")))
    cases.append(disjoint_union(named_graph("C3"), _with_pendant_paths(C5, [(2, 2)])))
    for g in cases:
        full = (1 << g.n) - 1
        assert _d(g) == _brute_d(g, full), g
        for _ in range(4):
            active = rng.getrandbits(g.n)
            assert _d(g, active) == _brute_d(g, active), (g, active)


def test_d_against_brute_force_random():
    rng = random.Random(43)
    for _ in range(400):
        n = rng.randint(0, 13)
        if rng.random() < 0.5:
            g = random_graph(rng, n, p=rng.choice([0.15, 0.3, 0.5, 0.8]))
        else:
            g = random_triangle_free(rng, n, p=rng.choice([0.3, 0.5]))
        full = (1 << n) - 1
        active = full if rng.random() < 0.5 else rng.getrandbits(n) if n else 0
        d = _d(g, active)
        assert d == _brute_d(g, active), (g, active)
        assert d & ~active == 0


def test_d_leaves_mates_alone_and_rejects_non_maximum():
    # the two-pass oracle: D from a second forest over a given matching
    g = named_graph("C7")
    mates = oracles.matching_mates_raw(7, g.adj, 0b1111111)
    before = list(mates)
    assert oracles.gallai_edmonds_d_raw(7, g.adj, 0b1111111, mates) == 0b1111111
    assert mates == before
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    for bad in ([-1, 2, 1, -1], [-1] * 4):
        with pytest.raises(ValueError, match="not maximum"):
            oracles.gallai_edmonds_d_raw(4, p4.adj, 0b1111, bad)


# ===== one blossom pass against the two-pass oracle =====

def _critical6_sample(seed, size):
    gs = [g for _, g in read_graph_file(data_path("critical6.g6"))]
    return random.Random(seed).sample(gs, size)


def _oracle_inputs():
    # (g, active): seeded random graphs with n <= 18 under the full mask
    # and a random one (rows then reach outside it), the complement of
    # every critical4/5 member, and the complements of a seeded critical6
    # sample, whole and after each single-vertex deletion
    rng = random.Random(47)
    for _ in range(500):
        n = rng.randint(0, 18)
        if rng.random() < 0.5:
            g = random_graph(rng, n, p=rng.choice([0.1, 0.2, 0.3, 0.5, 0.8]))
        else:
            g = random_triangle_free(rng, n, p=rng.choice([0.2, 0.4, 0.6]))
        yield g, (1 << n) - 1
        yield g, rng.getrandbits(n) if n else 0
    for k in (4, 5):
        for _, g in read_graph_file(data_path(f"critical{k}.g6")):
            yield complement(g), (1 << g.n) - 1
    for g in _critical6_sample(53, 40):
        full = (1 << g.n) - 1
        yield complement(g), full
        for v in range(g.n):
            yield complement(g), full ^ 1 << v


def test_one_pass_equals_the_two_pass_oracle():
    seen = 0
    for g, active in _oracle_inputs():
        mates, d = matching_raw(g.n, g.adj, active)
        old = oracles.matching_mates_raw(g.n, g.adj, active)
        assert mates == old, (g, active)
        assert d == oracles.gallai_edmonds_d_raw(g.n, g.adj, active, old), (g, active)
        assert d == _brute_d(g, active), (g, active)
        seen += 1
    assert seen > 1500


def test_mates_only_pass_equals_matching_raw():
    # the seeded inputs, then the complement rows and factor masks of
    # seeded joins, as the structural coloring passes them
    rng = random.Random(55)
    inputs = list(_oracle_inputs())
    for _ in range(300):
        dec = copaw_decompose(random_copaw_free(rng, 12))
        inputs += [(Graph._unchecked(len(dec.co), dec.co), f) for f in dec.factors]
    isolated = odd = 0
    for g, active in inputs:
        mates = _matching(g.n, g.adj, active, False)[0]
        assert mates == matching_raw(g.n, g.adj, active)[0], (g, active)
        isolated += any(not g.adj[v] & active for v in bits(active))
        odd += active.bit_count() % 2
    assert isolated > 300 and odd > 500


def test_d_of_every_criticality_pass_equals_the_forest_oracle(monkeypatch):
    # every blossom pass the critical5 members' criticality tests make,
    # peel included, still gives the D of one forest from the exposed vertices
    calls = spy(monkeypatch, matching_raw)
    for _, g in read_graph_file(data_path("critical5.g6")):
        assert is_vertex_critical(g, 5).is_critical
    assert len(calls) > 100
    for n, adj, active in calls:
        mates, d = matching_raw(n, adj, active)
        assert d == oracles.gallai_edmonds_d_raw(n, adj, active, mates), (adj, active)


def _count_forests(monkeypatch):
    # counts every alternating-forest search and the failed ones, which
    # return the even vertices instead of None
    real = kcrit.invariants.alternating_forest
    calls = {"all": 0, "failed": 0}

    def counted(*args):
        even = real(*args)
        calls["all"] += 1
        calls["failed"] += even is not None
        return even

    monkeypatch.setattr(kcrit.invariants, "alternating_forest", counted)
    return calls


def test_one_failed_search_per_exposed_vertex(monkeypatch):
    # D comes from the failed searches themselves: no second forest; an
    # exposed vertex with no neighbour in the mask is its own tree, unsearched
    calls = _count_forests(monkeypatch)
    for g, active in _oracle_inputs():
        calls["failed"] = 0
        mates, _ = matching_raw(g.n, g.adj, active)
        exposed = [v for v in bits(active) if mates[v] == -1]
        assert calls["failed"] == sum(1 for v in exposed if g.adj[v] & active), (g, active)


def test_criticality_test_fails_one_search_per_component(monkeypatch):
    # a 6-critical P3+P1-free G of order n: its complement has 12 - n
    # factor-critical components, each leaving one vertex exposed, so the
    # order-11 members (nearly all) take exactly one failed search
    calls = _count_forests(monkeypatch)
    rng = random.Random(59)
    orders = set()
    for g in _critical6_sample(61, 150):
        g = relabel(g, rng.sample(range(g.n), g.n))
        calls["failed"] = 0
        assert is_vertex_critical(g, 6).is_critical
        assert calls["failed"] == 12 - g.n, g
        orders.add(g.n)
    assert 11 in orders


def test_perfect_pairs_grow_no_forest(monkeypatch):
    # a root with an exposed neighbour is matched to it without a search
    calls = _count_forests(monkeypatch)
    for n in (0, 2, 8, 30):
        g = from_edge_list(n, [(v, v + 1) for v in range(0, n, 2)])
        mates, d = matching_raw(n, g.adj, (1 << n) - 1)
        assert mates == [v ^ 1 for v in range(n)] and d == 0
    assert calls["all"] == 0


def _perfectly_matchable_inputs():
    # seeded graphs, most with a perfect matching: the complements of
    # critical6 members less one vertex (a piece-run parent is such a
    # graph), random graphs of orders 2..14, and odd cycles laid over a
    # perfect matching, so that blossoms form around the search's root
    rng = random.Random(71)
    for g in _critical6_sample(73, 80):
        for v in range(g.n):
            yield delete_vertex(complement(g), v)
    for _ in range(1500):
        n = rng.randint(2, 14)
        yield random_graph(rng, n, p=rng.choice([0.15, 0.3, 0.5, 0.8]))
    for _ in range(600):
        n = rng.randrange(4, 15, 2)
        edges = {(v, v + 1) for v in range(0, n, 2)}
        for _ in range(rng.randint(1, 3)):
            c = rng.sample(range(n), rng.choice([c for c in (3, 5, 7) if c <= n]))
            edges |= {tuple(sorted(e)) for e in zip(c, c[1:] + c[:1])}
        yield relabel(from_edge_list(n, sorted(edges)), rng.sample(range(n), n))


def test_search_from_a_mate_equals_a_fresh_pass(monkeypatch):
    # with a perfect matching M of G, M less the edge at s is maximum on
    # G - s and leaves M(s) alone exposed: one search from M(s) gives
    # D(G - s) without augmenting, and leaves M as it was
    paths, graphs, grown = spy(monkeypatch, kcrit.invariants._mark_path), 0, 0
    for g in _perfectly_matchable_inputs():
        full = (1 << g.n) - 1
        mates = matching_raw(g.n, g.adj, full)[0]
        if -1 in mates:
            continue
        graphs += 1
        before = list(mates)
        for s in range(g.n):
            paths.clear()
            d = alternating_forest(g.n, g.adj, full ^ 1 << s, mates, mates[s])
            grown += bool(paths)
            assert d == matching_raw(g.n, g.adj, full ^ 1 << s)[1], (g, s)
            assert mates == before, (g, s)
    assert graphs > 1500 and grown > 5000


def test_triangle_free_raw():
    assert triangle_free_raw(C5.adj, 0b11111) and triangle_free_raw((), 0)
    assert not triangle_free_raw(named_graph("C3").adj, 0b111)
    for g in oracles.all_labeled_graphs(5):
        assert triangle_free_raw(g.adj, 0b11111) == (oracles.clique_number(g) <= 2)


# ===== chromatic number =====

def test_chi_odd_cycles():
    for m in range(1, 6):
        assert chromatic_number(named_graph(f"C{2 * m + 1}")) == 3


def test_chi_c9bar():
    assert chromatic_number(C9BAR) == 5


def test_chi_small_cases():
    assert chromatic_number(Graph(0, ())) == 0
    assert chromatic_number(Graph(4, (0, 0, 0, 0))) == 1
    assert chromatic_number(named_graph("K6")) == 6


def test_chi_against_oracle_all_n5():
    for g in oracles.all_labeled_graphs(5):
        assert chromatic_number(g) == oracles.chromatic_number(g)


def test_chi_against_oracle_random():
    rng = random.Random(13)
    for _ in range(120):
        g = random_graph(rng, rng.randint(6, 8), p=rng.choice([0.3, 0.5, 0.7]))
        assert chromatic_number(g) == oracles.chromatic_number(g)


def test_fast_path_matches_matching_identity():
    # graphs with alpha <= 2: chi = n - nu(complement)
    rng = random.Random(29)
    hits = 0
    while hits < 60:
        g = complement(random_graph(rng, rng.randint(4, 9), p=0.35))
        while oracles.independence_number(g) > 2:
            # break an independent triple in g by adding an edge
            co = complement(g)
            tri = next((i, j) for i in range(g.n) for j in range(i + 1, g.n)
                       if co.adj[i] >> j & 1
                       and co.adj[i] & co.adj[j] & ~(1 << i) & ~(1 << j))
            adj = list(g.adj)
            adj[tri[0]] |= 1 << tri[1]
            adj[tri[1]] |= 1 << tri[0]
            g = Graph(g.n, tuple(adj))
        assert chromatic_number(g) == oracles.chromatic_number(g)
        nu = oracles.matching_size(g.n, complement(g).adj, (1 << g.n) - 1)
        assert chromatic_number(g) == g.n - nu
        hits += 1


def test_chi_raw_returns_d_exactly_when_alpha_is_at_most_two():
    # verify_list reads D is not None as P3+P1-freeness
    rng = random.Random(31)
    sample = [named_graph(name) for name in ORDER4_NAMES]
    sample += [random_graph(rng, rng.randint(0, 9), p=rng.choice([0.3, 0.5, 0.7, 0.9]))
               for _ in range(300)]
    small = 0
    for g in sample:
        co, full = complement(g).adj, (1 << g.n) - 1
        d = chi_raw(g.n, g.adj, co, full)[1]
        assert (d is not None) == triangle_free_raw(co, full), g
        if d is not None:
            small += 1
            assert copaw_decompose(g) is not None, g
    assert 50 < small < len(sample) - 50


# ===== colorability witnesses =====

def test_is_k_colorable_examples():
    assert is_k_colorable(C5, 2) is None
    col = is_k_colorable(C5, 3)
    assert col is not None and is_proper_coloring(C5, col) and col.k <= 3


_MALFORMED = [
    Coloring((0, None), 2), Coloring((0, 1.0), 2), Coloring((0, True), 2),
    Coloring((0, 1), "2"), Coloring((0, 1), True), Coloring((0, 1), None),
    Coloring([0, 1], 2), Coloring(None, 2), Coloring((0,), 2), Coloring((0, 2), 2),
    ((0, 1), 2),
]
_MALFORMED_IDS = ["color-none", "color-float", "color-bool", "k-str", "k-bool", "k-none",
                  "colors-list", "colors-none", "colors-short", "color-not-below-k",
                  "coloring-tuple"]


@pytest.mark.parametrize("coloring", _MALFORMED, ids=_MALFORMED_IDS)
def test_is_proper_coloring_is_false_on_a_malformed_coloring(coloring):
    edge = from_edge_list(2, [(0, 1)])
    assert is_proper_coloring(edge, Coloring((0, 1), 2))
    assert not is_proper_coloring(edge, coloring)


@pytest.mark.parametrize("g, coloring", [(from_edge_list(2, [(0, 1)]), c) for c in _MALFORMED]
                         + [(Graph(0, ()), Coloring((), -1)), (Graph(0, ()), Coloring((), 0))],
                         ids=_MALFORMED_IDS + ["k-negative-n-0", "k-0-n-0"])
def test_one_pass_coloring_check_equals_the_one_in_passes(g, coloring):
    assert is_proper_coloring(g, coloring) == oracles.is_proper_coloring_in_passes(g, coloring)


def _colorings(rng, g):
    # a proper coloring, then improper and malformed variants of it
    col = is_k_colorable(g, g.n)
    yield col
    colors = list(col.colors)
    if g.n:
        v = rng.randrange(g.n)
        for c in (rng.randrange(col.k), col.k, -1, None, True, 1.0):
            yield Coloring(tuple(colors[:v] + [c] + colors[v + 1:]), col.k)
    yield Coloring(tuple(colors), col.k + 1)       # a class left empty
    yield Coloring(tuple(colors[1:]), col.k)       # too short
    yield Coloring(colors, col.k)                  # a list, not a tuple
    yield Coloring(tuple(colors), True)
    yield Coloring(tuple(rng.randrange(3) for _ in range(g.n)), 3)


def test_is_proper_coloring_equals_the_edge_walk():
    rng = random.Random(22)
    seen = set()
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 16), rng.random())
        for col in _colorings(rng, g):
            got = is_proper_coloring(g, col)
            assert got == oracles.is_proper_coloring(g, col), (g, col)
            assert got == oracles.is_proper_coloring_in_passes(g, col), (g, col)
            seen.add(got)
    assert seen == {True, False}


def test_is_proper_coloring_cost_does_not_grow_with_k():
    # every class must be used, which a claimed k of 10**12 cannot be
    edge = from_edge_list(2, [(0, 1)])
    with peak_traced() as peak:
        assert not is_proper_coloring(edge, Coloring((0, 1), 10**12))
        assert not is_proper_coloring(Graph(0, ()), Coloring((), 10**12))
    assert peak[0] < 100_000
    assert is_proper_coloring(Graph(0, ()), Coloring((), 0))


def test_is_k_colorable_with_a_huge_k_is_the_search_at_k_equal_n():
    rng = random.Random(1701)
    gs = [random_graph(rng, n, rng.choice((0.3, 0.5, 0.8)))
          for n in range(9) for _ in range(6)]
    with peak_traced() as peak:
        huge = [is_k_colorable(g, 10**9) for g in gs]
    assert peak[0] < 100_000
    assert huge == [is_k_colorable(g, g.n) for g in gs]


def test_is_k_colorable_zero():
    assert is_k_colorable(Graph(0, ()), 0) == Coloring((), 0)
    assert is_k_colorable(Graph(1, (0,)), 0) is None


# Graphs whose first complete coloring in the coloring search (the
# DSATUR descent from the greedy clique) uses more than chi colors, so
# chi comes from the search at bound chi + 1, which backtracks past
# that first leaf: the one such class of order 7 with alpha > 2 and the
# 20 of order 8, labelled as generate_graphs emits them.
PAST_FIRST_LEAF = (
    "F}_gw", "G{dPX_", "G{S}?k", "G{S{`S", "G}_gw?", "G}_g{?", "G}_gy?",
    "G}_g}?", "G}_gz?", "G}_gwO", "G}_g{O", "G}_gyO", "G}GWWW", "G}gqG[",
    "G}goW[", "G}MCG[", "G}M?W[", "G}Kg[K", "G}l@Gk", "G}kqG[", "G~zCk[",
)


@pytest.mark.parametrize("code", PAST_FIRST_LEAF)
def test_coloring_search_past_its_first_leaf(code):
    g = from_graph6(code)
    chi = oracles.chromatic_number(g)
    first = _bb_coloring(g.n, g.adj, (1 << g.n) - 1, g.n + 1)
    assert max(first) + 1 > chi
    assert chromatic_number(g) == chi
    assert is_k_colorable(g, chi - 1) is None
    col = is_k_colorable(g, chi)
    assert col is not None and col.k == chi and is_proper_coloring(g, col)


def _coloring_inputs():
    # every class of order <= 7, then seeded graphs of order <= 16 over a
    # spread of densities
    for n in range(1, 8):
        yield from generate_graphs(n)
    rng = random.Random(2027)
    for _ in range(300):
        yield random_graph(rng, rng.randint(0, 16), p=rng.choice([0.2, 0.4, 0.6, 0.8]))


def test_coloring_search_equals_the_counter_table_search():
    # the same first hit, or None, under every bound from 2 to 6 as the
    # search that kept a neighbour count per vertex and color, and the
    # chi of that search's optimum mode
    graphs = 0
    for g in _coloring_inputs():
        graphs += 1
        for bound in range(2, 7):
            assert _bb_coloring(g.n, g.adj, (1 << g.n) - 1, bound) == \
                oracles.bb_coloring(g.n, g.adj, bound, True), (g, bound)
        assert chromatic_number(g) == \
            max(oracles.bb_coloring(g.n, g.adj, g.n + 1, False), default=-1) + 1, g
    assert graphs == 1 + 2 + 4 + 11 + 34 + 156 + 1044 + 300


def test_coloring_search_on_a_mask_equals_the_search_on_the_subgraph():
    # the same verdict under every bound from 2 to 6, and the same
    # coloring vertex by vertex after relabelling, -1 off the mask
    rng = random.Random(2029)
    found = refused = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 14), p=rng.choice([0.2, 0.4, 0.6, 0.8]))
        mask = rng.getrandbits(g.n)
        sub = induced_subgraph(g, mask)
        for bound in range(2, 7):
            got = _bb_coloring(g.n, g.adj, mask, bound)
            want = _bb_coloring(sub.n, sub.adj, (1 << sub.n) - 1, bound)
            if want is None:
                assert got is None, (g, mask, bound)
                refused += 1
                continue
            expected = [-1] * g.n
            for v, c in zip(bits(mask), want):
                expected[v] = c
            assert got == expected, (g, mask, bound)
            found += 1
    assert found > 1000 and refused > 250


@settings(max_examples=80)
@given(graphs(max_n=7))
def test_is_k_colorable_agrees_with_chi(g):
    chi = chromatic_number(g)
    for k in (max(chi - 1, 0), chi, chi + 1):
        col = is_k_colorable(g, k)
        if k < chi:
            assert col is None
        else:
            assert col is not None
            assert col.k <= k and is_proper_coloring(g, col)


def test_min_class_size_examples():
    assert coloring_with_min_class_size(named_graph("K4"), 4, 2) is None
    col = coloring_with_min_class_size(named_graph("C6"), 2, 3)
    assert col is not None and is_proper_coloring(named_graph("C6"), col)
    assert col.colors.count(0) == col.colors.count(1) == 3
    for v in range(9):
        got = coloring_with_min_class_size(delete_vertex(C9BAR, v), 4, 2)
        assert got is not None
        assert all(got.colors.count(c) >= 2 for c in range(4))
        assert is_proper_coloring(delete_vertex(C9BAR, v), got)


def test_min_class_size_rejects_bad_args():
    with pytest.raises(ValueError):
        coloring_with_min_class_size(C5, 0, 1)
    with pytest.raises(ValueError):
        coloring_with_min_class_size(C5, 1, 0)


def test_min_class_size_exhaustiveness_small():
    # cross-check presence against a direct scan of all assignments
    from itertools import product
    rng = random.Random(41)
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 6), p=0.4)
        k, m = rng.choice([(2, 1), (2, 2), (3, 1), (3, 2)])
        direct = None
        for assign in product(range(k), repeat=g.n):
            if any(assign[i] == assign[j] for i, j in g.edges()):
                continue
            sizes = [assign.count(c) for c in range(k)]
            if all(s >= m for s in sizes):
                direct = assign
                break
        got = coloring_with_min_class_size(g, k, m)
        assert (got is None) == (direct is None)


# ===== structural properties =====

@settings(max_examples=80)
@given(graphs(min_n=1, max_n=7))
def test_chi_deletion_monotone(g):
    chi = chromatic_number(g)
    for v in range(g.n):
        sub = chromatic_number(delete_vertex(g, v))
        assert chi - 1 <= sub <= chi


@settings(max_examples=100)
@given(graphs(min_n=1, max_n=8))
def test_chi_bounds(g):
    chi = chromatic_number(g)
    alpha = independence_number(g)
    assert -(-g.n // alpha) <= chi <= g.n
    assert clique_number(g) <= chi
