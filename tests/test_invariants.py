"""Invariant computations against exhaustive oracles and known values."""

import random

import pytest
from hypothesis import given, settings

import oracles
from kcrit.graph import Graph, complement, delete_vertex, from_edge_list, from_graph6
from kcrit.invariants import (Coloring, _bb_coloring, chromatic_number, clique_number,
                              gallai_edmonds_d_raw, independence_number,
                              is_k_colorable, is_proper_coloring,
                              matching_mates_raw, matching_raw,
                              triangle_free_raw)
from lemmas import coloring_with_min_class_size
from util import graphs, random_graph, random_triangle_free


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


C5 = cycle(5)
C9BAR = complement(cycle(9))


# ===== alpha and omega =====

def test_alpha_examples():
    assert independence_number(Graph(4, (0, 0, 0, 0))) == 4
    assert independence_number(C9BAR) == 2
    # frozen from the subset-scan oracle
    assert oracles.independence_number(cycle(7)) == 3
    assert independence_number(cycle(7)) == 3


def test_omega_examples():
    assert clique_number(complete(5)) == 5
    assert clique_number(C5) == 2


def test_alpha_omega_against_oracle_all_n5():
    for g in oracles.all_labeled_graphs(5):
        assert independence_number(g) == oracles.independence_number(g)
        assert clique_number(g) == oracles.clique_number(g)


# ===== matching =====

def test_matching_examples():
    assert matching_raw(4, complete(4).adj, 0b1111) == 2
    assert matching_raw(5, C5.adj, 0b11111) == 2
    assert matching_raw(3, (0, 0, 0), 0b111) == 0


def test_matching_against_oracle_all_n5():
    for g in oracles.all_labeled_graphs(5):
        assert matching_raw(g.n, g.adj, (1 << g.n) - 1) == oracles.max_matching(g)


def test_matching_against_oracle_random_n10():
    rng = random.Random(97)
    for _ in range(150):
        g = random_graph(rng, 10, p=rng.choice([0.2, 0.4, 0.6, 0.8]))
        assert matching_raw(g.n, g.adj, (1 << g.n) - 1) == oracles.max_matching(g)


def test_matching_blossom_heavy():
    # odd components force blossom contraction
    from kcrit.graph import disjoint_union
    g = disjoint_union(cycle(5), cycle(7))
    assert matching_raw(g.n, g.adj, (1 << g.n) - 1) == 2 + 3
    assert matching_raw(9, cycle(9).adj, (1 << 9) - 1) == 4


# ===== the Gallai-Edmonds set D =====

def _brute_d(g, active):
    # v is in D iff some maximum matching misses v iff nu(F - v) = nu(F)
    nu = matching_raw(g.n, g.adj, active)
    return sum(1 << v for v in range(g.n)
               if active >> v & 1 and matching_raw(g.n, g.adj, active ^ 1 << v) == nu)


def _d(g, active=None):
    active = (1 << g.n) - 1 if active is None else active
    return gallai_edmonds_d_raw(g.n, g.adj, active,
                                matching_mates_raw(g.n, g.adj, active))


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
    assert _d(cycle(6)) == 0                      # perfect matching: D empty
    assert _d(Graph(3, (0, 0, 0))) == 0b111
    star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    assert _d(star) == 0b1110                     # the centre is in A(F)
    # C5 with a two-edge path 0-5-6: the blossom and the path's end are
    # in D, the middle vertex 5 never goes exposed
    assert _d(_with_pendant_paths(C5, [(0, 2)])) == 0b1011111


def test_d_against_brute_force_blossoms():
    rng = random.Random(41)
    cases = [cycle(m) for m in (3, 5, 7, 9, 11, 13)]
    for core in (cycle(5), cycle(7)):
        for _ in range(12):
            picks = rng.sample(range(core.n), rng.randint(1, 3))
            tails = [(v, rng.randint(1, 3)) for v in picks]
            g = _with_pendant_paths(core, tails)
            if g.n <= 13:
                cases.append(g)
    from kcrit.graph import disjoint_union
    cases.append(disjoint_union(cycle(5), cycle(7)))
    cases.append(disjoint_union(cycle(3), _with_pendant_paths(cycle(5), [(2, 2)])))
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
    g = cycle(7)
    mates = matching_mates_raw(7, g.adj, 0b1111111)
    before = list(mates)
    gallai_edmonds_d_raw(7, g.adj, 0b1111111, mates)
    assert mates == before
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    for bad in ([-1, 2, 1, -1], [-1] * 4):
        with pytest.raises(ValueError, match="not maximum"):
            gallai_edmonds_d_raw(4, p4.adj, 0b1111, bad)


def test_triangle_free_raw():
    assert triangle_free_raw(C5.adj, 0b11111) and triangle_free_raw((), 0)
    assert not triangle_free_raw(cycle(3).adj, 0b111)
    for g in oracles.all_labeled_graphs(5):
        assert triangle_free_raw(g.adj, 0b11111) == (oracles.clique_number(g) <= 2)


# ===== chromatic number =====

def test_chi_odd_cycles():
    for m in range(1, 6):
        assert chromatic_number(cycle(2 * m + 1)) == 3


def test_chi_c9bar():
    assert chromatic_number(C9BAR) == 5


def test_chi_small_cases():
    assert chromatic_number(Graph(0, ())) == 0
    assert chromatic_number(Graph(4, (0, 0, 0, 0))) == 1
    assert chromatic_number(complete(6)) == 6


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
        nu = matching_raw(g.n, complement(g).adj, (1 << g.n) - 1)
        assert chromatic_number(g) == g.n - nu
        hits += 1


# ===== colorability witnesses =====

def test_is_k_colorable_examples():
    assert is_k_colorable(C5, 2) is None
    col = is_k_colorable(C5, 3)
    assert col is not None and is_proper_coloring(C5, col) and col.k <= 3


def test_is_k_colorable_zero():
    assert is_k_colorable(Graph(0, ()), 0) == Coloring((), 0)
    assert is_k_colorable(Graph(1, (0,)), 0) is None


# Graphs whose first complete coloring in the branch and bound (the
# DSATUR descent from the greedy clique) uses more than chi colors, so
# only the search's improvement step finds chi: the one such class of
# order 7 with alpha > 2 and the 20 of order 8, labelled as
# generate_graphs emits them.
PAST_FIRST_LEAF = (
    "F}_gw", "G{dPX_", "G{S}?k", "G{S{`S", "G}_gw?", "G}_g{?", "G}_gy?",
    "G}_g}?", "G}_gz?", "G}_gwO", "G}_g{O", "G}_gyO", "G}GWWW", "G}gqG[",
    "G}goW[", "G}MCG[", "G}M?W[", "G}Kg[K", "G}l@Gk", "G}kqG[", "G~zCk[",
)


@pytest.mark.parametrize("code", PAST_FIRST_LEAF)
def test_coloring_search_past_its_first_leaf(code):
    g = from_graph6(code)
    chi = oracles.chromatic_number(g)
    first = _bb_coloring(g.n, g.adj, g.n + 1, first_hit=True)
    assert max(first) + 1 > chi
    assert chromatic_number(g) == chi
    assert is_k_colorable(g, chi - 1) is None
    col = is_k_colorable(g, chi)
    assert col is not None and col.k == chi and is_proper_coloring(g, col)


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
    assert coloring_with_min_class_size(complete(4), 4, 2) is None
    col = coloring_with_min_class_size(cycle(6), 2, 3)
    assert col is not None and is_proper_coloring(cycle(6), col)
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
