"""Tests for vertex-criticality reports, peeling, and join behavior."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings

import oracles
from oracles import is_isomorphic
from lemmas import check_min_class_colorings, verify_join_criticality

import kcrit.critical
from kcrit.critical import CriticalityReport, find_critical_subgraph, is_vertex_critical
from kcrit.families import co_odd_cycle, odd_cycle
from kcrit.generate import generate_graphs
from kcrit.graph import (
    Graph,
    bits,
    complement,
    disjoint_union,
    from_edge_list,
    induced_subgraph,
    join,
    read_graph_file,
    relabel,
)
from kcrit.invariants import (_alpha_raw, chi_raw, chromatic_number, matching_raw,
                              triangle_free_raw)
from kcrit.patterns import _components, copaw_decompose, named_graph

from util import (data_path, delete_vertex, graphs, random_copaw_free, random_graph,
                  random_triangle_free, spy)


# ===== is_vertex_critical =====

def test_known_critical_graphs():
    assert is_vertex_critical(named_graph("K5"), 5) == CriticalityReport(5, True, None)
    assert is_vertex_critical(named_graph("C7"), 3) == CriticalityReport(3, True, None)
    assert is_vertex_critical(named_graph("K1"), 1) == CriticalityReport(1, True, None)


@pytest.mark.parametrize("name, k", [("C5", 3), ("C7", 3), ("K4", 4), ("C6", 3)])
def test_alpha_computed_once(monkeypatch, name, k):
    # alpha is not computed at all: alpha <= 2 is read off a triangle test
    # on the complement, by the criticality test, the peel and the join
    # decomposition; alpha(C7) = 3 takes the branch-and-bound path, the
    # rest alpha <= 2.  Every binding of independence_number ends in
    # _alpha_raw, so counting that counts them all.
    g = named_graph(name)
    chi = chromatic_number(g)
    calls = spy(monkeypatch, _alpha_raw)
    assert is_vertex_critical(g, k).k == chi
    assert is_vertex_critical(induced_subgraph(g, find_critical_subgraph(g, chi)),
                             chi).is_critical
    copaw_decompose(g)
    assert calls == []


@pytest.mark.parametrize("name, k", [("C5", 3), ("C7", 3), ("K4", 4), ("C6", 3)])
def test_triangle_test_runs_once(monkeypatch, name, k):
    # the criticality test and the peel run the complement's triangle test
    # once; when it fails (alpha(C7) = 3) chi comes from branch and bound
    # without a second alpha <= 2 attempt
    g = named_graph(name)
    calls = spy(monkeypatch, triangle_free_raw)
    chi = is_vertex_critical(g, k).k
    assert [active.bit_count() for _, active in calls] == [g.n]
    find_critical_subgraph(g, chi)
    assert [active.bit_count() for _, active in calls] == [g.n, g.n]


@pytest.mark.parametrize("name", ["C5", "C7", "K4", "C6", "P3+P1", "co-C9"])
def test_chi_kernel_runs_once_per_call(monkeypatch, name):
    # the criticality test and the peel take chi and D from one chi_raw
    # call on the full mask, whichever branch it takes
    # (alpha(C7) = alpha(P3+P1) = 3)
    g = named_graph(name)
    chi = chromatic_number(g)
    full_call = (g.n, g.adj, complement(g).adj, (1 << g.n) - 1)
    calls = spy(monkeypatch, chi_raw)
    for k in range(1, chi + 2):
        calls.clear()
        is_vertex_critical(g, k)
        assert calls == [full_call]
    for k in range(1, chi + 1):
        calls.clear()
        find_critical_subgraph(g, k)
        assert calls == [full_call]


def test_wrong_chromatic_number_short_circuits():
    rep = is_vertex_critical(named_graph("C6"), 3)
    assert rep == CriticalityReport(2, False, None)


def test_witness_vertex():
    # C5 plus an isolated vertex: chi = 3 but deleting vertex 5 keeps it
    g = disjoint_union(named_graph("C5"), named_graph("K1"))
    rep = is_vertex_critical(g, 3)
    assert rep.k == 3 and not rep.is_critical and rep.witness == 5
    assert chromatic_number(delete_vertex(g, rep.witness)) == 3


def test_bad_k():
    with pytest.raises(ValueError):
        is_vertex_critical(named_graph("K2"), 0)


@given(graphs(min_n=1, max_n=7))
@settings(max_examples=60, deadline=None)
def test_report_matches_definition(g):
    chi = chromatic_number(g)
    rep = is_vertex_critical(g, chi)
    assert rep.k == chi
    expected = all(chromatic_number(delete_vertex(g, v)) < chi for v in range(g.n))
    assert rep.is_critical == expected
    if rep.is_critical:
        # standard consequence: minimum degree at least chi - 1
        assert min(row.bit_count() for row in g.adj) >= chi - 1
    elif rep.witness is not None:
        assert chromatic_number(delete_vertex(g, rep.witness)) == chi


# ===== the Gallai-Edmonds test against the per-vertex oracle =====

def _reports_agree(g, ks):
    for k in ks:
        if k >= 1:
            assert is_vertex_critical(g, k) == oracles.is_vertex_critical(g, k), (g, k)


def _relabelled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def _shipped(rng):
    # every graph of critical4/5 and a seeded critical6 sample, relabelled
    out = []
    for k in (4, 5, 6):
        gs = [g for _, g in read_graph_file(data_path(f"critical{k}.g6"))]
        if k == 6:
            gs = rng.sample(gs, 300)
        out.extend((k, _relabelled(rng, g)) for g in gs)
    return out


def test_oracle_agrees_on_shipped_critical_graphs():
    rng = random.Random(61)
    for k, g in _shipped(rng):
        assert is_vertex_critical(g, k) == CriticalityReport(k, True, None)
        _reports_agree(g, (k - 1, k, k + 1))


def test_oracle_agrees_on_perturbed_critical_graphs():
    # one edge toggled or one vertex deleted: the chromatic number may
    # stay, so non-critical witnesses come up
    rng = random.Random(67)
    witnesses = 0
    for k, g in _shipped(rng):
        i, j = rng.sample(range(g.n), 2)
        adj = list(g.adj)
        adj[i] ^= 1 << j
        adj[j] ^= 1 << i
        for h in (Graph(g.n, tuple(adj)), delete_vertex(g, rng.randrange(g.n))):
            chi = chromatic_number(h)
            _reports_agree(h, {k, chi})
            witnesses += is_vertex_critical(h, chi).witness is not None
    assert witnesses > 100


def test_oracle_agrees_on_random_graphs():
    rng = random.Random(71)
    small_alpha = large_alpha = 0
    for _ in range(300):
        n = rng.randint(1, 11)
        if rng.random() < 0.5:
            g = complement(random_triangle_free(rng, n, p=rng.choice([0.3, 0.5])))
        else:
            g = random_graph(rng, min(n, 8), p=rng.choice([0.3, 0.5, 0.7]))
        if oracles.independence_number(g) <= 2:
            small_alpha += 1
        else:
            large_alpha += 1
        chi = chromatic_number(g)
        _reports_agree(g, (chi - 1, chi, chi + 1))
    assert small_alpha > 100 and large_alpha > 50


# ===== find_critical_subgraph =====

def test_peel_pendant_cycle():
    g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    s = find_critical_subgraph(g, 3)
    assert s == 0b011111
    assert is_isomorphic(induced_subgraph(g, s), named_graph("C5"))


def test_peel_dominated_duplicate():
    co9 = co_odd_cycle(5)
    extra = [(9, u) for u in range(9) if co9.adj[0] >> u & 1]
    g = from_edge_list(10, list(co9.edges()) + extra)
    s = find_critical_subgraph(g, 5)
    assert bin(s).count("1") == 9
    assert is_isomorphic(induced_subgraph(g, s), co9)


def test_peel_join_supergraph():
    g = join(named_graph("K5"), named_graph("co-K4"))
    s = find_critical_subgraph(g, 5)
    assert is_vertex_critical(induced_subgraph(g, s), 5).is_critical


@given(graphs(min_n=1, max_n=8))
@settings(max_examples=40, deadline=None)
def test_peel_output_is_critical(g):
    k = chromatic_number(g)
    s = find_critical_subgraph(g, k)
    sub = induced_subgraph(g, s)
    assert is_vertex_critical(sub, k).is_critical


# ===== the one-pass peel against the restart-loop oracle =====

def _peel(f, g, k):
    try:
        return f(g, k)
    except ValueError as exc:
        return str(exc)


def _peels_agree(g) -> Counter:
    # same mask or same ValueError at every k up to one past chi; then,
    # from each union of complement components that is one component or
    # all but one (the full mask aside), the same chi, D and deletions
    # at every k up to chi as on the induced subgraph, after relabelling.
    # Counts those start masks by whether alpha <= 2 on them.
    for k in range(1, chromatic_number(g) + 2):
        assert _peel(find_critical_subgraph, g, k) == \
            _peel(oracles.find_critical_subgraph, g, k), (g, k)
    co, full = complement(g).adj, (1 << g.n) - 1
    comps = _components(co)
    starts = Counter()
    for mask in sorted({m for c in comps for m in (c, full ^ c)} - {0, full}):
        sub = induced_subgraph(g, mask)
        verts = list(bits(mask))
        chi, d = chi_raw(g.n, g.adj, co, mask)
        sub_d = None if d is None else sum(1 << i for i, v in enumerate(verts) if d >> v & 1)
        assert (chi, sub_d) == chi_raw(sub.n, sub.adj, complement(sub).adj,
                                       (1 << sub.n) - 1), (g, mask)
        for k in range(1, chi + 1):
            peeled = [verts.index(v) for v in
                      kcrit.critical._peel(g.n, g.adj, co, mask, k, chi, d)]
            kept = find_critical_subgraph(sub, k)
            assert peeled == list(bits((1 << sub.n) - 1 & ~kept)), (g, mask, k)
        starts[d is not None] += 1
    return starts


def _with_extra_vertices(rng, g):
    # 1-3 new vertices, each a true twin of an old one (alpha stays <= 2)
    # or joined to a random half (alpha usually rises)
    adj = list(g.adj)
    for _ in range(rng.randint(1, 3)):
        v = len(adj)
        if rng.random() < 0.5:
            u = rng.randrange(v)
            row = adj[u] | 1 << u
        else:
            row = sum(1 << u for u in range(v) if rng.random() < 0.5)
        for u in bits(row):
            adj[u] |= 1 << v
        adj.append(row)
    return Graph(len(adj), tuple(adj))


def _critical6_extended(seed):
    rng = random.Random(seed)
    gs = [g for _, g in read_graph_file(data_path("critical6.g6"))]
    return [_with_extra_vertices(rng, g) for g in rng.sample(gs, 300)]


def test_peel_oracle_on_critical45():
    for k in (4, 5):
        for _, g in read_graph_file(data_path(f"critical{k}.g6")):
            _peels_agree(g)


def test_peel_oracle_on_extended_critical6():
    small_alpha = 0
    for g in _critical6_extended(73):
        small_alpha += triangle_free_raw(complement(g).adj, (1 << g.n) - 1)
        _peels_agree(g)
    assert small_alpha > 20


def test_peel_oracle_on_copaw_free_no_instances():
    # chi >= 4: each is a NO instance of the k = 3 certifier and more
    rng = random.Random(79)
    seen = 0
    starts = Counter()
    while seen < 400:
        g = random_copaw_free(rng, 12)
        if chromatic_number(g) >= 4:
            seen += 1
            starts += _peels_agree(g)
    assert starts[True] > 1000 and starts[False] > 100, starts


def test_peel_oracle_on_random_graphs():
    rng = random.Random(83)
    small_alpha = 0
    starts = Counter()
    for i in range(400):
        if i % 2:
            g = complement(random_triangle_free(rng, rng.randint(1, 13),
                                                p=rng.choice([0.3, 0.5])))
        else:
            g = random_graph(rng, rng.randint(1, 9), p=rng.choice([0.3, 0.5, 0.7]))
        small_alpha += oracles.independence_number(g) <= 2
        starts += _peels_agree(g)
    assert 200 <= small_alpha < 400
    assert starts[True] > 200 and starts[False] > 10, starts


def test_peel_matching_count(monkeypatch):
    # the alpha <= 2 peel: one blossom pass up front and one per
    # deleted vertex, none for a kept one
    passes = spy(monkeypatch, matching_raw)
    peeled = 0
    for g in _critical6_extended(89)[:60]:
        if not triangle_free_raw(complement(g).adj, (1 << g.n) - 1):
            continue
        for k in range(1, 7):
            passes.clear()
            kept = find_critical_subgraph(g, k)
            assert len(passes) == 1 + g.n - kept.bit_count(), (g, k)
            peeled += 1
    assert peeled > 30


# ===== the criticality test is the peel's first deletion =====

def _small_and_random_graphs(seed):
    # every class of order 1..7, then seeded graphs with alpha <= 2
    # (complements of triangle-free graphs) and mostly with alpha > 2
    for n in range(1, 8):
        yield from generate_graphs(n)
    rng = random.Random(seed)
    for i in range(300):
        if i % 2:
            yield complement(random_triangle_free(rng, rng.randint(1, 13),
                                                  p=rng.choice([0.3, 0.5])))
        else:
            yield random_graph(rng, rng.randint(1, 10), p=rng.choice([0.3, 0.5, 0.7]))


def test_witness_is_the_lowest_vertex_the_peel_deletes():
    full = small_alpha = large_alpha = witnesses = 0
    for g in _small_and_random_graphs(97):
        k = chromatic_number(g)
        dropped = (1 << g.n) - 1 & ~find_critical_subgraph(g, k)
        witness = is_vertex_critical(g, k).witness
        if dropped:
            assert witness == (dropped & -dropped).bit_length() - 1, g
            witnesses += 1
        else:
            assert witness is None, g
            full += 1
        if triangle_free_raw(complement(g).adj, (1 << g.n) - 1):
            small_alpha += 1
        else:
            large_alpha += 1
    assert full > 30 and witnesses > 1000 and small_alpha > 300 and large_alpha > 900


def test_criticality_test_makes_one_blossom_pass_and_builds_no_subgraph(monkeypatch):
    # alpha <= 2: the one pass of chi_raw, also when a witness is
    # found, as the peel's next pass runs after its first deletion;
    # alpha > 2: each deletion is searched on the vertex mask
    rng = random.Random(101)
    critical6 = [g for _, g in read_graph_file(data_path("critical6.g6"))]
    inputs = rng.sample(critical6, 40) + _critical6_extended(103)[:80]
    inputs += [random_graph(rng, rng.randint(4, 10), p=0.4) for _ in range(80)]
    cycles = [odd_cycle(m) for m in range(3, 7)]
    inputs += cycles + [join(c, named_graph(h)) for c in cycles for h in ("K1", "K2", "C5")]
    passes = spy(monkeypatch, matching_raw)
    built = spy(monkeypatch, induced_subgraph)
    seen = Counter()
    for g in inputs:
        k = chromatic_number(g)
        passes.clear()
        built.clear()
        rep = is_vertex_critical(g, k)
        small_alpha = triangle_free_raw(complement(g).adj, (1 << g.n) - 1)
        assert len(passes) == small_alpha and built == [], g
        seen[small_alpha, rep.is_critical] += 1
    assert len(seen) == 4 and min(seen.values()) >= 10, seen


# ===== colorings with every class of size two =====

def test_min_class_known_cases():
    assert check_min_class_colorings(co_odd_cycle(5), 5)
    assert check_min_class_colorings(named_graph("C5"), 3)
    assert check_min_class_colorings(co_odd_cycle(4), 4)


def test_min_class_preconditions():
    with pytest.raises(ValueError):
        check_min_class_colorings(named_graph("C6"), 3)  # not critical
    with pytest.raises(ValueError):
        check_min_class_colorings(named_graph("K2"), 2)  # complement disconnected


# ===== join criticality =====

def test_join_examples():
    assert verify_join_criticality(named_graph("C5"), named_graph("K2"), 3, 2)
    assert is_vertex_critical(join(named_graph("C5"), named_graph("K2")), 5).is_critical
    assert verify_join_criticality(named_graph("C5"), named_graph("C5"), 3, 3)
    assert is_vertex_critical(join(named_graph("C5"), named_graph("C5")), 6).is_critical
    # both sides false: C6 is not 3-vertex-critical and the join is not 4-critical
    assert verify_join_criticality(named_graph("C6"), named_graph("K1"), 3, 1)


def test_join_biconditional_on_standard_factors():
    factors = [
        (named_graph("K1"), 1),
        (named_graph("K2"), 2),
        (named_graph("K3"), 3),
        (named_graph("C5"), 3),
        (named_graph("C7"), 3),
        (co_odd_cycle(4), 4),
    ]
    for g, k1 in factors:
        for h, k2 in factors:
            assert verify_join_criticality(g, h, k1, k2), (k1, k2)
