"""Pattern catalog, induced-subgraph detection, and the join decomposition."""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings

import oracles
from oracles import is_isomorphic
from kcrit.canon import canonical_form
from kcrit.graph import (Graph, complement, from_edge_list, induced_subgraph,
                         join, mask_of, read_graph_file, relabel)
from kcrit.patterns import (ORDER4_NAMES, JoinDecomposition, contains_induced,
                            copaw_decompose, is_free, is_p3p1, named_graph,
                            p2_lp1)
from lemmas import is_p2_lp1_free, maximal_independent_set, nonneighbor_profile
from util import (canonical_reps, data_path, graphs, peak_traced, random_copaw_free,
                  random_graph, spy)


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


# ===== named graphs =====

def test_named_graph_basics():
    p3p1 = named_graph("P3+P1")
    assert p3p1.n == 4 and len(p3p1.edges()) == 2
    assert max(p3p1.adj[v].bit_count() for v in range(4)) == 2
    assert len(named_graph("P2+2P1").edges()) == 1
    assert named_graph("P2+2P1").n == 4
    assert is_isomorphic(complement(named_graph("paw")), p3p1)


def test_named_graph_parsing_variants():
    assert named_graph("k4") == named_graph("K4")
    assert named_graph("co-K4") == Graph(4, (0, 0, 0, 0))
    assert named_graph("coK4") == named_graph("co-K4")
    assert named_graph("c5") == cycle(5)
    assert is_isomorphic(named_graph("co-C7"), complement(cycle(7)))
    assert named_graph("P2+P1").n == 3
    assert named_graph("p2+3p1").n == 5
    assert len(named_graph("2K2").edges()) == 2
    for spelling in ("p3p1", "P3P1", "P3 + P1", "p3++p1"):
        assert named_graph(spelling) == named_graph("P3+P1")
    assert named_graph("co-p3p1") == named_graph("co-P3+P1")


def test_named_graph_rejects():
    for bad in ["K0", "C2", "P0", "co-", "triangle?", "P2+P2"]:
        with pytest.raises(ValueError):
            named_graph(bad)


@pytest.mark.parametrize("name", ["K1000000000", "P1000000000", "C1000000000",
                                  "P2+1000000000P1", "co-K1000000000", "coC1000000000"])
def test_named_graph_rejects_a_huge_order_before_building(name):
    with peak_traced() as peak, pytest.raises(ValueError, match=r"in 0\.\.31, got 100000000"):
        named_graph(name)
    assert peak[0] < 100_000


def test_named_graph_orders_at_the_cap():
    assert named_graph("K31").n == named_graph("co-C31").n == 31
    assert p2_lp1(29) == from_edge_list(31, [(0, 1)])
    with pytest.raises(ValueError, match="got 32"):
        named_graph("P32")
    with pytest.raises(ValueError, match="got 32"):
        named_graph("P2+30P1")


def test_order4_names_pairwise_distinct():
    built = [named_graph(name) for name in ORDER4_NAMES]
    assert all(g.n == 4 for g in built)
    codes = {canonical_form(g) for g in built}
    assert len(codes) == 11


# ===== contains_induced =====

def backtrack_contains_induced(g, h):
    """The earlier search, kept as an oracle for patterns too large for
    the permutation scan: try every host vertex at every pattern level,
    ascending, and check its adjacency to the vertices already placed."""
    if h.n > g.n:
        return None
    if h.n == 0:
        return ()
    hdeg = [h.adj[u].bit_count() for u in range(h.n)]
    gdeg = [g.adj[v].bit_count() for v in range(g.n)]
    phi = [-1] * h.n

    def rec(u: int, used: int):
        for w in range(g.n):
            if used >> w & 1 or gdeg[w] < hdeg[u]:
                continue
            grow = g.adj[w]
            hrow = h.adj[u]
            if any((hrow >> i & 1) != (grow >> phi[i] & 1) for i in range(u)):
                continue
            phi[u] = w
            if u + 1 == h.n or rec(u + 1, used | 1 << w):
                return True
            phi[u] = -1
        return False

    return tuple(phi) if rec(0, 0) else None


def test_contains_examples():
    assert contains_induced(cycle(7), named_graph("P3+P1")) is not None
    assert oracles.contains_induced(cycle(7), named_graph("P3+P1")) is not None
    assert contains_induced(cycle(5), p2_lp1(2)) is None
    assert oracles.contains_induced(cycle(5), p2_lp1(2)) is None


def test_contains_identity_embedding():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8))
        s = rng.sample(range(g.n), rng.randint(1, g.n))
        h = induced_subgraph(g, mask_of(s))
        assert contains_induced(g, h) is not None


def test_embedding_induces_pattern():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randint(4, 9))
        for name in ("paw", "claw", "P4", "2K2"):
            h = named_graph(name)
            phi = contains_induced(g, h)
            assert phi == oracles.contains_induced(g, h)
            if phi is not None:
                assert len(set(phi)) == h.n
                assert all((h.adj[i] >> j & 1) == (g.adj[phi[i]] >> phi[j] & 1)
                           for i in range(h.n) for j in range(i + 1, h.n))


def test_degree_window_keeps_the_oracle_embedding():
    # the degree window deg_h(u) <= deg_g(phi(u)) <= deg_h(u) + g.n - h.n
    # prunes only dead branches: the first embedding, or None, is the
    # oracle's, equal orders included
    rng = random.Random(17)
    found = same_order = 0
    for _ in range(3000):
        n = rng.randint(0, 7)
        g = random_graph(rng, n, rng.random())
        h = random_graph(rng, rng.choice((n, rng.randint(0, n))), rng.random())
        phi = contains_induced(g, h)
        assert phi == oracles.contains_induced(g, h), (g, h)
        found += phi is not None
        same_order += h.n == g.n
    assert 500 < found < 2500 and same_order > 1000


def test_same_embedding_as_backtracking_on_random_pairs():
    rng = random.Random(8)
    found = 0
    for _ in range(1500):
        g = random_graph(rng, rng.randint(0, 10), p=rng.choice([0.2, 0.5, 0.8]))
        h = random_graph(rng, rng.randint(0, 5), p=rng.choice([0.2, 0.5, 0.8]))
        phi = contains_induced(g, h)
        assert phi == backtrack_contains_induced(g, h)
        found += phi is not None
    assert 300 < found < 1200   # both outcomes well represented


def test_same_embedding_as_backtracking_for_critical_patterns():
    # the certifier's database scan: P3+P1-free hosts of order 8 to 11,
    # half of them relabelled critical6 members, with critical4 and
    # critical5 members (orders 4 to 9) as patterns
    members = [g for k in (4, 5)
               for _, g in read_graph_file(data_path(f"critical{k}.g6"))]
    six = [g for _, g in read_graph_file(data_path("critical6.g6"))]
    rng = random.Random(21)
    patterns = members[:8] + rng.sample(members[8:], 20)
    hosts = []
    while len(hosts) < 10:
        g = random_copaw_free(rng, max_n=11)
        if g.n >= 8:
            hosts.append(g)
    for g in rng.sample(six, 10):
        perm = list(range(g.n))
        rng.shuffle(perm)
        hosts.append(relabel(g, perm))
    found = 0
    for g in hosts:
        for h in patterns:
            phi = contains_induced(g, h)
            assert phi == backtrack_contains_induced(g, h)
            found += phi is not None
    assert found > 50


def test_certify_answers_unchanged_under_backtracking(monkeypatch):
    # verdicts and witnesses (NOT-IN-CLASS hits and NO scan hits alike)
    # must not depend on which of the two searches certify_color calls
    import kcrit.certify as certify

    dbs = {k: certify.build_database(k + 1) for k in (3, 4)}
    rng = random.Random(34)
    batch = [random_copaw_free(rng, max_n=11) for _ in range(120)]
    batch += [random_graph(rng, rng.randint(4, 9)) for _ in range(30)]
    fast = [certify.certify_color(g, k, dbs[k]) for g in batch for k in dbs]
    monkeypatch.setattr(certify, "contains_induced", backtrack_contains_induced)
    slow = [certify.certify_color(g, k, dbs[k]) for g in batch for k in dbs]
    assert fast == slow
    verdicts = {a.verdict for a in fast}
    assert verdicts == {certify.YES, certify.NO, certify.NOT_IN_CLASS}


def test_contains_induced_p3p1_matches_oracle():
    # the certifier's NOT-IN-CLASS witness is contains_induced's embedding,
    # while is_free decides P3+P1 by the decomposition
    h = named_graph("P3+P1")
    rng = random.Random(41)
    found = 0
    for _ in range(800):
        g = random_graph(rng, rng.randint(0, 10), p=rng.choice([0.2, 0.5, 0.8, 0.9]))
        phi = contains_induced(g, h)
        assert (phi is None) == oracles.is_p3p1_free(g)
        if phi is not None:
            found += 1
            assert len(set(phi)) == 4
            assert all((h.adj[i] >> j & 1) == (g.adj[phi[i]] >> phi[j] & 1)
                       for i in range(4) for j in range(i + 1, 4))
    assert 200 < found < 700   # both outcomes well represented


def test_is_free_matches_contains_induced_for_order4_patterns():
    p3p1 = named_graph("P3+P1")
    relabelled = {relabel(p3p1, list(perm)) for perm in permutations(range(4))}
    assert len(relabelled) == 12
    patterns = [named_graph(name) for name in ORDER4_NAMES] + sorted(
        relabelled, key=lambda h: h.adj)
    assert [is_p3p1(h) for h in patterns[:11]] == [
        name == "P3+P1" for name in ORDER4_NAMES]
    assert all(is_p3p1(h) for h in relabelled)
    rng = random.Random(43)
    batch = [random_graph(rng, rng.randint(0, 10), p=rng.choice([0.3, 0.5, 0.8]))
             for _ in range(150)]
    batch += [random_copaw_free(rng, max_n=10) for _ in range(50)]
    for g in batch:
        for h in patterns:
            assert is_free(g, h) == (contains_induced(g, h) is None)


def test_is_free_agrees_with_subset_scan_n6():
    patterns = [named_graph(name) for name in ORDER4_NAMES]
    for n in range(4, 7):
        for g in canonical_reps(n):
            for h in patterns:
                direct = any(
                    oracles.are_isomorphic(induced_subgraph(g, mask_of(s)), h)
                    for s in combinations(range(g.n), 4))
                assert is_free(g, h) == (not direct)


# ===== specialized freeness checks =====

@settings(max_examples=120)
@given(graphs(max_n=8))
def test_p2_lp1_specialized_matches_generic(g):
    for l in range(4):
        assert is_p2_lp1_free(g, l) == is_free(g, p2_lp1(l))


@settings(max_examples=120)
@given(graphs(max_n=8))
def test_p3p1_specialized_matches_generic(g):
    assert oracles.is_p3p1_free(g) == is_free(g, "P3+P1")


def test_odd_cycle_p2_lp1_threshold():
    # C(2m+1) is (P2+lP1)-free exactly when m <= l
    for m in range(1, 5):
        for l in range(1, 5):
            assert is_p2_lp1_free(cycle(2 * m + 1), l) == (m <= l)


# ===== join decomposition =====

def test_decompose_k4():
    dec = copaw_decompose(named_graph("K4"))
    assert dec is not None and len(dec.factors) == 4
    assert all(f.bit_count() == 1 for f in dec.factors)
    assert dec.alpha_le_2 == (True,) * 4


def test_decompose_c9bar():
    dec = copaw_decompose(complement(cycle(9)))
    assert dec is not None and len(dec.factors) == 1
    assert dec.alpha_le_2 == (True,)


def test_decompose_absent_on_c7():
    assert copaw_decompose(cycle(7)) is None
    assert oracles.contains_induced(cycle(7), named_graph("P3+P1")) is not None


@settings(max_examples=150)
@given(graphs(max_n=8))
def test_decompose_iff_free(g):
    dec = copaw_decompose(g)
    assert (dec is not None) == oracles.is_p3p1_free(g)
    if dec is not None:
        # factors partition V and reassemble to g under join
        assert sum(f.bit_count() for f in dec.factors) == g.n
        rebuilt = None
        for f in dec.factors:
            sub = induced_subgraph(g, f)
            rebuilt = sub if rebuilt is None else join(rebuilt, sub)
        if rebuilt is not None:
            assert is_isomorphic(rebuilt, g)


def test_decompose_matches_oracle_on_random_graphs():
    rng = random.Random(47)
    present = 0
    for _ in range(1500):
        g = random_graph(rng, rng.randint(0, 12), p=rng.choice([0.2, 0.5, 0.8, 0.9]))
        dec = copaw_decompose(g)
        assert dec == oracles.copaw_decompose(g)
        present += dec is not None
    assert 300 < present < 1200   # both outcomes well represented


def test_decompose_matches_oracle_on_critical_lists():
    graphs_ = [g for k in (4, 5)
               for _, g in read_graph_file(data_path(f"critical{k}.g6"))]
    six = [g for _, g in read_graph_file(data_path("critical6.g6"))]
    graphs_ += random.Random(53).sample(six, 400)
    for g in graphs_:
        dec = copaw_decompose(g)
        assert dec is not None and dec == oracles.copaw_decompose(g)


def test_decompose_matches_oracle_on_copaw_free_joins():
    rng = random.Random(59)
    kinds = set()
    for _ in range(600):
        g = random_copaw_free(rng, max_n=12)
        dec = copaw_decompose(g)
        assert dec is not None and dec == oracles.copaw_decompose(g)
        for f, small in zip(dec.factors, dec.alpha_le_2):
            kinds.add((small, is_free(induced_subgraph(g, f), "P3")))
    # alpha <= 2 only, cliques only, and both
    assert kinds == {(True, False), (False, True), (True, True)}


def test_decompose_factor_kinds_hold():
    from kcrit.invariants import independence_number
    rng = random.Random(17)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 9), p=rng.choice([0.3, 0.6, 0.8]))
        dec = copaw_decompose(g)
        if dec is None:
            continue
        for f, small in zip(dec.factors, dec.alpha_le_2):
            sub = induced_subgraph(g, f)
            assert small == (independence_number(sub) <= 2)
            if not small:
                # P3-free means every component is a clique
                assert is_free(sub, "P3")


def test_decompose_tests_cliques_only_where_the_triangle_test_fails(monkeypatch):
    import kcrit.patterns
    from kcrit.invariants import independence_number
    calls = spy(monkeypatch, kcrit.patterns._union_of_cliques_on)
    rng = random.Random(61)
    tested = skipped = 0
    for _ in range(300):
        g = random_copaw_free(rng, max_n=12)
        calls.clear()
        dec = copaw_decompose(g)
        called = [mask for _, mask in calls]
        assert dec is not None
        # one union-of-cliques test per factor with alpha > 2, none on the rest
        assert called == [f for f, small in zip(dec.factors, dec.alpha_le_2)
                          if not small]
        assert all(independence_number(induced_subgraph(g, f)) > 2 for f in called)
        tested += len(called)
        skipped += dec.alpha_le_2.count(True)
    assert tested > 50 and skipped > 50


@pytest.mark.parametrize("max_n", [1, 2, 3])
def test_random_copaw_free_small_orders(max_n):
    rng = random.Random(67)
    orders = set()
    for _ in range(200):
        g = random_copaw_free(rng, max_n=max_n)
        assert copaw_decompose(g) is not None
        orders.add(g.n)
    assert orders == set(range(1, max_n + 1))


def test_random_copaw_free_rejects_an_empty_order_range():
    with pytest.raises(ValueError, match="max_n must be at least 1"):
        random_copaw_free(random.Random(0), max_n=0)


# ===== nonneighbor profile =====

def test_profile_c5():
    s = maximal_independent_set(cycle(5), order=[0, 2])
    assert s == mask_of([0, 2])
    prof = nonneighbor_profile(cycle(5), s)
    assert set(prof) == {1, 3, 4}
    assert all(c <= 1 for c in prof.values())


def test_profile_empty_outside():
    g = Graph(3, (0, 0, 0))
    assert nonneighbor_profile(g, mask_of([0, 1, 2])) == {}


def test_profile_rejects_bad_s():
    with pytest.raises(ValueError):
        nonneighbor_profile(cycle(5), mask_of([0, 1]))   # not independent
    with pytest.raises(ValueError):
        nonneighbor_profile(cycle(5), mask_of([0]))      # not maximal
