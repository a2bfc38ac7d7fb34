"""Canonical labeling against brute-force isomorphism oracles."""

import random

from hypothesis import given, settings

import oracles
from kcrit.canon import canon_raw, canonical_form
from kcrit.graph import Graph, from_edge_list, from_graph6, relabel
from oracles import is_isomorphic
from util import graph_with_permutation, random_graph

C5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])

# unlabeled simple graph counts for n = 0..7
UNLABELED_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044]


def test_code_counts_small_orders():
    for n in range(0, 6):
        codes = {canonical_form(g) for g in oracles.all_labeled_graphs(n)}
        assert len(codes) == UNLABELED_COUNTS[n]


def test_codes_agree_with_permutation_oracle_n4():
    # equal code <=> isomorphic, checked exhaustively against all 4! maps
    reps = {}
    for g in oracles.all_labeled_graphs(4):
        reps.setdefault(canonical_form(g), g)
    items = list(reps.items())
    for i, (ci, gi) in enumerate(items):
        for cj, gj in items[i + 1:]:
            assert not oracles.are_isomorphic(gi, gj)
    for g in oracles.all_labeled_graphs(4):
        assert oracles.are_isomorphic(g, reps[canonical_form(g)])


def test_canonical_graph_is_isomorphic_decode():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 7))
        cg = from_graph6(canonical_form(g))
        assert canonical_form(cg) == canonical_form(g)
        assert oracles.are_isomorphic(g, cg)


def test_canonical_labeling_realizes_code():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 9))
        order = canon_raw(g.n, g.adj)[0]
        pos = [0] * g.n
        for i, v in enumerate(order):
            pos[v] = i
        assert relabel(g, pos) == from_graph6(canonical_form(g))


@settings(max_examples=150)
@given(graph_with_permutation(max_n=9))
def test_code_invariant_under_relabeling(gp):
    g, perm = gp
    assert canonical_form(relabel(g, perm)) == canonical_form(g)


def test_generators_are_automorphisms():
    rng = random.Random(23)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 9), p=rng.choice([0.2, 0.5, 0.8]))
        for gen in canon_raw(g.n, g.adj)[2]:
            assert relabel(g, gen) == g


def test_orbits_match_bruteforce_group():
    for n in range(1, 6):
        for g in oracles.all_labeled_graphs(n):
            assert canon_raw(g.n, g.adj)[3] == oracles.automorphism_orbit_partition(g)


def test_orbits_match_bruteforce_random_n7():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, 7, p=rng.choice([0.15, 0.5, 0.85]))
        assert canon_raw(g.n, g.adj)[3] == oracles.automorphism_orbit_partition(g)


def test_c5_self_complementary():
    from kcrit.graph import complement
    assert is_isomorphic(C5, complement(C5))
    assert oracles.are_isomorphic(C5, complement(C5))


def test_is_isomorphic_negative():
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    claw = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    assert not is_isomorphic(p4, claw)


def test_highly_symmetric_graphs():
    # complete multipartite and unions of cliques exercise large groups
    from kcrit.graph import complement, disjoint_union
    k33 = complement(disjoint_union(
        from_edge_list(3, [(0, 1), (0, 2), (1, 2)]),
        from_edge_list(3, [(0, 1), (0, 2), (1, 2)])))
    assert canon_raw(k33.n, k33.adj)[3] == [0] * 6
    empty = Graph(8, (0,) * 8)
    assert canon_raw(empty.n, empty.adj)[3] == [0] * 8
    assert canonical_form(empty) == oracles.graph6_encode(empty)
