"""Canonical labeling against brute-force isomorphism oracles."""

import random
from itertools import chain

from hypothesis import given, settings

import kcrit.canon
import oracles
from kcrit.canon import _refine, canon_raw, canonical_form
from kcrit.generate import generate_graphs
from kcrit.graph import (Graph, complement, from_edge_list, from_graph6, join,
                         read_graph_file, relabel, to_graph6)
from oracles import is_isomorphic
from util import data_path, graph_with_permutation, random_graph

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
        assert canonical_form(g) == oracles.graph6_encode(relabel(g, pos))


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


def test_no_generator_is_the_identity():
    # two leaves that record a generator part at some node, where they put
    # different vertices into the same singleton cell
    rng = random.Random(47)
    seeded = [random_graph(rng, rng.randint(2, 16), p=rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
              for _ in range(1000)]
    gens = 0
    for g in chain((g for n in range(1, 8) for g in generate_graphs(n)), seeded):
        for gen in canon_raw(g.n, g.adj)[2]:
            gens += 1
            assert gen != tuple(range(g.n)), g
    assert gens > 1000


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


# ===== refinement against the full-queue oracle =====

def _refinement_inputs():
    # every shipped critical graph with a seeded relabelling, seeded random
    # graphs, and the empty, complete and cycle graphs, K3,3 and Petersen
    rng = random.Random(41)
    for k in (4, 5, 6):
        for _, g in read_graph_file(data_path(f"critical{k}.g6")):
            perm = list(range(g.n))
            rng.shuffle(perm)
            yield g
            yield relabel(g, perm)
    for _ in range(2000):
        yield random_graph(rng, rng.randint(0, 14), p=rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
    for n in range(16):
        yield Graph(n, (0,) * n)
        yield Graph(n, tuple((1 << n) - 1 ^ 1 << v for v in range(n)))
        if n >= 3:
            yield from_edge_list(n, [(v, (v + 1) % n) for v in range(n)])
    yield from_edge_list(6, [(a, b) for a in range(3) for b in range(3, 6)])
    yield from_edge_list(10, [(v, (v + 1) % 5) for v in range(5)]
                         + [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
                         + [(v, v + 5) for v in range(5)])


def test_refine_from_the_individualized_vertex_matches_the_full_queue(monkeypatch):
    # at every node the search reaches, refining from its queue (the root's
    # cells, or a child's individualized vertex alone) with every split
    # part but the last queued gives the cells of the full-queue refinement
    refine = kcrit.canon._refine
    calls = [0, 0]

    def checked(adj, cells, queue=None):
        calls[queue is None] += 1
        out = refine(adj, cells, queue)
        assert out == oracles.refine(adj, cells), (adj, cells, queue)
        return out

    monkeypatch.setattr(kcrit.canon, "_refine", checked)
    graphs = nonempty = 0
    for g in _refinement_inputs():
        canon_raw(g.n, g.adj)
        graphs += 1
        nonempty += g.n > 0
    assert graphs == 2 * (8 + 178 + 18007) + 2000 + 16 + 16 + 13 + 2
    assert calls[1] == nonempty  # one root refinement per nonempty graph
    assert calls[0] > calls[1]


def test_canon_raw_matches_the_search_with_full_queue_refinement(monkeypatch):
    inputs = list(_refinement_inputs())
    fast = [canon_raw(g.n, g.adj) for g in inputs]
    monkeypatch.setattr(kcrit.canon, "_refine",
                        lambda adj, cells, queue=None: oracles.refine(adj, cells))
    for g, got in zip(inputs, fast):
        assert got == canon_raw(g.n, g.adj), g


def test_a_search_from_the_root_cells_equals_canon_raw():
    # handing the search the root cells it would refine itself changes
    # nothing: the same order, code, generators and orbits
    for g in _refinement_inputs():
        cells = _refine(g.adj, [(1 << g.n) - 1])
        assert canon_raw(g.n, g.adj, cells) == canon_raw(g.n, g.adj), g


# ===== dominating vertices =====

def _dominating(g):
    return [v for v, a in enumerate(g.adj) if a.bit_count() == g.n - 1]


def test_a_canonical_labelling_lists_the_dominating_vertices_first():
    rng = random.Random(53)
    seeded = [random_graph(rng, rng.randint(1, 12), p=rng.choice([0.5, 0.8, 0.95]))
              for _ in range(500)]
    tested = 0
    for g in chain((g for n in range(1, 8) for g in generate_graphs(n)), seeded):
        u = _dominating(from_graph6(canonical_form(g)))
        assert u == list(range(len(u))), g
        tested += bool(u)
    assert tested > 500


def test_a_join_with_a_clique_is_the_clique_before_the_canonical_labelling():
    # K_m v H for H with no dominating vertex: the m dominating vertices
    # lead and never split a cell, and the code ranks leaves as H's does,
    # so the canonical labelling of the join is K_m, then H's own
    rng = random.Random(59)
    cases = 0
    for n in range(1, 8):
        for h in generate_graphs(n):
            if _dominating(h):
                continue
            ch = from_graph6(canonical_form(h))
            for m in (1, 2, 3):
                g = join(complement(Graph(m, (0,) * m)), h)
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_form(relabel(g, perm)) == to_graph6(
                    join(complement(Graph(m, (0,) * m)), ch)), (h, m)
                cases += 1
    assert cases == 3 * 1043        # the classes of order <= 7 without one
