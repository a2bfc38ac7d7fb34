"""Tests for isomorph-free generation by canonical augmentation."""

import pickle
from random import Random

import pytest

import oracles
from kcrit.canon import canon_raw, canonical_form
from kcrit.families import odd_cycle
from kcrit.generate import (
    ALL_GRAPHS,
    TRIANGLE_FREE,
    _independent_masks,
    _mask_orbit_reps,
    child_graphs,
    generate_graphs,
)
from kcrit.graph import Graph, from_edge_list
from kcrit.invariants import clique_number, independence_number
from kcrit.patterns import named_graph
from util import degree_rule, random_graph, random_triangle_free, spy


def _oracle_class_count(n, keep=lambda g: True):
    return len({canonical_form(g) for g in oracles.all_labeled_graphs(n) if keep(g)})


# ===== independent-set masks =====

def test_independent_set_masks_examples():
    c5 = named_graph("C5")
    masks = _independent_masks(c5.adj, 5)
    assert len(masks) == len(set(masks)) == 11  # 1 empty + 5 singles + 5 pairs
    assert 0 in masks
    k3 = named_graph("K3")
    assert sorted(_independent_masks(k3.adj, 3)) == [0, 1, 2, 4]


def test_independent_set_masks_are_independent():
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    for s in _independent_masks(g.adj, 5):
        sub = [v for v in range(5) if s >> v & 1]
        assert not any(g.adj[a] >> b & 1 for a in sub for b in sub if a < b)


# ===== class counts against brute-force dedup =====

def test_all_graphs_counts_small():
    for n in range(1, 6):
        assert len(list(generate_graphs(n))) == _oracle_class_count(n)


def test_all_graphs_count_order6():
    assert len(list(generate_graphs(6))) == _oracle_class_count(6)


def test_all_graphs_count_order7():
    # 1044 order-7 classes, the order the whole-suite oracle comparison runs at
    assert sum(1 for _ in generate_graphs(7)) == 1044


def test_triangle_free_counts_small():
    keep = lambda g: clique_number(g) <= 2
    for n in range(1, 6):
        got = list(generate_graphs(n, TRIANGLE_FREE))
        assert len(got) == _oracle_class_count(n, keep)
    assert len(list(generate_graphs(3, TRIANGLE_FREE))) == 3


def test_triangle_free_count_order6():
    keep = lambda g: clique_number(g) <= 2
    assert len(list(generate_graphs(6, TRIANGLE_FREE))) == _oracle_class_count(6, keep)


def test_triangle_free_agrees_with_filtered_general_stream():
    # independent pipelines: filter the all-graphs stream vs native mode
    direct = sum(1 for _ in generate_graphs(7, TRIANGLE_FREE))
    filtered = sum(1 for g in generate_graphs(7) if clique_number(g) <= 2)
    assert direct == filtered == 107


@pytest.mark.slow
def test_triangle_free_counts_order8_9():
    assert sum(1 for _ in generate_graphs(8, TRIANGLE_FREE)) == 410
    assert sum(1 for _ in generate_graphs(9, TRIANGLE_FREE)) == 1897


# ===== degree-bounded generation through an attachment predicate =====

def _levels(mode, top, max_degree=None):
    # every level of one run, orders 1..top, each child of maximum degree
    # <= max_degree (None: no bound) by an admit predicate
    levels = [[Graph(1, (0,))]]
    while len(levels) < top:
        levels.append([c for p in levels[-1]
                       for c in child_graphs(p, mode, degree_rule(p, max_degree))])
    return levels


def _max_degree(g):
    return max(a.bit_count() for a in g.adj)


@pytest.mark.parametrize("mode,top", [(TRIANGLE_FREE, 9), (ALL_GRAPHS, 6)])
def test_degree_bounded_equals_filtered_unbounded(mode, top):
    # the maximum degree is hereditary, so bounded runs keep exactly the
    # unbounded run's classes of maximum degree <= D, as the same graphs
    # in the same order
    full = _levels(mode, top)
    for d in range(1, 6):
        for want, got in zip(full, _levels(mode, top, d)):
            kept = [g for g in want if _max_degree(g) <= d]
            assert ({canonical_form(g) for g in got}
                    == {canonical_form(g) for g in kept})
            assert [g.adj for g in got] == [g.adj for g in kept]


def _min_degree(g):
    return min(a.bit_count() for a in g.adj)


@pytest.mark.parametrize("mode,top,max_degree", [(TRIANGLE_FREE, 8, None),
                                                 (TRIANGLE_FREE, 9, 4),
                                                 (ALL_GRAPHS, 6, None)])
def test_min_degree_equals_post_filter(mode, top, max_degree, monkeypatch):
    # an admit predicate for minimum degree >= d keeps exactly the
    # children of minimum degree >= d, in the order of the unfiltered
    # step, and it restricts the masks before their orbit representatives
    # are taken
    offered = spy(monkeypatch, _mask_orbit_reps)
    for level in _levels(mode, top - 1, max_degree):
        for p in level:
            kids = child_graphs(p, mode, degree_rule(p, max_degree))
            for d in (1, 2, 3):
                want = [g.adj for g in kids if _min_degree(g) >= d]
                offered.clear()
                admit = degree_rule(p, max_degree, d)
                assert [g.adj for g in child_graphs(p, mode, admit)] == want
                need = sum(1 << v for v, a in enumerate(p.adj) if a.bit_count() < d)
                assert all(s & need == need and s.bit_count() >= d
                           for masks, _ in offered for s in masks)


# ===== attachment sets that give the new vertex the minimum degree =====

def _seeded_parents(mode, seed):
    # random parents of order 1..9, sparse to dense
    rng = Random(seed)
    make = random_triangle_free if mode == TRIANGLE_FREE else random_graph
    return [make(rng, rng.randint(1, 9), p) for p in (0.15, 0.3, 0.5, 0.8) for _ in range(8)]


@pytest.mark.parametrize("mode", [TRIANGLE_FREE, ALL_GRAPHS])
def test_orbit_step_sees_only_sets_that_give_the_minimum_degree(mode, monkeypatch):
    # the new vertex must have the child's minimum degree |S|, at most
    # min(deg) + 1, so no other set reaches the orbit representatives
    calls = spy(monkeypatch, _mask_orbit_reps)
    parents = _seeded_parents(mode, 2701) + [p for level in _levels(mode, 6) for p in level]
    for p in parents:
        calls.clear()
        child_graphs(p, mode)
        offered = [s for masks, _ in calls for s in masks]
        assert offered and max(s.bit_count() for s in offered) <= _min_degree(p) + 1
        assert all(a.bit_count() + (s >> v & 1) >= s.bit_count()
                   for s in offered for v, a in enumerate(p.adj))


@pytest.mark.parametrize("mode", [TRIANGLE_FREE, ALL_GRAPHS])
def test_capped_children_equal_the_uncapped_enumeration(mode):
    # the same children, rows and generators, in the same order as when
    # every set the degree predicate admits was offered to the canonicity
    # test
    for p in _seeded_parents(mode, 2702):
        for max_degree in (None, 2, 4):
            for min_degree in (None, 1, 2, 3):
                admit = degree_rule(p, max_degree, min_degree)
                got = child_graphs(p, mode, admit)
                assert ([(c.adj, c._gens) for c in got]
                        == oracles.uncapped_child_graphs(p, mode, admit))


@pytest.mark.parametrize("mode", [TRIANGLE_FREE, ALL_GRAPHS])
def test_root_cells_decide_as_the_full_search_does(mode, monkeypatch):
    # on every child of seeded parents: the same verdict as labelling the
    # child whenever another vertex ties with n, and the same generators
    # whenever both searched; a child decided on the root cells carries
    # none
    import kcrit.generate as generate
    real, kinds = generate._canonical_extension, []
    stage3 = spy(monkeypatch, generate._refine, [generate])
    labelled = spy(monkeypatch, canon_raw, [generate])

    def checked(n, adj, deg, eq, s):
        got = real(n, adj, deg, eq, s)
        want = oracles.searched_extension(n, adj, s)
        assert (got is None) == (want is None), (adj, s)
        if got is not None:
            assert got[0] == want[0]
            assert got[1] is None or got[1] == want[1], (adj, s)
            assert want[1] is not None or got[1] is None, (adj, s)
            kinds.append((got[1] is None, want[1] is None))
        return got

    monkeypatch.setattr(generate, "_canonical_extension", checked)
    parents = _seeded_parents(mode, 2703) + [p for level in _levels(mode, 6) for p in level]
    for p in parents:
        child_graphs(p, mode)
    # accepted after a search, on the root cells, and by stage 2; the
    # root cells also reject some children without a search
    assert set(kinds) == {(False, False), (True, False), (True, True)}
    searches = sum(len(args) == 3 for args in labelled)     # from root cells
    assert len(stage3) - searches > kinds.count((True, False)) > 0


# ===== handed-down automorphism generators =====

def test_handed_down_generators_give_the_same_children():
    # on every triangle-free parent up to order 8: the generators a child
    # carries from its acceptance are its canon_raw generators, and
    # expanding it gives the same children (and generators) as expanding
    # a copy that carries none
    level = [Graph(1, (0,))]
    handed = 0
    while level[0].n <= 8:
        next_level = []
        for p in level:
            if p._gens is not None:
                handed += 1
                assert p._gens == canon_raw(p.n, p.adj)[2]
            kids = child_graphs(p, TRIANGLE_FREE)
            fresh = child_graphs(Graph(p.n, p.adj), TRIANGLE_FREE)
            assert [c.adj for c in kids] == [c.adj for c in fresh]
            assert [c._gens for c in kids] == [c._gens for c in fresh]
            next_level += kids
        level = next_level
    assert len(level) == 1897 and handed > 200


def test_generators_are_not_part_of_the_graph():
    # _gens is no dataclass field: a child carrying generators equals,
    # hashes and prints like a fresh Graph of the same rows, and a pickle
    # round trip, the process pool's path, keeps them
    g = next(c for p in generate_graphs(5) for c in child_graphs(p)
             if c._gens is not None)
    fresh = Graph(g.n, g.adj)
    assert fresh._gens is None and g._gens
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    back = pickle.loads(pickle.dumps(g))
    assert back == g and back._gens == g._gens


# ===== emitted-stream invariants =====

def test_no_triangles_and_no_duplicate_codes():
    seen = set()
    for g in generate_graphs(8, TRIANGLE_FREE):
        assert clique_number(g) <= 2
        code = canonical_form(g)
        assert code not in seen
        seen.add(code)


def test_all_mode_no_duplicate_codes():
    codes = [canonical_form(g) for g in generate_graphs(6)]
    assert len(codes) == len(set(codes))


def test_complements_have_alpha_two():
    from kcrit.graph import complement
    for g in generate_graphs(7, TRIANGLE_FREE):
        assert independence_number(complement(g)) <= 2


def test_deterministic_streams():
    a = [g.adj for g in generate_graphs(7, TRIANGLE_FREE)]
    b = [g.adj for g in generate_graphs(7, TRIANGLE_FREE)]
    assert a == b


# ===== plumbing =====

def test_child_graphs_modes():
    k1 = Graph(1, (0,))
    kids = child_graphs(k1)
    assert {len(g.edges()) for g in kids} == {0, 1}
    with pytest.raises(ValueError):
        child_graphs(k1, "nonsense")


@pytest.mark.parametrize("mode", [ALL_GRAPHS, TRIANGLE_FREE])
def test_child_graphs_rejects_a_parent_at_the_order_cap(mode, monkeypatch):
    # a child of a 31-vertex parent would have 32 vertices, past the cap
    # Graph enforces; the parent is rejected before it is labelled
    assert [g.n for g in child_graphs(odd_cycle(14), mode)] == [30, 30]
    labelled = spy(monkeypatch, canon_raw)
    with pytest.raises(ValueError, match=r"order must be an int in 0\.\.31, got 32"):
        child_graphs(odd_cycle(15), mode)
    assert labelled == []


def test_generate_level_matches_stream():
    lvl = [Graph(1, (0,))]
    for _ in range(4):
        lvl = [c for p in lvl for c in child_graphs(p, TRIANGLE_FREE)]
    assert len(lvl) == len(list(generate_graphs(5, TRIANGLE_FREE)))


def test_order_range_errors():
    with pytest.raises(ValueError):
        list(generate_graphs(0))
    with pytest.raises(ValueError):
        list(generate_graphs(32))


@pytest.mark.parametrize("n", [2.0, True, "3", 10**20],
                         ids=["float", "bool", "str", "huge"])
def test_order_must_be_an_int(n):
    with pytest.raises(ValueError, match=r"order must be an int in 1\.\.31, got"):
        list(generate_graphs(n))


@pytest.mark.parametrize("n", [1, 2])
def test_unknown_mode_is_rejected_at_every_order(n):
    # order 1 needs no augmentation step, and used to yield K1 for any mode
    with pytest.raises(ValueError, match="unknown generation mode 'bogus'"):
        list(generate_graphs(n, "bogus"))
