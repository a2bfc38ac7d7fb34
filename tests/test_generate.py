"""Tests for isomorph-free generation by canonical augmentation."""

import pytest

import oracles
from kcrit.canon import canon_raw, canonical_form
from kcrit.generate import (
    ALL_GRAPHS,
    TRIANGLE_FREE,
    _independent_masks,
    child_graphs,
    generate_graphs,
)
from kcrit.graph import Graph, from_edge_list
from kcrit.invariants import clique_number, independence_number
from kcrit.patterns import named_graph


def _oracle_class_count(n, keep=lambda g: True):
    return len({canonical_form(g) for g in oracles.all_labeled_graphs(n) if keep(g)})


# ===== independent-set masks =====

def test_independent_set_masks_examples():
    c5 = named_graph("C5")
    masks = _independent_masks(c5.adj, 0b11111, 5)
    assert len(masks) == len(set(masks)) == 11  # 1 empty + 5 singles + 5 pairs
    assert 0 in masks
    k3 = named_graph("K3")
    assert sorted(_independent_masks(k3.adj, 0b111, 3)) == [0, 1, 2, 4]


def test_independent_set_masks_are_independent():
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    for s in _independent_masks(g.adj, 0b11111, 5):
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


# ===== degree-bounded generation =====

def _levels(mode, top, max_degree=None):
    # every level of one run, orders 1..top
    levels = [[Graph(1, (0,))]]
    while len(levels) < top:
        levels.append([c for p in levels[-1]
                       for c in child_graphs(p, mode, max_degree)])
    return levels


def _max_degree(g):
    return max(a.bit_count() for a in g.adj)


@pytest.mark.parametrize("mode,top", [(TRIANGLE_FREE, 9), (ALL_GRAPHS, 6)])
def test_degree_bounded_equals_filtered_unbounded(mode, top):
    # bounded runs keep exactly the unbounded run's classes of maximum
    # degree <= D, as the same graphs in the same order
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
    # the attachment rule keeps exactly the children of minimum degree
    # >= d, in the order of the unbounded step, and it restricts the
    # masks before their orbit representatives are taken
    import kcrit.generate as generate
    offered, reps = [], generate._mask_orbit_reps

    def spy(masks, gens):
        offered.append(list(masks))
        return reps(masks, gens)

    monkeypatch.setattr(generate, "_mask_orbit_reps", spy)
    for level in _levels(mode, top - 1, max_degree):
        for p in level:
            kids = child_graphs(p, mode, max_degree)
            for d in (1, 2, 3):
                want = [g.adj for g in kids if _min_degree(g) >= d]
                offered.clear()
                assert [g.adj for g in child_graphs(p, mode, max_degree, d)] == want
                need = sum(1 << v for v, a in enumerate(p.adj) if a.bit_count() < d)
                assert all(s & need == need and s.bit_count() >= d
                           for masks in offered for s in masks)


# ===== handed-down automorphism generators =====

def test_handed_down_generators_give_the_same_children():
    # on every triangle-free parent up to order 8: the generators found
    # while accepting a child are its canon_raw generators, and expanding
    # with them gives the same children (and generators) as labelling it
    level, gens = [Graph(1, (0,))], [None]
    handed = 0
    while level[0].n <= 8:
        next_level, next_gens = [], []
        for p, g in zip(level, gens):
            if g is not None:
                handed += 1
                assert g == canon_raw(p.n, p.adj)[2]
            mine, fresh = [], []
            kids = child_graphs(p, TRIANGLE_FREE, gens=g, child_gens=mine)
            assert [c.adj for c in kids] == \
                [c.adj for c in child_graphs(p, TRIANGLE_FREE, child_gens=fresh)]
            assert mine == fresh and len(mine) == len(kids)
            next_level += kids
            next_gens += mine
        level, gens = next_level, next_gens
    assert len(level) == 1897 and handed > 200


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
    with pytest.raises(ValueError, match=r"order must be an int in 0\.\.31, got"):
        list(generate_graphs(n))


@pytest.mark.parametrize("n", [1, 2])
def test_unknown_mode_is_rejected_at_every_order(n):
    # order 1 needs no augmentation step, and used to yield K1 for any mode
    with pytest.raises(ValueError, match="unknown generation mode 'bogus'"):
        list(generate_graphs(n, "bogus"))


@pytest.mark.parametrize("mode", [TRIANGLE_FREE, ALL_GRAPHS])
@pytest.mark.parametrize("bound", ["max_degree", "min_degree"])
def test_negative_degree_bound_is_rejected(mode, bound):
    # a negative max_degree used to mean no bound for triangle-free
    # children and no children at all for the other mode
    p3 = named_graph("P3")
    with pytest.raises(ValueError, match=f"{bound} must be an int >= 0, got -1"):
        child_graphs(p3, mode, **{bound: -1})
    # zero is a bound: only the isolated new vertex, or no bound at all
    zero = child_graphs(p3, mode, **{bound: 0})
    assert len(zero) == (1 if bound == "max_degree" else len(child_graphs(p3, mode)))
