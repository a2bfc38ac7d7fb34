"""Isomorph-free graph enumeration by canonical augmentation.

Graphs grow one vertex at a time.  A child of an n-vertex parent is the
parent plus a new vertex n attached to some subset of the old vertices.
Each isomorphism class of children is kept exactly once across the whole
run because (a) attachment subsets are tried once per orbit of the
parent's automorphism group and (b) a child is accepted only when its
new vertex lies in the child's canonical-deletion orbit.  Restricting
attachment subsets to independent sets confines the run to triangle-free
graphs, which is the workhorse for censuses of graphs with independence
number two (their complements).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from .canon import canon_raw
from .graph import MAX_VERTICES, Graph, bits, check_int

TRIANGLE_FREE = "triangle-free"
ALL_GRAPHS = "all"


# ===== attachment subsets =====

def _independent_masks(adj, avail: int, room: int) -> list[int]:
    # subsets of avail with at most room vertices, independent in adj
    # (every such subset when adj is all zeros), in depth-first order
    res: list[int] = []

    def rec(cur: int, avail: int, room: int) -> None:
        res.append(cur)
        if not room:
            return
        while avail:
            low = avail & -avail
            avail ^= low
            rec(cur | low, avail & ~adj[low.bit_length() - 1], room - 1)

    rec(0, avail, room)
    return res


def _apply_perm(perm, mask: int) -> int:
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= 1 << perm[low.bit_length() - 1]
    return out


def _mask_orbit_reps(masks, gens) -> list[int]:
    # smallest mask of each orbit under the group generated by gens; the
    # candidate family is closed under the group, so orbits stay inside it
    if not gens:
        return sorted(masks)
    seen: set[int] = set()
    reps = []
    for s in sorted(masks):
        if s in seen:
            continue
        reps.append(s)
        orb = {s}
        frontier = [s]
        while frontier:
            t = frontier.pop()
            for p in gens:
                u = _apply_perm(p, t)
                if u not in orb:
                    orb.add(u)
                    frontier.append(u)
        seen |= orb
    return reps


def _check_args(mode: str, max_degree: int | None = None,
                min_degree: int | None = None) -> None:
    if mode not in (ALL_GRAPHS, TRIANGLE_FREE):
        raise ValueError(f"unknown generation mode {mode!r}")
    if max_degree is not None:
        check_int("max_degree", max_degree, 0)
    if min_degree is not None:
        check_int("min_degree", min_degree, 0)


# ===== the canonical-extension acceptance rule =====

def _canonical_extension(n, adj, deg, below, s):
    """(adjacency, generators) of parent + vertex n attached to s, or None.

    The deletion vertex of a child is the one with the smallest (degree,
    sorted neighbour degrees) invariant that sits at the latest canonical
    position; the child is accepted iff the new vertex n shares its orbit.
    The test runs from cheap to costly.  deg holds the parent's degrees
    and below[d] the mask of parent vertices of degree < d.  The
    generators are those of Aut(child) when stage 4 labelled the child,
    None when an earlier stage decided.
    """
    t = s.bit_count()
    # 1. n must have the child's minimum degree t: no vertex outside s
    #    below t, none inside s below t - 1
    if t and (below[t] & ~s or below[t - 1] & s):
        return None
    # 2. compare neighbour-degree lists among the child's degree-t vertices
    child = [a | (s >> v & 1) << n for v, a in enumerate(adj)]
    child.append(s)
    cdeg = [d + (s >> v & 1) for v, d in enumerate(deg)]
    cdeg.append(t)
    mine = sorted(cdeg[u] for u in bits(s))
    peers = (below[t + 1] ^ below[t]) & ~s
    if t:
        peers |= (below[t] ^ below[t - 1]) & s
    ties = 0
    for v in bits(peers):
        theirs = sorted(cdeg[u] for u in bits(child[v]))
        if theirs < mine:
            return None
        if theirs == mine:
            ties |= 1 << v
    # 3. n alone attains the minimum invariant: it is the deletion vertex
    if not ties:
        return child, None
    # 4. the latest tied vertex in canonical order must share n's orbit
    order, _, gens, orbit = canon_raw(n + 1, child)
    ties |= 1 << n
    for v in reversed(order):
        if ties >> v & 1:
            return (child, gens) if orbit[v] == orbit[n] else None
    raise AssertionError("unreachable: n attains the minimum")


def child_graphs(parent: Graph, mode: str = ALL_GRAPHS,
                 max_degree: int | None = None,
                 min_degree: int | None = None) -> list[Graph]:
    """Accepted one-vertex extensions of parent, one per child class.

    With max_degree, only children of maximum degree <= max_degree are
    produced.  Since a parent is an induced subgraph of its children, a
    level-by-level run with the bound yields exactly the classes with
    maximum degree <= max_degree, in the order of the unbounded run.

    With min_degree, only children of minimum degree >= min_degree are
    produced: the new vertex gets at least min_degree neighbours, among
    them every parent vertex of degree min_degree - 1, and a parent with
    a vertex of lower degree has no such child.  Unlike the maximum
    degree, the minimum degree is not hereditary (a child of minimum
    degree 2 may have a parent with a leaf), so this bound can only
    filter the last step of a run.  Both bounds select attachment sets
    by degrees, a family closed under Aut(parent), so the children kept
    are exactly the unbounded step's children that meet the bounds, in
    the same order.

    A child that the canonicity test labelled carries the generators of
    its automorphism group as ``_gens``; expanding it then reads them
    instead of labelling it again.  ValueError on an unknown mode or a
    degree bound not an int >= 0.
    """
    _check_args(mode, max_degree, min_degree)
    n = parent.n
    adj = parent.adj
    deg = [a.bit_count() for a in adj]
    if min_degree is not None and any(d < min_degree - 1 for d in deg):
        return []
    below = [sum(1 << v for v, d in enumerate(deg) if d < e) for e in range(n + 2)]
    avail, room = (1 << n) - 1, n
    if max_degree is not None:
        # attach to at most max_degree vertices, none already at the bound
        avail, room = below[min(max_degree, n)], min(max_degree, n)
    if n:
        # stage 1 of _canonical_extension wants |S| = the child's minimum
        # degree <= min(deg) + 1; a size cap keeps the family Aut-closed
        room = min(room, min(deg) + 1)
    masks = _independent_masks(adj if mode == TRIANGLE_FREE else [0] * n,
                               avail, room)
    if min_degree is not None:
        need = sum(1 << v for v, d in enumerate(deg) if d < min_degree)
        masks = [s for s in masks if s & need == need and s.bit_count() >= min_degree]
    gens = parent._gens
    if gens is None:
        _, _, gens, _ = canon_raw(n, adj)
    out = []
    for s in _mask_orbit_reps(masks, gens):
        ext = _canonical_extension(n, adj, deg, below, s)
        if ext is not None:
            child = Graph._unchecked(n + 1, tuple(ext[0]))
            object.__setattr__(child, "_gens", ext[1])
            out.append(child)
    return out


# ===== order-n streams =====

def generate_graphs(n: int, mode: str = ALL_GRAPHS) -> Iterator[Graph]:
    """One representative per isomorphism class of order-n graphs.

    mode ALL_GRAPHS streams every class, TRIANGLE_FREE only the
    triangle-free ones, in a fixed order.  The arguments are checked at the
    call; each level is expanded a parent at a time, as the stream is read.
    """
    check_int("order", n, 1, MAX_VERTICES)
    _check_args(mode)
    level = iter([Graph(1, (0,))])
    for _ in range(n - 1):
        level = chain.from_iterable(child_graphs(p, mode) for p in level)
    return level
