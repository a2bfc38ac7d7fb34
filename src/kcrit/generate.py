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

from .canon import _refine, canon_raw
from .graph import MAX_VERTICES, Graph, bits, check_int, check_order

TRIANGLE_FREE = "triangle-free"
ALL_GRAPHS = "all"


# ===== attachment subsets =====

def _independent_masks(adj, room: int) -> list[int]:
    # sets of at most room vertices, independent in adj (every such set
    # when adj is all zeros), in depth-first order
    res: list[int] = []

    def rec(cur: int, avail: int, room: int) -> None:
        res.append(cur)
        if not room:
            return
        while avail:
            low = avail & -avail
            avail ^= low
            rec(cur | low, avail & ~adj[low.bit_length() - 1], room - 1)

    rec(0, (1 << len(adj)) - 1, room)
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


def _check_args(mode: str) -> None:
    if mode not in (ALL_GRAPHS, TRIANGLE_FREE):
        raise ValueError(f"unknown generation mode {mode!r}")


# ===== the canonical-extension acceptance rule =====

def _canonical_extension(n, adj, deg, eq, s):
    """(adjacency, generators) of parent + vertex n attached to s, or None.

    The deletion vertex of a child is the one with the smallest (degree,
    sorted neighbour degrees) invariant that sits at the latest canonical
    position; the child is accepted iff the new vertex n shares its orbit.
    s gives n the child's minimum degree t = |s| (child_graphs keeps no
    other set).  deg holds the parent's degrees and eq[d] the mask of
    parent vertices of degree d.

    Stage 3 decides on the child's root cells (its equitable refinement
    of the unit partition) when it can: every leaf order of the search
    keeps each cell in its place and orbits lie inside cells, so the
    latest tied vertex lies in the last cell holding a tied vertex.  n
    not in that cell rejects, the cell {n} accepts, and only otherwise
    does a search from those cells label the child.  The generators are
    those of Aut(child) when a search labelled it, else None.
    """
    t = s.bit_count()
    # 1. compare neighbour-degree lists among the child's degree-t vertices
    child = [a | (s >> v & 1) << n for v, a in enumerate(adj)]
    child.append(s)
    cdeg = [d + (s >> v & 1) for v, d in enumerate(deg)]
    cdeg.append(t)
    mine = sorted(cdeg[u] for u in bits(s))
    peers = eq[t] & ~s
    if t:
        peers |= eq[t - 1] & s
    ties = 0
    for v in bits(peers):
        theirs = sorted(cdeg[u] for u in bits(child[v]))
        if theirs < mine:
            return None
        if theirs == mine:
            ties |= 1 << v
    # 2. n alone attains the minimum invariant: it is the deletion vertex
    if not ties:
        return child, None
    # 3. the latest tied vertex in canonical order must share n's orbit;
    # it lies in the last root cell that holds a tied vertex
    ties |= 1 << n
    cells = _refine(child, [(1 << n + 1) - 1])
    last = next(c for c in reversed(cells) if c & ties)
    if not last >> n & 1:
        return None
    if last == 1 << n:
        return child, None
    order, _, gens, orbit = canon_raw(n + 1, child, cells)
    v = next(v for v in reversed(order) if ties >> v & 1)
    return (child, gens) if orbit[v] == orbit[n] else None


def child_graphs(parent: Graph, mode: str = ALL_GRAPHS, admit=None) -> list[Graph]:
    """Accepted one-vertex extensions of parent, one per child class.

    With admit, a predicate on attachment masks (bit v set when the new
    vertex is joined to parent vertex v), only the children whose mask
    it accepts are produced.  The masks are filtered before their orbit
    representatives are taken, so admit must give the same answer on
    masks that an automorphism of parent maps onto each other; the
    children kept are then exactly the unfiltered step's children that
    admit accepts, in the same order.  A rule on degrees is such a
    predicate, as is any rule read off invariants of parent.

    The new vertex must have the child's minimum degree |S|: S holds at
    most m = min(deg) vertices (0 if parent is empty), or m + 1 holding
    every vertex of degree m.  Like admit, the rule drops whole orbits
    before the orbit step; a parent with no set left is not labelled.

    A child that the canonicity test labelled carries the generators of
    its automorphism group as ``_gens``; expanding it then reads them
    instead of labelling it again.  ValueError on an unknown mode, an
    admit that is not callable, or a parent of order MAX_VERTICES.
    """
    _check_args(mode)
    check_order(parent.n + 1)       # the children's order
    if admit is not None and not callable(admit):
        raise ValueError(f"admit must be callable, got {admit!r}")
    n = parent.n
    adj = parent.adj
    deg = [a.bit_count() for a in adj]
    m = min(deg, default=0)
    eq = [sum(1 << v for v, d in enumerate(deg) if d == e) for e in range(m + 2)]
    masks = [s for s in _independent_masks(adj if mode == TRIANGLE_FREE else [0] * n, m + 1)
             if s.bit_count() <= m or s & eq[m] == eq[m]]
    if admit is not None:
        masks = [s for s in masks if admit(s)]
    if not masks:
        return []
    gens = parent._gens
    if gens is None:
        _, _, gens, _ = canon_raw(n, adj)
    out = []
    for s in _mask_orbit_reps(masks, gens):
        ext = _canonical_extension(n, adj, deg, eq, s)
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
    level = iter([Graph(0, ())])
    for _ in range(n):
        level = chain.from_iterable(child_graphs(p, mode) for p in level)
    return level
