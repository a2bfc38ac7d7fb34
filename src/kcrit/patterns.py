"""Named small graphs, induced-subgraph detection, and the join
decomposition of (P3+P1)-free graphs.

Pattern names are plain strings parsed case-insensitively: "K4", "co-K4",
"P5", "C7", "diamond", "paw", "claw", "2K2", "P3+P1", "K3+P1", and
"P2+lP1" for any l (e.g. "P2+2P1").  A "co-" prefix complements any
parseable name.

The structural fact driving this module: a graph is (P3+P1)-free exactly
when it is the join of factors that each have independence number at most
two or are disjoint unions of cliques.  The join factors of a graph are
induced on the connected components of its complement, so the
decomposition is computable in one sweep over raw adjacency masks and
doubles as the recognition algorithm: ``copaw_decompose`` returns None
exactly on graphs that contain an induced P3+P1, and ``is_free`` decides
P3+P1 that way instead of searching for an embedding.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .graph import (Graph, _complement_rows, check_int, check_order, complement,
                    from_edge_list)
from .invariants import (
    independence_number,  # for the perfbench span of that name
    triangle_free_raw,
)


# ===== named graphs =====

def _path(t: int) -> Graph:
    return from_edge_list(t, [(i, i + 1) for i in range(t - 1)])


def _cycle(t: int) -> Graph:
    return from_edge_list(t, [(i, (i + 1) % t) for i in range(t)])


def _complete(t: int) -> Graph:
    return from_edge_list(t, [(i, j) for i in range(t) for j in range(i + 1, t)])


def p2_lp1(l: int) -> Graph:
    """One edge plus l isolated vertices (order l + 2); l an int >= 0."""
    check_int("l", l, 0)
    return from_edge_list(l + 2, [(0, 1)])


_FIXED = {
    "diamond": lambda: from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "paw": lambda: from_edge_list(4, [(0, 1), (0, 2), (1, 2), (0, 3)]),
    "claw": lambda: from_edge_list(4, [(0, 1), (0, 2), (0, 3)]),
    "2k2": lambda: from_edge_list(4, [(0, 1), (2, 3)]),
    "p3+p1": lambda: from_edge_list(4, [(0, 1), (1, 2)]),
    "k3+p1": lambda: from_edge_list(4, [(0, 1), (0, 2), (1, 2)]),
}


def named_graph(name: str) -> Graph:
    """Build the graph for a pattern name; raises ValueError on a bad name
    or, before building anything, on an order above MAX_VERTICES."""
    if not isinstance(name, str):
        raise ValueError(f"pattern name must be a str, got {name!r}")
    g = _parse_name(name.strip().lower().replace(" ", "").replace("_", ""))
    if g is None:
        raise ValueError(f"unknown pattern name {name!r}")
    return g


def as_pattern(pattern: str | Graph) -> Graph:
    """The graph of a pattern name or Graph; ValueError on anything else."""
    if isinstance(pattern, str):
        return named_graph(pattern)
    if not isinstance(pattern, Graph):
        raise ValueError(f"pattern must be a name or a Graph, got {pattern!r}")
    return pattern


def _parse_name(s: str) -> Graph | None:
    # the graph a normalized pattern name spells, or None for no name
    if s.replace("+", "") == "p3p1":    # "p3p1" spells P3+P1 too
        s = "p3+p1"
    if s in _FIXED:
        return _FIXED[s]()
    if s.startswith("co"):
        base = _parse_name(s[3:] if s.startswith("co-") else s[2:])
        if base is not None:
            return complement(base)
    m = re.fullmatch(r"p2\+(\d*)p1", s, re.ASCII)
    if m:
        return p2_lp1(int(m.group(1)) if m.group(1) else 1)
    m = re.fullmatch(r"([kpc])(\d+)", s, re.ASCII)
    if m:
        kind, t = m.group(1), check_order(int(m.group(2)))
        if kind == "k" and t >= 1:
            return _complete(t)
        if kind == "p" and t >= 1:
            return _path(t)
        if kind == "c" and t >= 3:
            return _cycle(t)
    return None


# the 11 unlabeled graphs on 4 vertices
ORDER4_NAMES = ("K4", "co-K4", "diamond", "P2+2P1", "paw", "P3+P1",
                "claw", "K3+P1", "2K2", "C4", "P4")


# ===== induced-subgraph detection =====

def contains_induced(g: Graph, h: Graph):
    """An injective map phi with uv in E(h) iff phi(u)phi(v) in E(g), or None.

    Backtracking over candidate bitmasks: pattern vertex u may go to any
    host vertex v with deg_h(u) <= deg_g(v) <= deg_h(u) + g.n - h.n (its
    neighbours and its non-neighbours both map injectively) that is
    adjacent to phi(i) exactly when u is adjacent to i, for every i < u.
    An empty degree window answers None before any search.  Pattern
    vertices are placed in the order 0..h.n-1 and each domain is tried
    lowest host vertex first, so the result is the lexicographically
    first embedding; the window only cuts branches that hold none.  Used
    for patterns of any size, from P3+P1 to the critical graphs of up to
    11 vertices that the certifier scans for.
    """
    if h.n > g.n:
        return None
    if h.n == 0:
        return ()
    adj = g.adj
    nadj = _complement_rows(g.n, adj)
    # at_least[d]: the host vertices of degree >= d
    at_least = [0] * (g.n + 1)
    for v, row in enumerate(adj):
        at_least[row.bit_count()] |= 1 << v
    for d in range(g.n - 1, 0, -1):
        at_least[d - 1] |= at_least[d]
    slack = g.n - h.n
    deg_ok = []
    for hrow in h.adj:
        d = hrow.bit_count()
        dom = at_least[d] & ~at_least[d + slack + 1]
        if not dom:
            return None
        deg_ok.append(dom)
    last = h.n - 1
    phi = [0] * h.n

    def rec(u: int, dom: int) -> bool:
        # dom is not empty; the last vertex takes its lowest host vertex
        if u == last:
            phi[u] = (dom & -dom).bit_length() - 1
            return True
        # the hosts phi(0..u-1) leave pattern vertex u + 1, whatever phi(u)
        hrow = h.adj[u + 1]
        fixed = deg_ok[u + 1]
        for i in range(u):
            fixed &= adj[phi[i]] if hrow >> i & 1 else nadj[phi[i]]
        # neither adj[w] nor nadj[w] contains w, so used vertices drop out
        rows = adj if hrow >> u & 1 else nadj
        while fixed and dom:
            low = dom & -dom
            phi[u] = low.bit_length() - 1
            nxt = fixed & rows[phi[u]]
            if nxt and rec(u + 1, nxt):
                return True
            dom ^= low
        return False

    return tuple(phi) if rec(0, deg_ok[0]) else None


def is_p3p1(h: Graph) -> bool:
    """True iff h is P3+P1 under some labelling: the only graph on four
    vertices with degrees 0, 1, 1, 2."""
    return h.n == 4 and sorted(map(int.bit_count, h.adj)) == [0, 1, 1, 2]


def is_free(g: Graph, pattern: str | Graph) -> bool:
    """True iff g has no induced subgraph isomorphic to the pattern.

    P3+P1 is decided by the join decomposition (``copaw_decompose``);
    every other pattern by ``contains_induced``.
    """
    h = as_pattern(pattern)
    if is_p3p1(h):
        return copaw_decompose(g) is not None
    return contains_induced(g, h) is None


# ===== (P3+P1)-free join decomposition =====

class JoinDecomposition(NamedTuple):
    """Join factors of a (P3+P1)-free graph, as vertex masks plus flags.

    alpha_le_2[i] is True when factor i has independence number at most
    two; a factor flagged False is a disjoint union of cliques.  co holds
    the complement's adjacency rows, which the decomposition is built
    from.
    """

    factors: tuple[int, ...]
    alpha_le_2: tuple[bool, ...]
    co: tuple[int, ...]


def _components(rows) -> list[int]:
    # vertex masks of the connected components of the graph with
    # adjacency rows ``rows``, in order of their lowest vertex
    unseen = (1 << len(rows)) - 1
    comps = []
    while unseen:
        comp = todo = unseen & -unseen
        while todo:
            low = todo & -todo
            new = rows[low.bit_length() - 1] & ~comp
            comp |= new
            todo ^= low | new
        comps.append(comp)
        unseen ^= comp
    return comps


def _union_of_cliques_on(adj, mask: int) -> bool:
    # the closed neighborhood of each vertex within ``mask`` is a clique
    # whose members all have that same closed neighborhood
    rest = mask
    while rest:
        low = rest & -rest
        clique = (adj[low.bit_length() - 1] | low) & mask
        rest ^= clique
        members = clique
        while members:
            low = members & -members
            if (adj[low.bit_length() - 1] | low) & mask != clique:
                return False
            members ^= low
    return True


def copaw_decompose(g: Graph):
    """The join decomposition, or None exactly when g contains P3+P1,
    found at the first factor with alpha > 2 that is not a union of
    cliques.

    Works on raw masks: a co-component is closed under complement
    adjacency, so the complement rows of its vertices are the rows of the
    factor's complement, and the triangle test (alpha <= 2) reads them
    directly.  Only a factor that fails it gets the union-of-cliques test.
    """
    co = _complement_rows(g.n, g.adj)
    factors = []
    alpha_le_2 = []
    for comp in _components(co):
        small = triangle_free_raw(co, comp)
        if not small and not _union_of_cliques_on(g.adj, comp):
            return None
        factors.append(comp)
        alpha_le_2.append(small)
    return JoinDecomposition(tuple(factors), tuple(alpha_le_2), co)
