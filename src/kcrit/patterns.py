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
from dataclasses import dataclass

from .graph import Graph, bits, complement, disjoint_union, from_edge_list
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
    """One edge plus l isolated vertices (order l + 2)."""
    if l < 0:
        raise ValueError("l must be >= 0")
    return disjoint_union(_path(2), Graph(l, (0,) * l))


_FIXED = {
    "diamond": lambda: from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "paw": lambda: from_edge_list(4, [(0, 1), (0, 2), (1, 2), (0, 3)]),
    "claw": lambda: from_edge_list(4, [(0, 1), (0, 2), (0, 3)]),
    "2k2": lambda: from_edge_list(4, [(0, 1), (2, 3)]),
    "p3+p1": lambda: from_edge_list(4, [(0, 1), (1, 2)]),
    "k3+p1": lambda: from_edge_list(4, [(0, 1), (0, 2), (1, 2)]),
}


def named_graph(name: str) -> Graph:
    """Build the graph for a pattern name; raises ValueError on bad names."""
    s = name.strip().lower().replace(" ", "").replace("_", "")
    if s.replace("+", "") == "p3p1":    # "p3p1" spells P3+P1 too
        s = "p3+p1"
    if s in _FIXED:
        return _FIXED[s]()
    if s.startswith("co-") or s.startswith("co"):
        base = s[3:] if s.startswith("co-") else s[2:]
        try:
            return complement(named_graph(base))
        except ValueError:
            pass  # not a co- form after all (e.g. nothing sensible follows)
    m = re.fullmatch(r"p2\+(\d*)p1", s)
    if m:
        return p2_lp1(int(m.group(1)) if m.group(1) else 1)
    m = re.fullmatch(r"([kpc])(\d+)", s)
    if m:
        kind, t = m.group(1), int(m.group(2))
        if kind == "k" and t >= 1:
            return _complete(t)
        if kind == "p" and t >= 1:
            return _path(t)
        if kind == "c" and t >= 3:
            return _cycle(t)
    raise ValueError(f"unknown pattern name {name!r}")


# the 11 unlabeled graphs on 4 vertices
ORDER4_NAMES = ("K4", "co-K4", "diamond", "P2+2P1", "paw", "P3+P1",
                "claw", "K3+P1", "2K2", "C4", "P4")


# ===== induced-subgraph detection =====

def contains_induced(g: Graph, h: Graph):
    """An injective map phi with uv in E(h) iff phi(u)phi(v) in E(g), or None.

    Backtracking over candidate bitmasks: pattern vertex u may go to any
    host vertex of degree >= deg_h(u) that is adjacent to phi(i) exactly
    when u is adjacent to i, for every i < u.  Pattern vertices are placed
    in the order 0..h.n-1 and each domain is tried lowest host vertex
    first, so the result is the lexicographically first embedding.  Used
    for patterns of any size, from P3+P1 to the critical graphs of up to
    11 vertices that the certifier scans for.
    """
    if h.n > g.n:
        return None
    if h.n == 0:
        return ()
    adj = g.adj
    nadj = complement(g).adj
    gdeg = [row.bit_count() for row in adj]
    deg_ok = []
    for hrow in h.adj:
        d = hrow.bit_count()
        deg_ok.append(sum(1 << v for v in range(g.n) if gdeg[v] >= d))
    last = h.n - 1
    phi = [0] * h.n

    def rec(u: int, dom: int) -> bool:
        hrow = h.adj[u + 1] if u < last else 0
        while dom:
            low = dom & -dom
            phi[u] = low.bit_length() - 1
            if u == last:
                return True
            # neither adj[w] nor nadj[w] contains w, so used vertices drop out
            nxt = deg_ok[u + 1]
            for i in range(u + 1):
                nxt &= adj[phi[i]] if hrow >> i & 1 else nadj[phi[i]]
            if nxt and rec(u + 1, nxt):
                return True
            dom ^= low
        return False

    return tuple(phi) if rec(0, deg_ok[0]) else None


def is_p3p1(h: Graph) -> bool:
    """True iff h is P3+P1 under some labelling: the only graph on four
    vertices with degrees 0, 1, 1, 2."""
    return h.n == 4 and sorted(row.bit_count() for row in h.adj) == [0, 1, 1, 2]


def is_free(g: Graph, pattern: str | Graph) -> bool:
    """True iff g has no induced subgraph isomorphic to the pattern.

    P3+P1 is decided by the join decomposition (``copaw_decompose``);
    every other pattern by ``contains_induced``.
    """
    h = named_graph(pattern) if isinstance(pattern, str) else pattern
    if is_p3p1(h):
        return copaw_decompose(g) is not None
    return contains_induced(g, h) is None


# ===== (P3+P1)-free join decomposition =====

@dataclass(frozen=True)
class JoinDecomposition:
    """Join factors of a (P3+P1)-free graph, as vertex masks plus kinds.

    kinds[i] is the subset of {"alpha_le_2", "union_of_cliques"} holding
    for factor i; both are recorded when both hold.  co holds the
    complement's adjacency rows, which the decomposition is built from.
    """

    factors: tuple[int, ...]
    kinds: tuple[frozenset, ...]
    co: tuple[int, ...]


def _components(rows) -> list[int]:
    # vertex masks of the connected components of the graph with
    # adjacency rows ``rows``, in order of their lowest vertex
    unseen = (1 << len(rows)) - 1
    comps = []
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= rows[v]
            frontier = nxt & ~comp
            comp |= frontier
        comps.append(comp)
        unseen ^= comp
    return comps


_ALPHA_LE_2 = frozenset({"alpha_le_2"})
_CLIQUES = frozenset({"union_of_cliques"})
_BOTH = _ALPHA_LE_2 | _CLIQUES


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
    found at the first factor that has neither kind.

    Works on raw masks: a co-component is closed under complement
    adjacency, so the complement rows of its vertices are the rows of the
    factor's complement, and the triangle test (alpha <= 2) reads them
    directly.
    """
    co = complement(g).adj
    factors = []
    kinds = []
    for comp in _components(co):
        cliques = _union_of_cliques_on(g.adj, comp)
        if triangle_free_raw(co, comp):
            kinds.append(_BOTH if cliques else _ALPHA_LE_2)
        elif cliques:
            kinds.append(_CLIQUES)
        else:
            return None
        factors.append(comp)
    return JoinDecomposition(tuple(factors), tuple(kinds), co)
