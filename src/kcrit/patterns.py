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
decomposition is computable in one sweep and doubles as a recognition
algorithm; ``copaw_decompose`` returns None exactly on graphs that contain
an induced P3+P1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graph import (Graph, bits, complement, disjoint_union, from_edge_list,
                    induced_subgraph, mask_of)
from .invariants import independence_number  # for the perfbench span of that name
from .invariants import triangle_free_raw


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
    full = (1 << g.n) - 1
    adj = g.adj
    nadj = [full ^ row ^ 1 << v for v, row in enumerate(adj)]
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


def is_free(g: Graph, pattern: str | Graph) -> bool:
    """True iff g has no induced subgraph isomorphic to the pattern."""
    h = named_graph(pattern) if isinstance(pattern, str) else pattern
    return contains_induced(g, h) is None


def _has_independent_set(adj, avail: int, need: int) -> bool:
    if need <= 0:
        return True
    if avail.bit_count() < need:
        return False
    v = (avail & -avail).bit_length() - 1
    if _has_independent_set(adj, avail & ~adj[v] & ~(1 << v), need - 1):
        return True
    return _has_independent_set(adj, avail & ~(1 << v), need)


def is_p2_lp1_free(g: Graph, l: int) -> bool:
    """Specialized (P2+lP1)-freeness: for every edge uv, the vertices not
    touching {u,v} must contain no independent set of size l."""
    if l < 0:
        raise ValueError("l must be >= 0")
    full = (1 << g.n) - 1
    for u in range(g.n):
        for v in bits(g.adj[u] >> (u + 1) << (u + 1)):
            rest = full & ~g.adj[u] & ~g.adj[v] & ~(1 << u) & ~(1 << v)
            if _has_independent_set(g.adj, rest, l):
                return False
    return True


# ===== (P3+P1)-free join decomposition =====

@dataclass(frozen=True)
class JoinDecomposition:
    """Join factors of a (P3+P1)-free graph, as vertex masks plus kinds.

    kinds[i] is the subset of {"alpha_le_2", "union_of_cliques"} holding
    for factor i; both are recorded when both hold.
    """

    factors: tuple[int, ...]
    kinds: tuple[frozenset, ...]


def co_components(g: Graph) -> list[int]:
    """Vertex masks of the connected components of the complement."""
    full = (1 << g.n) - 1
    unseen = full
    comps = []
    while unseen:
        start = unseen & -unseen
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= full & ~g.adj[v] & ~(1 << v)
            frontier = nxt & unseen & ~comp
            comp |= frontier
        comps.append(comp)
        unseen &= ~comp
    return comps


def _is_union_of_cliques(h: Graph) -> bool:
    # components are cliques iff closed neighborhoods match across each edge
    closed = [h.adj[v] | 1 << v for v in range(h.n)]
    return all(closed[u] == closed[v] for u, v in h.edges())


def copaw_decompose(g: Graph):
    """The join decomposition, or None exactly when g contains P3+P1."""
    factors = []
    kinds = []
    for comp in co_components(g):
        sub = induced_subgraph(g, comp)
        kind = set()
        if triangle_free_raw(complement(sub).adj):      # alpha(sub) <= 2
            kind.add("alpha_le_2")
        if _is_union_of_cliques(sub):
            kind.add("union_of_cliques")
        if not kind:
            return None
        factors.append(comp)
        kinds.append(frozenset(kind))
    return JoinDecomposition(tuple(factors), tuple(kinds))


# ===== maximal independent sets and the nonneighbor profile =====

def maximal_independent_set(g: Graph, order=None) -> int:
    """Greedy maximal independent set (mask), taking vertices in the given
    order (default ascending)."""
    s = 0
    blocked = 0
    for v in (order if order is not None else range(g.n)):
        if not blocked >> v & 1:
            s |= 1 << v
            blocked |= g.adj[v] | 1 << v
    return s


def nonneighbor_profile(g: Graph, s) -> dict[int, int]:
    """For each vertex outside the maximal independent set s, how many
    vertices of s it is nonadjacent to."""
    smask = s if isinstance(s, int) else mask_of(s)
    size = smask.bit_count()
    for v in bits(smask):
        if g.adj[v] & smask:
            raise ValueError("s is not independent")
    profile = {}
    for v in range(g.n):
        if smask >> v & 1:
            continue
        hits = (g.adj[v] & smask).bit_count()
        if hits == 0:
            raise ValueError(f"s is not maximal: vertex {v} could join it")
        profile[v] = size - hits
    return profile
