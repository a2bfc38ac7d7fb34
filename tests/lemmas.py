"""Checkers for the lemmas behind the paper's proofs, used only by tests.

Nothing in the package calls these: the census, the criticality test and
the certifier rest on the structure the lemmas establish, and the tests
(acceptance criteria 8-10 and their property tests) check the lemmas
themselves on concrete graphs.  Each checker names the criterion it
serves.
"""

from __future__ import annotations

from kcrit.critical import is_vertex_critical
from kcrit.graph import (MAX_VERTICES, Graph, bits, complement, delete_vertex, from_edge_list,
                         join, mask_of)
from kcrit.invariants import Coloring
from kcrit.patterns import _components


# ===== criterion 8: the nonneighbor bound on a maximal independent set =====

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
    """Criterion 8 (input side): (P2+lP1)-freeness, decided edge by edge.

    For every edge uv, the vertices not touching {u,v} must contain no
    independent set of size l.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    full = (1 << g.n) - 1
    for u in range(g.n):
        for v in bits(g.adj[u] >> (u + 1) << (u + 1)):
            rest = full & ~g.adj[u] & ~g.adj[v] & ~(1 << u) & ~(1 << v)
            if _has_independent_set(g.adj, rest, l):
                return False
    return True


def maximal_independent_set(g: Graph, order=None) -> int:
    """Criterion 8: greedy maximal independent set (mask), taking
    vertices in the given order (default ascending)."""
    s = 0
    blocked = 0
    for v in (order if order is not None else range(g.n)):
        if not blocked >> v & 1:
            s |= 1 << v
            blocked |= g.adj[v] | 1 << v
    return s


def nonneighbor_profile(g: Graph, s) -> dict[int, int]:
    """Criterion 8: for each vertex outside the maximal independent set
    s, how many vertices of s it is nonadjacent to.

    In a (P2+lP1)-free graph with alpha >= l + 1 every count is at most
    l - 1.
    """
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


# ===== criterion 9: (k-1)-colorings with every class of size >= 2 =====

def co_components(g: Graph) -> list[int]:
    """Criterion 9 (precondition): vertex masks of the connected
    components of the complement."""
    return _components(complement(g).adj)


def coloring_with_min_class_size(g: Graph, k: int, m: int) -> Coloring | None:
    """Criterion 9: a proper k-coloring with every class of size >= m,
    or None.

    Exhaustive backtracking with a class-deficit prune and first-use color
    symmetry breaking.
    """
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    n = g.n
    if n < k * m:
        return None
    adj = g.adj
    colors = [-1] * n
    size = [0] * k

    def rec(v: int, maxc: int, deficit: int) -> bool:
        if deficit > n - v:
            return False
        if v == n:
            return deficit == 0
        top = min(maxc + 1, k - 1)
        for c in range(top + 1):
            if any(colors[u] == c for u in bits(adj[v])):
                continue
            colors[v] = c
            size[c] += 1
            d = deficit - 1 if size[c] <= m else deficit
            if rec(v + 1, max(maxc, c), d):
                return True
            colors[v] = -1
            size[c] -= 1
        return False

    if rec(0, -1, k * m):
        return Coloring(tuple(colors), k)
    return None


def check_min_class_colorings(g: Graph, k: int) -> bool:
    """Criterion 9: for every vertex v, g - v has a (k-1)-coloring with
    all classes >= 2.

    Holds for every k-vertex-critical graph whose complement is
    connected; callers must ensure that precondition.  A False return
    signals a bug somewhere, so tests treat it as a hard failure.
    """
    rep = is_vertex_critical(g, k)
    if not rep.is_critical:
        raise ValueError("graph is not k-vertex-critical")
    if len(co_components(g)) != 1:
        raise ValueError("complement is not connected")
    return all(
        coloring_with_min_class_size(delete_vertex(g, v), k - 1, 2) is not None
        for v in range(g.n)
    )


# ===== criterion 10: criticality factors across a join =====

def verify_join_criticality(g: Graph, h: Graph, k1: int, k2: int) -> bool:
    """Criterion 10 on one instance: whether [g v h is
    (k1+k2)-vertex-critical] iff [g is k1-vertex-critical and h is
    k2-vertex-critical].  Expected True on every input."""
    parts = (
        is_vertex_critical(g, k1).is_critical
        and is_vertex_critical(h, k2).is_critical
    )
    whole = is_vertex_critical(join(g, h), k1 + k2).is_critical
    return parts == whole


# ===== the clique-substituted odd cycles of the family tests =====

def substitute_clique(g: Graph, v: int, q: int) -> Graph:
    """Replace vertex v of g by a clique of order q; the family tests
    check ``clique_substituted_odd_cycle`` against repeated substitution.

    Every clique vertex inherits v's neighborhood.  Vertex order of the
    result: g's vertices ascending with v removed, then the q clique
    vertices.
    """
    if not 0 <= v < g.n:
        raise ValueError("vertex out of range")
    if q < 1:
        raise ValueError("clique order must be at least 1")
    n = g.n - 1 + q
    if n > MAX_VERTICES:
        raise ValueError("result exceeds the vertex cap")
    old = [u for u in range(g.n) if u != v]
    pos = {u: i for i, u in enumerate(old)}
    edges = [(pos[a], pos[b]) for a, b in g.edges() if v not in (a, b)]
    base = g.n - 1
    for i in range(q):
        edges.extend((pos[u], base + i) for u in old if g.adj[u] >> v & 1)
        edges.extend((base + j, base + i) for j in range(i))
    return from_edge_list(n, edges)
