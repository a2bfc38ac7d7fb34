"""Exact graph invariants: independence, clique, matching, chromatic number.

All routines are exact.  Sizes are capped at 31 vertices by the Graph type,
so branch and bound with bitmask state is always sufficient; the only
polynomial algorithm that matters for throughput is the blossom matching,
which the census and the criticality test call once per graph.  The
same pass gives the Gallai-Edmonds set D (the vertices some maximum
matching leaves exposed): it is the union of the even vertices of the
searches that fail, and it decides every vertex deletion at once.

``chi_with_d`` is the one chromatic-number kernel.  When alpha(G) <= 2,
i.e. when the complement is triangle-free, color classes have at most
two vertices, so an optimal coloring pairs up nonadjacent vertices and
chi(G) = n - nu(complement(G)); one blossom pass then gives chi and D
together.  Otherwise chi comes from saturation-ordered branch and bound
with a greedy clique lower bound.  Its triangle test,
``triangle_free_raw``, is the package's only one; the join decomposition
runs it on each factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bits, check_int, complement


# ===== independence and clique =====

def _alpha_raw(n: int, adj, avail: int) -> int:
    best = 0
    stack = [(avail, 0)]
    while stack:
        cand, size = stack.pop()
        if size + cand.bit_count() <= best:
            continue
        if not cand:
            best = max(best, size)
            continue
        # pivot on the candidate with most candidate-neighbors
        v = max(bits(cand), key=lambda u: (adj[u] & cand).bit_count())
        stack.append((cand & ~(1 << v), size))
        stack.append((cand & ~adj[v] & ~(1 << v), size + 1))
    return best


def independence_number(g: Graph) -> int:
    """alpha(G), exact, branch and bound over bit masks."""
    return _alpha_raw(g.n, g.adj, (1 << g.n) - 1)


def clique_number(g: Graph) -> int:
    """omega(G) = alpha of the complement."""
    return independence_number(complement(g))


# ===== maximum matching (blossom) =====

def _lca(match, p, base, a: int, b: int) -> int:
    # base of the lowest common even ancestor of even vertices a and b
    # of one alternating tree
    seen = 0
    while True:
        a = base[a]
        seen |= 1 << a
        if match[a] == -1:
            break
        a = p[match[a]]
    while True:
        b = base[b]
        if seen >> b & 1:
            return b
        b = p[match[b]]


def _mark_path(match, p, base, v: int, b: int, child: int, in_blossom: list) -> None:
    # walk from v up to the blossom base b, flagging the bases on the way
    # and pointing the even vertices' parents back into the blossom
    while base[v] != b:
        in_blossom[base[v]] = True
        in_blossom[base[match[v]]] = True
        p[v] = child
        child = match[v]
        v = p[match[v]]


def _alternating_forest(n: int, adj, active: int, verts: list, match: list,
                        root: int) -> int | None:
    """Grow an alternating tree from the exposed ``root``.

    Blossoms are contracted through base pointers.  Reaching another
    exposed vertex closes an augmenting path: ``match`` is augmented
    along it and None returned.  Otherwise the result is the mask of the
    even (outer) vertices, blossom members included.
    """
    p = [-1] * n
    base = list(range(n))
    even = 1 << root
    queue = [root]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for to in bits(adj[v] & active):
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or match[to] != -1 and p[match[to]] != -1:
                # to is even: an odd cycle, contracted at its lca
                cur = _lca(match, p, base, v, to)
                in_blossom = [False] * n
                _mark_path(match, p, base, v, cur, to, in_blossom)
                _mark_path(match, p, base, to, cur, v, in_blossom)
                for u in verts:
                    if in_blossom[base[u]]:
                        base[u] = cur
                        if not even >> u & 1:
                            even |= 1 << u
                            queue.append(u)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    # augment along the parent chain
                    w = to
                    while w != -1:
                        pw = p[w]
                        nxt = match[pw]
                        match[w] = pw
                        match[pw] = w
                        w = nxt
                    return None
                even |= 1 << match[to]
                queue.append(match[to])
    return even


def gallai_edmonds_raw(n: int, adj, active: int) -> tuple[list[int], int]:
    """(mates, D) on the ``active`` mask: a maximum matching (-1 exposed)
    and the mask of D, the vertices v some maximum matching leaves
    exposed, i.e. with nu(F - v) = nu(F).

    One search per exposed vertex, in ascending order; a vertex with an
    exposed neighbour takes the lowest, as its search would.  No later
    augmenting path enters a failed search's tree (Edmonds 1965), so D
    is the union of the failed searches' even vertices.
    """
    match = [-1] * n
    verts = list(bits(active))
    free = active
    d = 0
    for v in verts:
        if not free >> v & 1:
            continue
        near = adj[v] & free
        if near:
            u = (near & -near).bit_length() - 1
            match[v] = u
            match[u] = v
            free ^= 1 << v | 1 << u
            continue
        even = _alternating_forest(n, adj, active, verts, match, v)
        if even is None:
            free = sum(1 << u for u in bits(free) if match[u] == -1)
        else:
            d |= even
    return match, d


def matching_raw(n: int, adj, active: int) -> int:
    """Maximum matching size on the vertices in the ``active`` mask."""
    mates = gallai_edmonds_raw(n, adj, active)[0]
    return sum(1 for v, m in enumerate(mates) if m > v)


# ===== colorings =====

@dataclass(frozen=True)
class Coloring:
    """A proper coloring witness: colors[v] in 0..k-1, all k classes used."""

    colors: tuple[int, ...]
    k: int


def is_proper_coloring(g: Graph, coloring: Coloring) -> bool:
    """Independent properness check used by certificate verification;
    False unless colors is a tuple of ints and k an int (a bool is not)."""
    if (type(coloring.k) is not int or type(coloring.colors) is not tuple
            or any(type(c) is not int for c in coloring.colors)):
        return False
    if len(coloring.colors) != g.n:
        return False
    if any(not 0 <= c < coloring.k for c in coloring.colors):
        return False
    if len(set(coloring.colors)) != coloring.k:  # every class used
        return False
    return all(coloring.colors[i] != coloring.colors[j] for i, j in g.edges())


def _greedy_clique(n: int, adj) -> list[int]:
    order = sorted(range(n), key=lambda v: adj[v].bit_count(), reverse=True)
    clique: list[int] = []
    cmask = 0
    for v in order:
        if adj[v] & cmask == cmask:
            clique.append(v)
            cmask |= 1 << v
    return clique


def _bb_coloring(n: int, adj, bound: int, first_hit: bool):
    """Branch and bound for a proper coloring with fewer than ``bound``
    colors, or None when there is none.

    The search precolors a greedy clique and then descends by DSATUR
    (Brelaz 1979): it colors the vertex of maximum saturation, then
    maximum degree, then lowest index (fixed so runs are reproducible),
    trying the lowest free color first.  Each complete coloring lowers
    the bound to its count, and the search backtracks to find one with
    fewer colors; it returns the last, which uses chi colors.  With
    first_hit it returns the first complete coloring instead.  Colors
    are 0..c-1 in order of first use.  A bound above n + 1 acts as
    n + 1, so its size costs nothing.
    """
    bound = min(bound, n + 1)
    clique = _greedy_clique(n, adj)
    if len(clique) >= bound:
        return None
    colors = [-1] * n
    cnt = [[0] * (bound + 1) for _ in range(n)]
    nmask = [0] * n
    degs = [adj[v].bit_count() for v in range(n)]
    best: list = [bound, None]

    # precolor the greedy clique: its vertices need pairwise distinct colors
    for c, v in enumerate(clique):
        colors[v] = c
        for u in bits(adj[v]):
            cnt[u][c] += 1
            nmask[u] |= 1 << c

    uncolored = [v for v in range(n) if colors[v] == -1]

    def rec(left: int, used: int) -> bool:
        if used >= best[0]:
            return False
        if left == 0:
            best[0] = used
            best[1] = list(colors)
            return first_hit
        v = -1
        key = None
        for u in range(n):
            if colors[u] == -1:
                k = (nmask[u].bit_count(), degs[u], -u)
                if key is None or k > key:
                    key = k
                    v = u
        limit = min(used + 1, best[0])
        for c in range(limit):
            if nmask[v] >> c & 1:
                continue
            colors[v] = c
            for u in bits(adj[v]):
                cnt[u][c] += 1
                if cnt[u][c] == 1:
                    nmask[u] |= 1 << c
            done = rec(left - 1, max(used, c + 1))
            colors[v] = -1
            for u in bits(adj[v]):
                cnt[u][c] -= 1
                if cnt[u][c] == 0:
                    nmask[u] &= ~(1 << c)
            if done:
                return True
        return False

    rec(len(uncolored), len(clique))
    return best[1]


def triangle_free_raw(adj, active: int) -> bool:
    """True iff no triangle lies on the ``active`` vertices, whose rows
    ``adj`` stay inside ``active``."""
    for v in bits(active):
        row = adj[v]
        later = row >> v << v
        while later:
            low = later & -later
            if row & adj[low.bit_length() - 1]:
                return False
            later ^= low
    return True


def chi_with_d(g: Graph):
    """(chi(G), complement rows, Gallai-Edmonds set D of the complement).

    When alpha(G) <= 2 one triangle test and one blossom pass give all
    three; otherwise chi comes from DSATUR branch and bound, and the
    rows and D are None.
    """
    co = complement(g).adj
    full = (1 << g.n) - 1
    if not triangle_free_raw(co, full):
        chi = max(_bb_coloring(g.n, g.adj, g.n + 1, first_hit=False)) + 1
        return chi, None, None
    mates, d = gallai_edmonds_raw(g.n, co, full)
    return (g.n + mates.count(-1)) // 2, co, d


def chromatic_number(g: Graph) -> int:
    """chi(G), exact; alpha <= 2 fast path, else DSATUR branch and bound."""
    return chi_with_d(g)[0]


def is_k_colorable(g: Graph, k: int) -> Coloring | None:
    """A proper coloring with at most k classes (k an int >= 0), or None iff chi(G) > k."""
    check_int("k", k, 0)
    found = _bb_coloring(g.n, g.adj, k + 1, first_hit=True)
    return None if found is None else Coloring(tuple(found), len(set(found)))
