"""Exact graph invariants: independence, clique, matching, chromatic number.

All routines are exact.  Sizes are capped at 31 vertices by the Graph type,
so branch and bound with bitmask state is always sufficient; the only
polynomial algorithm that matters for throughput is the blossom matching,
run once per graph by the criticality test.  The piece census runs it
once per parent P, for its exposed count e(P), D(P) and a maximum
matching, and reads each D(P - s) off an alternating search
(``alternating_forest``) from that matching.  One pass gives the
Gallai-Edmonds set D (the vertices some maximum matching leaves
exposed), the union of the failed searches' even sets, and so decides
every vertex deletion at once.

``chi_with_d`` is the one chromatic-number kernel.  When alpha(G) <= 2,
i.e. when the complement is triangle-free, color classes have at most
two vertices, so an optimal coloring pairs up nonadjacent vertices and
chi(G) = n - nu(complement(G)); one blossom pass then gives chi and D
together.  Otherwise chi is the least k that the one coloring search,
``_bb_coloring``, colors.  Its triangle test, ``triangle_free_raw``, is
the package's only one; the join decomposition runs it on each factor.
"""

from __future__ import annotations

from typing import NamedTuple

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
    # of one alternating tree; its root is exposed or matched outside it
    seen = 0
    while True:
        a = base[a]
        seen |= 1 << a
        if match[a] == -1 or p[match[a]] == -1:
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


def alternating_forest(n: int, adj, active: int, match: list, root: int) -> int | None:
    """Grow an alternating tree from ``root``, contracting blossoms through
    base pointers.  The root is exposed, or matched to a vertex outside
    ``active`` with ``match`` maximum on ``active``, so no path augments.
    Reaching another exposed vertex closes an augmenting path: ``match``
    is augmented along it and None returned.  Otherwise the result is the
    mask of the even (outer) vertices, blossom members included.
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
                for u in range(n):
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


def matching_raw(n: int, adj, active: int) -> tuple[list[int], int]:
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
        even = alternating_forest(n, adj, active, match, v)
        if even is None:
            free = sum(1 << u for u in bits(free) if match[u] == -1)
        else:
            d |= even
    return match, d


# ===== colorings =====

class Coloring(NamedTuple):
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
    # one mask per class: no vertex may have a neighbor in its own class
    classes = [0] * coloring.k
    for v, c in enumerate(coloring.colors):
        classes[c] |= 1 << v
    return not any(row & classes[c] for row, c in zip(g.adj, coloring.colors))


def _greedy_clique(n: int, adj) -> list[int]:
    order = sorted(range(n), key=lambda v: adj[v].bit_count(), reverse=True)
    clique: list[int] = []
    cmask = 0
    for v in order:
        if adj[v] & cmask == cmask:
            clique.append(v)
            cmask |= 1 << v
    return clique


def _bb_coloring(n: int, adj, bound: int):
    """The first proper coloring with fewer than ``bound`` colors that
    the search reaches, or None when there is none.

    The search precolors a greedy clique and then descends by DSATUR
    (Brelaz 1979): it colors the vertex of maximum saturation, then
    maximum degree, then lowest index (fixed so runs are reproducible),
    trying the lowest free color first, and backtracks only when a
    vertex has no color below the bound left.  Colors are 0..c-1 in
    order of first use.  A bound above n + 1 acts as n + 1, so its size
    costs nothing.  Saturation needs one mask per color, ``seen[c]``,
    the vertices with a neighbour colored c: coloring v with c saturates
    ``adj[v] & ~seen[c]``, and the undo that same set.
    """
    bound = min(bound, n + 1)
    clique = _greedy_clique(n, adj)
    if len(clique) >= bound:
        return None
    colors = [-1] * n
    seen = [0] * bound
    nmask = [0] * n
    degs = [adj[v].bit_count() for v in range(n)]

    # precolor the greedy clique: its vertices need pairwise distinct colors
    for c, v in enumerate(clique):
        colors[v] = c
        seen[c] = adj[v]
        for u in bits(adj[v]):
            nmask[u] |= 1 << c

    def rec(left: int, used: int) -> bool:
        if left == 0:
            return True
        v = -1
        key = None
        for u in range(n):
            if colors[u] == -1:
                k = (nmask[u].bit_count(), degs[u], -u)
                if key is None or k > key:
                    key = k
                    v = u
        for c in range(min(used + 1, bound - 1)):
            if nmask[v] >> c & 1:
                continue
            colors[v] = c
            old = seen[c]
            new = adj[v] & ~old
            seen[c] |= new
            for u in bits(new):
                nmask[u] |= 1 << c
            if rec(left - 1, max(used, c + 1)):
                return True
            colors[v] = -1
            seen[c] = old
            for u in bits(new):
                nmask[u] &= ~(1 << c)
        return False

    return colors if rec(n - len(clique), len(clique)) else None


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
    three; otherwise chi is the least k the coloring search colors,
    counting up from its greedy clique's size, and the rows and D are None.
    """
    co = complement(g).adj
    full = (1 << g.n) - 1
    if not triangle_free_raw(co, full):
        chi = len(_greedy_clique(g.n, g.adj))
        while _bb_coloring(g.n, g.adj, chi + 1) is None:
            chi += 1
        return chi, None, None
    mates, d = matching_raw(g.n, co, full)
    return (g.n + mates.count(-1)) // 2, co, d


def chromatic_number(g: Graph) -> int:
    """chi(G), exact; alpha <= 2 fast path, else the least k the coloring search colors."""
    return chi_with_d(g)[0]


def is_k_colorable(g: Graph, k: int) -> Coloring | None:
    """A proper coloring with at most k classes (k an int >= 0), or None iff chi(G) > k."""
    check_int("k", k, 0)
    found = _bb_coloring(g.n, g.adj, k + 1)
    return None if found is None else Coloring(tuple(found), len(set(found)))
