"""Exact graph invariants: independence, clique, matching, chromatic number.

All routines are exact.  Sizes are capped at 31 vertices by the Graph type,
so branch and bound with bitmask state is always sufficient; the only
polynomial algorithm that matters for throughput is the blossom matching,
which the census and the criticality test call once per graph.  The same
alternating-forest search, grown from every exposed vertex at once, gives
the Gallai-Edmonds set D (the vertices some maximum matching leaves
exposed), which decides every vertex deletion in one pass.

``alpha_le_2_chi`` is the structural shortcut when alpha(G) <= 2, i.e. when
the complement is triangle-free: color classes then have at most two
vertices, so an optimal coloring pairs up nonadjacent vertices and
chi(G) = n - nu(complement(G)).  Its triangle test, ``triangle_free_raw``,
is the package's only one; the join decomposition runs it on each
factor.  Everything else goes through saturation-ordered branch and
bound with a greedy clique lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bits, complement


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
    # base of the lowest common even ancestor of even vertices a and b,
    # or -1 when they lie in different trees of the forest
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
        if match[b] == -1:
            return -1
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
                        roots: list) -> list | None:
    """Grow an alternating forest from the exposed ``roots``.

    Blossoms are contracted through base pointers.  Reaching an exposed
    vertex that is not a root closes an augmenting path: ``match`` is
    augmented along it and None returned.  Otherwise the result flags
    the even (outer) vertices, blossom members included.  An even-even
    edge between two trees (only possible with several roots) would
    close an augmenting path too; it raises ValueError.
    """
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    for r in roots:
        used[r] = True
    queue = list(roots)
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for to in bits(adj[v] & active):
            if base[v] == base[to] or match[v] == to:
                continue
            if used[to] if match[to] == -1 else p[match[to]] != -1:
                # to is even: an odd cycle, contracted at its lca
                cur = _lca(match, p, base, v, to)
                if cur == -1:
                    raise ValueError("matching is not maximum")
                in_blossom = [False] * n
                _mark_path(match, p, base, v, cur, to, in_blossom)
                _mark_path(match, p, base, to, cur, v, in_blossom)
                for u in verts:
                    if in_blossom[base[u]]:
                        base[u] = cur
                        if not used[u]:
                            used[u] = True
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
                used[match[to]] = True
                queue.append(match[to])
    return used


def matching_mates_raw(n: int, adj, active: int) -> list[int]:
    """Mate array of a maximum matching on the ``active`` mask (-1 exposed).

    Classic augmenting-path search from one exposed vertex at a time;
    O(V^3) worst case, microseconds at census sizes.
    """
    match = [-1] * n
    verts = list(bits(active))
    for v in verts:
        if match[v] == -1:
            _alternating_forest(n, adj, active, verts, match, [v])
    return match


def gallai_edmonds_d_raw(n: int, adj, active: int, mates) -> int:
    """Mask of D: the ``active`` vertices that some maximum matching leaves
    exposed.

    ``mates`` must be a maximum matching on ``active`` (as from
    ``matching_mates_raw``; it is not modified).  D is the set of even
    vertices of one alternating forest grown from every exposed vertex
    at once (Gallai-Edmonds), so v is in D iff nu(F - v) = nu(F).
    Raises ValueError when the matching is not maximum.
    """
    verts = list(bits(active))
    match = list(mates)
    used = _alternating_forest(n, adj, active, verts, match,
                               [v for v in verts if match[v] == -1])
    return sum(1 << v for v in verts if used[v])


def matching_raw(n: int, adj, active: int) -> int:
    """Maximum matching size on the vertices in the ``active`` mask."""
    mates = matching_mates_raw(n, adj, active)
    return sum(1 for v, m in enumerate(mates) if m > v)


# ===== colorings =====

@dataclass(frozen=True)
class Coloring:
    """A proper coloring witness: colors[v] in 0..k-1, all k classes used."""

    colors: tuple[int, ...]
    k: int


def is_proper_coloring(g: Graph, coloring: Coloring) -> bool:
    """Independent properness check used by certificate verification."""
    if len(coloring.colors) != g.n:
        return False
    if any(not 0 <= c < coloring.k for c in coloring.colors):
        return False
    if set(coloring.colors) != set(range(coloring.k)) and g.n > 0:
        return False
    if g.n == 0 and coloring.k != 0:
        return False
    return all(coloring.colors[i] != coloring.colors[j] for i, j in g.edges())


def _normalized(colors) -> Coloring:
    remap: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in remap:
            remap[c] = len(remap)
        out.append(remap[c])
    return Coloring(tuple(out), len(remap))


def _greedy_clique(n: int, adj) -> list[int]:
    order = sorted(range(n), key=lambda v: adj[v].bit_count(), reverse=True)
    clique: list[int] = []
    cmask = 0
    for v in order:
        if adj[v] & cmask == cmask:
            clique.append(v)
            cmask |= 1 << v
    return clique


def _dsatur_order_greedy(n: int, adj) -> list[int]:
    """Plain DSATUR greedy coloring; returns the color list."""
    colors = [-1] * n
    nmask = [0] * n
    degs = [adj[v].bit_count() for v in range(n)]
    for _ in range(n):
        v = max((u for u in range(n) if colors[u] == -1),
                key=lambda u: (nmask[u].bit_count(), degs[u], -u))
        c = 0
        while nmask[v] >> c & 1:
            c += 1
        colors[v] = c
        for u in bits(adj[v]):
            nmask[u] |= 1 << c
    return colors


def _bb_coloring(n: int, adj, bound: int, first_hit: bool):
    """Branch and bound for a proper coloring with fewer than ``bound``
    colors.  Returns the best (fewest-colors) coloring found, or None.
    With first_hit, returns the first full coloring found under the bound.

    Vertex choice: maximum saturation, then maximum degree, then lowest
    index — fixed so runs are reproducible.
    """
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
        limit = min(used + 1, best[0] if not first_hit else bound)
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
    if best[1] is None:
        return None
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


def alpha_le_2_chi(g: Graph):
    """(chi, complement adjacency, mates of a maximum matching of the
    complement, -1 exposed) when alpha(G) <= 2, else None."""
    co = complement(g).adj
    full = (1 << g.n) - 1
    if not triangle_free_raw(co, full):
        return None
    mates = matching_mates_raw(g.n, co, full)
    return (g.n + mates.count(-1)) // 2, co, mates


def _chi_branch_and_bound(g: Graph) -> int:
    """chi(G), exact, by DSATUR and then branch and bound below it; for
    callers that already know alpha(G) > 2."""
    greedy = _normalized(_dsatur_order_greedy(g.n, g.adj))
    better = _bb_coloring(g.n, g.adj, greedy.k, first_hit=False)
    return greedy.k if better is None else max(better) + 1


def chromatic_number(g: Graph) -> int:
    """chi(G), exact; alpha <= 2 fast path, else DSATUR branch and bound."""
    small = alpha_le_2_chi(g)
    return _chi_branch_and_bound(g) if small is None else small[0]


def is_k_colorable(g: Graph, k: int) -> Coloring | None:
    """A proper coloring with at most k classes, or None iff chi(G) > k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if g.n == 0:
        return Coloring((), 0)
    if k == 0:
        return None
    greedy = _normalized(_dsatur_order_greedy(g.n, g.adj))
    if greedy.k <= k:
        return greedy
    found = _bb_coloring(g.n, g.adj, k + 1, first_hit=True)
    return None if found is None else _normalized(found)
