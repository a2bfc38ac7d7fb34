"""Exact graph invariants: independence, clique, matching, chromatic number.

All routines are exact.  Sizes are capped at 31 vertices by the Graph type,
so branch and bound with bitmask state is always sufficient; the only
polynomial algorithm that matters for throughput is the blossom matching,
which the census calls on every enumerated graph and every vertex-deleted
subgraph.

Chromatic number takes a structural shortcut when alpha(G) <= 2: color
classes then have at most two vertices, so an optimal coloring pairs up
nonadjacent vertices, i.e. chi(G) = n - nu(complement(G)).  Everything else
goes through saturation-ordered branch and bound with a greedy clique lower
bound.
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

def matching_mates_raw(n: int, adj, active: int) -> list[int]:
    """Mate array of a maximum matching on the ``active`` mask (-1 exposed).

    Classic augmenting-path search with blossom contraction via base
    pointers; O(V^3) worst case, microseconds at census sizes.
    """
    match = [-1] * n
    p = [-1] * n
    base = list(range(n))
    verts = list(bits(active))

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: list) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def try_augment(root: int) -> bool:
        for v in verts:
            p[v] = -1
            base[v] = v
        used = [False] * n
        used[root] = True
        queue = [root]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for to in bits(adj[v] & active):
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # odd cycle: contract the blossom at the stem lca
                    cur = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, cur, to, in_blossom)
                    mark_path(to, cur, v, in_blossom)
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
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in verts:
        if match[v] == -1:
            try_augment(v)
    return match


def matching_raw(n: int, adj, active: int) -> int:
    """Maximum matching size on the vertices in the ``active`` mask."""
    mates = matching_mates_raw(n, adj, active)
    return sum(1 for v, m in enumerate(mates) if m > v)


def max_matching(g: Graph) -> int:
    """nu(G): maximum matching size, exact."""
    return matching_raw(g.n, g.adj, (1 << g.n) - 1)


def max_matching_mates(g: Graph) -> tuple[int, ...]:
    """Mate per vertex under some maximum matching, -1 where exposed."""
    return tuple(matching_mates_raw(g.n, g.adj, (1 << g.n) - 1))


# ===== colorings =====

@dataclass(frozen=True)
class Coloring:
    """A proper coloring witness: colors[v] in 0..k-1, all k classes used."""

    colors: tuple[int, ...]
    k: int

    def classes(self) -> list[tuple[int, ...]]:
        out = [[] for _ in range(self.k)]
        for v, c in enumerate(self.colors):
            out[c].append(v)
        return [tuple(c) for c in out]


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


def chromatic_number(g: Graph, alpha: int | None = None) -> int:
    """chi(G), exact; alpha <= 2 fast path, else DSATUR branch and bound.

    alpha, when given, must be independence_number(g).
    """
    n = g.n
    if n == 0:
        return 0
    if alpha is None:
        alpha = independence_number(g)
    if alpha <= 2:
        co = complement(g)
        return n - matching_raw(n, co.adj, (1 << n) - 1)
    greedy = _normalized(_dsatur_order_greedy(n, g.adj))
    better = _bb_coloring(n, g.adj, greedy.k, first_hit=False)
    return greedy.k if better is None else max(better) + 1


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


def coloring_with_min_class_size(g: Graph, k: int, m: int) -> Coloring | None:
    """A proper k-coloring with every class of size >= m, or None.

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
