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

``chi_raw`` is the one chromatic-number kernel, on a vertex mask and
the complement rows its caller built.  When alpha(G) <= 2, i.e. when
the complement is triangle-free, color classes have at most two
vertices, so an optimal coloring pairs up nonadjacent vertices and
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
        nbrs = adj[v] & active
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            to = low.bit_length() - 1
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


def _matching(n: int, adj, active: int, with_d: bool) -> tuple[list[int], int]:
    # matching_raw's loop; without with_d it skips every search that can
    # only fail, and its D is partial
    match = [-1] * n
    free = active
    d = 0
    rest = active
    while rest:
        low = rest & -rest
        rest ^= low
        if not free & low:
            continue
        v = low.bit_length() - 1
        near = adj[v] & free
        if near:
            near &= -near
            u = near.bit_length() - 1
            match[v] = u
            match[u] = v
            free ^= low | near
            continue
        if not adj[v] & active:
            d |= low                    # isolated: its tree is v alone
            continue
        if not with_d and not free & rest:
            continue                    # no exposed vertex left to reach
        even = alternating_forest(n, adj, active, match, v)
        if even is None:
            scan = free
            while scan:
                b = scan & -scan
                scan ^= b
                if match[b.bit_length() - 1] != -1:
                    free ^= b
        else:
            d |= even
    return match, d


def matching_raw(n: int, adj, active: int) -> tuple[list[int], int]:
    """(mates, D) on the ``active`` mask: a maximum matching (-1 exposed)
    and the mask of D, the vertices v some maximum matching leaves
    exposed, i.e. with nu(F - v) = nu(F).

    One search per exposed vertex, in ascending order; a vertex with an
    exposed neighbour takes the lowest, as its search would, and one
    with no neighbour in the mask is its own tree.  No later augmenting
    path enters a failed search's tree (Edmonds 1965), so D is the union
    of the failed searches' even vertices.  For the same reason a search
    can only augment to a later vertex; ``_matching`` without D skips
    the searches that have none left, with the same mates.
    """
    return _matching(n, adj, active, True)


# ===== colorings =====

class Coloring(NamedTuple):
    """A proper coloring witness: colors[v] in 0..k-1, all k classes used."""

    colors: tuple[int, ...]
    k: int


def is_proper_coloring(g: Graph, coloring: Coloring) -> bool:
    """Independent properness check used by certificate verification;
    False unless coloring is a Coloring whose colors are a tuple of ints
    and whose k is an int (a bool is not).

    One pass over the vertices: each color must be an int in 0..k-1 with
    no earlier neighbour in its class, and every class must be used.
    """
    if not isinstance(coloring, Coloring):
        return False
    colors, k = coloring
    # k classes from n vertices, all used, need 0 <= k <= n
    if (type(k) is not int or type(colors) is not tuple or len(colors) != g.n
            or not 0 <= k <= g.n):
        return False
    classes = [0] * k
    adj = g.adj
    for v, c in enumerate(colors):
        if type(c) is not int or not 0 <= c < k or adj[v] & classes[c]:
            return False
        classes[c] |= 1 << v
    return 0 not in classes


def _greedy_clique(adj, verts: list[int]) -> list[int]:
    order = sorted(verts, key=lambda v: adj[v].bit_count(), reverse=True)
    clique: list[int] = []
    cmask = 0
    for v in order:
        if adj[v] & cmask == cmask:
            clique.append(v)
            cmask |= 1 << v
    return clique


def _bb_coloring(n: int, adj, active: int, bound: int):
    """The first proper coloring of the subgraph induced on ``active``
    with fewer than ``bound`` colors that the search reaches, or None
    when there is none; vertices outside ``active`` stay -1.

    The search precolors a greedy clique and then descends by DSATUR
    (Brelaz 1979): it colors the vertex of maximum saturation, then
    maximum degree, then lowest index (fixed so runs are reproducible),
    trying the lowest free color first, and backtracks only when a
    vertex has no color below the bound left.  Colors are 0..c-1 in
    order of first use.  A bound above the mask's size + 1 acts as that
    size + 1, so its size costs nothing.  Saturation needs one mask per
    color, ``seen[c]``, the vertices with a neighbour colored c:
    coloring v with c saturates ``adj[v] & ~seen[c]``, and the undo
    that same set.
    """
    adj = [row & active for row in adj]
    verts = [v for v in range(n) if active >> v & 1]
    bound = min(bound, len(verts) + 1)
    clique = _greedy_clique(adj, verts)
    if len(clique) >= bound:
        return None
    colors = [-1] * n
    seen = [0] * bound
    nmask = [0] * n
    degs = [row.bit_count() for row in adj]

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
        for u in verts:
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

    return colors if rec(len(verts) - len(clique), len(clique)) else None


def triangle_free_raw(adj, active: int) -> bool:
    """True iff no triangle lies on the ``active`` vertices, whose rows
    ``adj`` stay inside ``active``."""
    rest = active
    while rest:
        v = rest & -rest
        rest ^= v
        row = adj[v.bit_length() - 1]
        later = row & -v                # the neighbours above v
        while later:
            low = later & -later
            if row & adj[low.bit_length() - 1]:
                return False
            later ^= low
    return True


def chi_raw(n: int, adj, co, active: int) -> tuple[int, int | None]:
    """(chi, D) of the subgraph induced on ``active``, given the rows
    ``adj`` and the complement rows ``co``, whose rows stay inside
    ``active`` (the full mask, or any union of complement components).

    When alpha <= 2 on the mask one triangle test and one blossom pass
    give chi and D; otherwise chi is the least k the coloring search
    colors, counting up from its greedy clique's size, and D is None.
    """
    if not triangle_free_raw(co, active):
        chi = len(_greedy_clique(adj, list(bits(active))))
        while _bb_coloring(n, adj, active, chi + 1) is None:
            chi += 1
        return chi, None
    mates, d = matching_raw(n, co, active)
    # the -1s off the mask are not exposed
    return (2 * active.bit_count() - n + mates.count(-1)) // 2, d


def chromatic_number(g: Graph) -> int:
    """chi(G), exact; alpha <= 2 fast path, else the least k the coloring search colors."""
    return chi_raw(g.n, g.adj, complement(g).adj, (1 << g.n) - 1)[0]


def is_k_colorable(g: Graph, k: int) -> Coloring | None:
    """A proper coloring with at most k classes (k an int >= 0), or None iff chi(G) > k."""
    check_int("k", k, 0)
    found = _bb_coloring(g.n, g.adj, (1 << g.n) - 1, k + 1)
    return None if found is None else Coloring(tuple(found), len(set(found)))
