"""Brute-force reference implementations used only by the test suite.

Everything here trades speed for obviousness: exhaustive subset scans,
search over all n! bijections, exponential matching recursion.  These are
the independent oracles the fast library code is checked against, so none
of them may import from the modules they oracle beyond the Graph type.

The last section keeps library paths that a faster one replaced.  They
reuse the library's lower layers (matching, coloring), which the oracles
above check, and stand in only for the step that was replaced.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations

from kcrit.graph import Graph, bits


def independence_number(g: Graph) -> int:
    best = 0
    for s in range(1 << g.n):
        if all(g.adj[v] & s == 0 for v in bits(s)):
            best = max(best, s.bit_count())
    return best


def clique_number(g: Graph) -> int:
    best = 0
    for s in range(1 << g.n):
        if all(g.adj[v] & s == s ^ (1 << v) for v in bits(s)):
            best = max(best, s.bit_count())
    return best


def chromatic_number(g: Graph) -> int:
    """Minimum class count over all proper colorings, vertex-by-vertex."""
    if g.n == 0:
        return 0
    best = [g.n]
    colors = [0] * g.n
    below = [(1 << v) - 1 for v in range(g.n)]

    def rec(v: int, used: int) -> None:
        if used >= best[0]:
            return
        if v == g.n:
            best[0] = used
            return
        for c in range(used):
            if all(colors[u] != c for u in bits(g.adj[v] & below[v])):
                colors[v] = c
                rec(v + 1, used)
        colors[v] = used
        rec(v + 1, used + 1)

    rec(0, 0)
    return best[0]


def max_matching(g: Graph) -> int:
    """Maximum matching size by recursion over the edge list."""
    edges = g.edges()

    def rec(i: int, used: int) -> int:
        best = 0
        for k in range(i, len(edges)):
            u, v = edges[k]
            if used >> u & 1 or used >> v & 1:
                continue
            best = max(best, 1 + rec(k + 1, used | 1 << u | 1 << v))
        return best

    return rec(0, 0)


def contains_induced(g: Graph, h: Graph):
    """Induced embedding of h into g by scanning all ordered subsets."""
    if h.n > g.n:
        return None
    for phi in permutations(range(g.n), h.n):
        if all((g.adj[phi[i]] >> phi[j] & 1) == (h.adj[i] >> j & 1)
               for i in range(h.n) for j in range(i + 1, h.n)):
            return phi
    return None


def is_p3p1_free(g: Graph) -> bool:
    """(P3+P1)-freeness read off the definition: no midpoint b with two
    nonadjacent neighbors a, c plus a fourth vertex touching none of them."""
    full = (1 << g.n) - 1
    for b in range(g.n):
        nb = g.adj[b]
        for a in bits(nb):
            others = nb & ~g.adj[a] & ~(1 << a)
            for c in bits(others >> (a + 1) << (a + 1)):
                rest = full & ~g.adj[a] & ~g.adj[b] & ~g.adj[c]
                rest &= ~(1 << a | 1 << b | 1 << c)
                if rest:
                    return False
    return True


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism by trying all n! bijections."""
    if g.n != h.n:
        return False
    return any(
        all((g.adj[p[i]] >> p[j] & 1) == (h.adj[i] >> j & 1)
            for i in range(g.n) for j in range(i + 1, g.n))
        for p in permutations(range(g.n)))


def automorphism_orbit_partition(g: Graph) -> list[int]:
    """orbit[v] = smallest vertex in v's orbit, from the full automorphism
    group found by trying all n! maps."""
    orbit = list(range(g.n))

    def find(x):
        while orbit[x] != x:
            x = orbit[x]
        return x

    for p in permutations(range(g.n)):
        if all((g.adj[p[i]] >> p[j] & 1) == (g.adj[i] >> j & 1)
               for i in range(g.n) for j in range(i + 1, g.n)):
            for v in range(g.n):
                a, b = find(v), find(p[v])
                if a != b:
                    orbit[max(a, b)] = min(a, b)
    return [find(v) for v in range(g.n)]


def all_labeled_graphs(n: int):
    """Every labeled graph on 0..n-1, as a generator of 2^C(n,2) graphs."""
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        adj = [0] * n
        for b, (i, j) in enumerate(pairs):
            if code >> b & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        yield Graph(n, tuple(adj))


def graph6_encode(g: Graph) -> str:
    """Independent graph6 encoder written directly from the format note:
    header byte n+63, then bits x(0,1) x(0,2) x(1,2) x(0,3) ... packed six
    per byte, +63, zero padded."""
    bitstring = []
    for j in range(1, g.n):
        for i in range(j):
            bitstring.append(g.adj[i] >> j & 1)
    while len(bitstring) % 6:
        bitstring.append(0)
    chars = [chr(g.n + 63)]
    for i in range(0, len(bitstring), 6):
        val = 0
        for b in bitstring[i:i + 6]:
            val = val * 2 + b
        chars.append(chr(val + 63))
    return "".join(chars)


# ===== replaced library paths =====

def matching_size(n: int, adj, active: int) -> int:
    """Maximum matching size on the ``active`` mask: the size-only call
    the library had until its one blossom pass returned (mates, D)."""
    from kcrit.invariants import matching_raw
    return sum(1 for v, m in enumerate(matching_raw(n, adj, active)[0]) if m > v)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """The package's isomorphism test until nothing in it called the
    test: equal orders and degree sequences, then equal canonical codes."""
    from kcrit.canon import canonical_form

    if g.n != h.n:
        return False
    if sorted(row.bit_count() for row in g.adj) != sorted(row.bit_count() for row in h.adj):
        return False
    return canonical_form(g) == canonical_form(h)


def is_vertex_critical(g: Graph, k: int):
    """k-vertex-criticality by one deletion check per vertex, in ascending
    order: a maximum matching in the complement when alpha(g) <= 2, an
    exact coloring otherwise.  Returns the library's CriticalityReport."""
    from kcrit.critical import CriticalityReport
    from kcrit.graph import complement
    from kcrit.invariants import chromatic_number, is_k_colorable
    from util import delete_vertex

    if k < 1:
        raise ValueError("k must be at least 1")
    chi = chromatic_number(g)
    if chi != k:
        return CriticalityReport(k=chi, is_critical=False, witness=None)
    comp = complement(g) if independence_number(g) <= 2 else None
    full = (1 << g.n) - 1
    for v in range(g.n):
        if comp is not None:
            lowers = g.n - 1 - matching_size(g.n, comp.adj, full ^ 1 << v) < k
        else:
            lowers = is_k_colorable(delete_vertex(g, v), k - 1) is not None
        if not lowers:
            return CriticalityReport(k=chi, is_critical=False, witness=v)
    return CriticalityReport(k=chi, is_critical=True, witness=None)


def from_graph6(text: str) -> Graph:
    """graph6 decoding one bit at a time, validated by the Graph
    constructor; same checks and messages as the library decoder."""
    s = text.strip()
    if not s:
        raise ValueError("empty graph6 string")
    vals = []
    for ch in s:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise ValueError(f"byte {ch!r} outside graph6 range")
        vals.append(v)
    n = vals[0]
    if n == 63:
        raise ValueError("extended graph6 headers (n > 62) not supported")
    if n > 31:
        raise ValueError(f"order must be an int in 0..31, got {n}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(vals) - 1 != need:
        raise ValueError(f"graph6 body has {len(vals) - 1} bytes, expected {need}")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if vals[1 + k // 6] >> (5 - k % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    # trailing pad bits must be zero
    while k < 6 * need:
        if vals[1 + k // 6] >> (5 - k % 6) & 1:
            raise ValueError("nonzero padding bits in graph6 string")
        k += 1
    return Graph(n, tuple(adj))


def has_perfect_matching(f: Graph) -> bool:
    """The census's last-step prune before the deficiency prune replaced
    it: a perfect matching, from the library's maximum matching."""
    return 2 * matching_size(f.n, f.adj, (1 << f.n) - 1) == f.n


def _chi_at_least(g: Graph, k: int) -> bool:
    from kcrit.graph import complement
    from kcrit.invariants import independence_number, is_k_colorable

    if independence_number(g) <= 2:
        comp = complement(g)
        return g.n - matching_size(comp.n, comp.adj, (1 << g.n) - 1) >= k
    return is_k_colorable(g, k - 1) is None


def find_critical_subgraph(g: Graph, k: int) -> int:
    """The peel before the one-pass Gallai-Edmonds peel replaced it:
    repeatedly delete the lowest-indexed vertex whose removal keeps the
    chromatic number at k or above, restarting the scan after each
    deletion.  Same mask and same ValueErrors as the library."""
    from kcrit.graph import mask_of
    from util import delete_vertex

    if k < 1:
        raise ValueError("k must be at least 1")
    if not _chi_at_least(g, k):
        raise ValueError("graph is not even k-chromatic; nothing to extract")
    keep = list(range(g.n))
    sub = g
    progress = True
    while progress:
        progress = False
        for i in range(sub.n):
            cand = delete_vertex(sub, i)
            if _chi_at_least(cand, k):
                sub = cand
                del keep[i]
                progress = True
                break
    return mask_of(keep)


def copaw_decompose(g: Graph):
    """The join decomposition before it moved onto raw masks: BFS over
    the complement, then one induced subgraph per factor with a triangle
    test on its complement and a closed-neighborhood test across each of
    its edges.  Returns the library's JoinDecomposition, or None."""
    from kcrit.graph import complement, induced_subgraph
    from kcrit.invariants import triangle_free_raw
    from kcrit.patterns import JoinDecomposition

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
    factors = []
    flags = []
    for comp in comps:
        sub = induced_subgraph(g, comp)
        small = triangle_free_raw(complement(sub).adj, (1 << sub.n) - 1)  # alpha(sub) <= 2
        closed = [sub.adj[v] | 1 << v for v in range(sub.n)]
        if not small and not all(closed[u] == closed[v] for u, v in sub.edges()):
            return None
        factors.append(comp)
        flags.append(small)
    return JoinDecomposition(tuple(factors), tuple(flags), complement(g).adj)


def structural_coloring(g: Graph):
    """The certifier's structural coloring before it moved onto raw
    masks: one induced subgraph per join factor, colored by pairing the
    mates of a maximum matching of its complement or by numbering each
    clique.  Returns the library's Coloring."""
    from kcrit.graph import complement, induced_subgraph
    from kcrit.invariants import Coloring
    from kcrit.patterns import copaw_decompose

    if g.n == 0:
        return Coloring((), 0)
    dec = copaw_decompose(g)
    colors = [0] * g.n
    offset = 0
    for factor, small in zip(dec.factors, dec.alpha_le_2):
        sub = induced_subgraph(g, factor)
        local = [-1] * sub.n
        nxt = 0
        if small:
            # pairs of a maximum matching in the complement share a color
            mates = matching_mates_raw(sub.n, complement(sub).adj, (1 << sub.n) - 1)
            for v in range(sub.n):
                if local[v] < 0:
                    local[v] = nxt
                    if mates[v] != -1:
                        local[mates[v]] = nxt
                    nxt += 1
        else:
            for v in range(sub.n):
                if local[v] < 0:
                    for i, u in enumerate(bits(sub.adj[v] | 1 << v)):
                        local[u] = i
        for u, c in zip(bits(factor), local):
            colors[u] = offset + c
        offset += max(local) + 1
    return Coloring(tuple(colors), offset)


def refine(adj, cells):
    """Coarsest equitable refinement of a list of cell bit masks, with the
    full queue canonical labeling used before it skipped the splitters
    that split nothing.

    Each splitter from the queue splits every cell by neighbour count into
    the splitter; the subcells replace the cell in place, ordered by
    descending count, and join the queue.
    """
    n = len(adj)
    queue = list(cells)
    qi = 0
    # a discrete partition splits no further
    while qi < len(queue) and len(cells) < n:
        splitter = queue[qi]
        qi += 1
        out = []
        if splitter & (splitter - 1) == 0:
            # one-vertex splitter: neighbours (count 1) before the rest
            nbrs = adj[splitter.bit_length() - 1]
            for cell in cells:
                hit = cell & nbrs
                if hit and hit != cell:
                    parts = (hit, cell ^ hit)
                    out += parts
                    queue += parts
                else:
                    out.append(cell)
        else:
            for cell in cells:
                if cell & (cell - 1) == 0:
                    out.append(cell)
                    continue
                groups: dict[int, int] = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    rest ^= low
                    c = (adj[low.bit_length() - 1] & splitter).bit_count()
                    groups[c] = groups.get(c, 0) | low
                if len(groups) == 1:
                    out.append(cell)
                    continue
                parts = [groups[c] for c in sorted(groups, reverse=True)]
                out += parts
                queue += parts
        cells = out
    return cells


def _forest_lca(match, p, base, a: int, b: int) -> int:
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


def alternating_forest(n: int, adj, active: int, verts: list, match: list,
                       roots: list) -> list | None:
    """The matching's alternating forest before it took one root: grown
    from every exposed vertex in ``roots`` at once.  Reaching an exposed
    non-root augments ``match`` and returns None; otherwise the result
    flags the even vertices.  An even-even edge between two trees raises
    ValueError, as the matching was not maximum."""
    from kcrit.invariants import _mark_path

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
                cur = _forest_lca(match, p, base, v, to)
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
    """The mate array before one pass gave it with D: a full search from
    every vertex still exposed at its turn, in ascending order."""
    match = [-1] * n
    verts = list(bits(active))
    for v in verts:
        if match[v] == -1:
            alternating_forest(n, adj, active, verts, match, [v])
    return match


def gallai_edmonds_d_raw(n: int, adj, active: int, mates) -> int:
    """D as a second pass: the even vertices of one forest grown from
    every vertex the maximum matching ``mates`` leaves exposed (not
    modified).  Raises ValueError when the matching is not maximum."""
    verts = list(bits(active))
    match = list(mates)
    used = alternating_forest(n, adj, active, verts, match,
                              [v for v in verts if match[v] == -1])
    return sum(1 << v for v in verts if used[v])


def bb_coloring(n: int, adj, bound: int, first_hit: bool):
    """The DSATUR branch and bound before it kept one mask per color:
    an n x (bound+1) table counts, for each vertex and color, the
    neighbours with that color, and bit c of a vertex's saturation mask
    goes on at the first such neighbour and off at the last."""
    from kcrit.invariants import _greedy_clique

    bound = min(bound, n + 1)
    clique = _greedy_clique(adj, list(range(n)))
    if len(clique) >= bound:
        return None
    colors = [-1] * n
    cnt = [[0] * (bound + 1) for _ in range(n)]
    nmask = [0] * n
    degs = [adj[v].bit_count() for v in range(n)]
    best: list = [bound, None]

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


def partitions(total: int, parts: int, largest: int):
    """The census's partitions before it took them from
    combinations_with_replacement: the partitions of total into `parts`
    parts of size <= largest, as non-increasing tuples, largest first
    part first."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(largest, total - parts + 1), 0, -1):
        for rest in partitions(total - first, parts - 1, first):
            yield (first,) + rest


def assembled(pieces: dict[int, list[str]], k: int, n: int) -> list[str]:
    """The census's order-n assembly over ``partitions``: one join per
    multiset of pieces whose sizes form a partition of k into 2k - n
    parts, as canonical codes in assembly order."""
    from collections import Counter
    from functools import reduce
    from itertools import chain, combinations_with_replacement, product

    from kcrit.canon import canonical_form
    from kcrit.graph import from_graph6, join

    codes: list[str] = []
    for parts in partitions(k, 2 * k - n, k):
        if len(parts) == 1:
            codes.extend(pieces[k])
            continue
        picks = product(*(combinations_with_replacement(pieces[j], c)
                          for j, c in Counter(parts).items()))
        for pick in picks:
            factors = [from_graph6(c) for c in chain.from_iterable(pick)]
            codes.append(canonical_form(reduce(join, factors)))
    return codes


def adjacency_fault(n: int, adj: tuple) -> str | None:
    """The message of ``Graph``'s checks on rows of the right count, one
    row and then one pair at a time; None when the rows are valid."""
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if type(row) is not int:
            return f"adjacency row of vertex {v} is not an int: {row!r}"
        if row & ~full:
            return f"vertex {v} has a neighbor bit at or above n={n}"
        if row >> v & 1:
            return f"self-loop at vertex {v}"
    for v in range(n):
        for u in bits(adj[v]):
            if not adj[u] >> v & 1:
                return f"asymmetric adjacency between {v} and {u}"
    return None


def graph_row_scan(n: int, adj: tuple) -> str | None:
    """The message of ``Graph``'s checks before a mask on the packed
    matrix accepted valid rows: a scan of the rows one at a time, then
    the packed matrix against its transpose; None when the rows are valid."""
    from kcrit.graph import _SLOT, _SWAPS

    full = (1 << n) - 1
    packed = 0
    for v, row in enumerate(adj):
        if type(row) is not int:
            return f"adjacency row of vertex {v} is not an int: {row!r}"
        if row & ~full:
            return f"vertex {v} has a neighbor bit at or above n={n}"
        if row >> v & 1:
            return f"self-loop at vertex {v}"
        packed |= row << _SLOT * v
    t = packed
    for shift, mask in _SWAPS:
        x = (t ^ t >> shift) & mask
        t ^= x ^ x << shift
    one_way = packed & ~t
    if one_way:
        v, u = divmod((one_way & -one_way).bit_length() - 1, _SLOT)
        return f"asymmetric adjacency between {v} and {u}"
    return None


def is_proper_coloring_in_passes(g: Graph, coloring) -> bool:
    """The library's properness check before it made one pass: the types,
    the range of the colors, the classes used and the edges inside a
    class, each in a pass of its own."""
    from kcrit.invariants import Coloring

    if (not isinstance(coloring, Coloring) or type(coloring.k) is not int
            or type(coloring.colors) is not tuple
            or any(type(c) is not int for c in coloring.colors)):
        return False
    if len(coloring.colors) != g.n:
        return False
    if any(not 0 <= c < coloring.k for c in coloring.colors):
        return False
    if len(set(coloring.colors)) != coloring.k:
        return False
    classes = [0] * coloring.k
    for v, c in enumerate(coloring.colors):
        classes[c] |= 1 << v
    return not any(row & classes[c] for row, c in zip(g.adj, coloring.colors))


def is_proper_coloring(g: Graph, coloring) -> bool:
    """Well-formed (int colors in 0..k-1, every class used) and no edge
    inside a class, by a walk over the edge list."""
    colors, k = coloring.colors, coloring.k
    if (type(k) is not int or type(colors) is not tuple
            or any(type(c) is not int for c in colors)):
        return False
    if len(colors) != g.n or any(not 0 <= c < k for c in colors):
        return False
    if len(set(colors)) != k:
        return False
    return all(colors[i] != colors[j] for i, j in g.edges())


def uncapped_child_graphs(parent: Graph, mode: str, admit=None):
    """``child_graphs`` before it applied the new vertex's degree rule to
    the attachment sets: every set that admit accepts reaches the orbit
    step, and each orbit representative s is then dropped unless the
    child's minimum degree is |s| (no vertex outside s of degree below
    |s|, none inside s below |s| - 1).  (rows, generators) of each
    accepted child, in order."""
    from kcrit.canon import canon_raw
    from kcrit.generate import (TRIANGLE_FREE, _canonical_extension, _independent_masks,
                                _mask_orbit_reps)

    n, adj = parent.n, parent.adj
    deg = [a.bit_count() for a in adj]
    below = [sum(1 << v for v, d in enumerate(deg) if d < e) for e in range(n + 2)]
    eq = [below[d + 1] ^ below[d] for d in range(n + 1)]
    if mode == TRIANGLE_FREE:
        masks = _independent_masks(adj, n)
    else:
        masks = range(1 << n)
    if admit is not None:
        masks = [s for s in masks if admit(s)]
    gens = canon_raw(n, adj)[2]
    out = []
    for s in _mask_orbit_reps(masks, gens):
        t = s.bit_count()
        if t and (below[t] & ~s or below[t - 1] & s):
            continue
        ext = _canonical_extension(n, adj, deg, eq, s)
        if ext is not None:
            out.append((tuple(ext[0]), ext[1]))
    return out


def searched_extension(n: int, adj, s: int):
    """``generate._canonical_extension`` before stage 3 decided on the
    root cells: every vertex's (degree, sorted neighbour degrees) is
    compared with the new vertex n's, and when another vertex ties with
    n, the child is labelled by a full ``canon_raw`` search and accepted
    iff the latest tied vertex in canonical order shares n's orbit.  n
    must have the child's minimum degree, as ``child_graphs`` ensures.
    (adjacency, generators) or None."""
    from kcrit.canon import canon_raw

    child = [a | (s >> v & 1) << n for v, a in enumerate(adj)] + [s]
    deg = [a.bit_count() for a in child]
    inv = [(deg[v], sorted(deg[u] for u in bits(a))) for v, a in enumerate(child)]
    if min(inv) < inv[n]:
        return None
    ties = [v for v in range(n + 1) if inv[v] == inv[n]]
    if ties == [n]:
        return child, None
    order, _, gens, orbit = canon_raw(n + 1, child)
    latest = max(ties, key=order.index)
    return (child, gens) if orbit[latest] == orbit[n] else None


@cache
def all_graphs_level(n: int) -> tuple[Graph, ...]:
    """One graph per class of order n >= 1, in the order that the
    unfiltered all-graphs augmentation run from K1 makes them."""
    from kcrit.generate import child_graphs

    if n == 1:
        return (Graph(1, (0,)),)
    return tuple(c for p in all_graphs_level(n - 1) for c in child_graphs(p))


def filtered_general_census(k: int, pattern, n_max: int):
    """``census.census_general`` before it became a pruned run: every
    class of order k..n_max, kept when its minimum degree is >= k - 1, it
    is free of pattern (a name, a Graph or None) and it is
    k-vertex-critical.  One ``CensusRow`` per order, codes in level
    order."""
    from kcrit.canon import canonical_form
    from kcrit.census import CensusRow
    from kcrit.critical import is_vertex_critical
    from kcrit.patterns import as_pattern, is_free

    pattern = None if pattern is None else as_pattern(pattern)
    return [CensusRow(n, tuple(
        canonical_form(g) for g in all_graphs_level(n)
        if min(a.bit_count() for a in g.adj) >= k - 1
        and (pattern is None or is_free(g, pattern))
        and is_vertex_critical(g, k).is_critical)) for n in range(k, n_max + 1)]


def per_child_piece_expand(parent: Graph, last: int):
    """``census._piece_expand`` before its rules moved onto the parent:
    the children under the degree cap (N-1)//2, of minimum degree 2 at
    the last order N, each given one blossom pass after the canonicity
    test; its exposed count decides the deficiency prune and, with D,
    the piece test.  (children kept, piece codes)."""
    from kcrit.canon import canonical_form
    from kcrit.generate import TRIANGLE_FREE, child_graphs
    from kcrit.graph import complement
    from kcrit.invariants import matching_raw
    from util import degree_rule

    n = parent.n + 1
    full = (1 << n) - 1
    admit = degree_rule(parent, (last - 1) // 2, 2 if n == last else None)
    kept, codes = [], []
    for f in child_graphs(parent, TRIANGLE_FREE, admit):
        mates, d = matching_raw(n, f.adj, full)
        exposed = mates.count(-1)
        if n % 2 and exposed == 1 and d == full:
            codes.append(canonical_form(complement(f)))
        if exposed <= last - 1 - n:
            kept.append(f)
    return kept, codes


def ear_pieces(last: int) -> dict[int, list[Graph]]:
    """The triangle-free factor-critical graphs of every odd order m <=
    last, one per isomorphism class, grown by odd ear decompositions.

    A graph is factor-critical iff it has an odd ear decomposition from
    one vertex (Lovász 1972), and every graph on the way is then a
    factor-critical subgraph, so triangle-free with the end result.  From
    K1, each order m in turn is closed under adding one edge that makes
    no triangle (an ear of length 1), and then every odd open ear of
    length 2r + 1 >= 3 between u != v and every odd closed ear of length
    2r + 1 >= 5 at u with m + 2r <= last is added.  Classes are told
    apart by ``canon_raw`` codes; nothing else of the census is used.
    The complements of the order-(2j-1) graphs are the pieces P_j.
    """
    from kcrit.canon import canon_raw

    found: dict[int, dict[int, Graph]] = {m: {} for m in range(1, last + 1, 2)}

    def add(rows) -> Graph | None:
        m = len(rows)
        code = canon_raw(m, rows)[1]
        if code in found[m]:
            return None
        g = found[m][code] = Graph(m, tuple(rows))
        return g

    def with_path(adj, u: int, v: int, k: int) -> list[int]:
        # adj plus a path u, m, m+1, ..., m+k-1, v through k new vertices
        rows = list(adj) + [0] * k
        path = [u, *range(len(adj), len(adj) + k), v]
        for a, b in zip(path, path[1:]):
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return rows

    add([0])
    for m in found:
        stack = list(found[m].values())
        while stack:
            g = stack.pop()
            for u, v in combinations(range(m), 2):
                if not g.adj[u] >> v & 1 and not g.adj[u] & g.adj[v]:
                    h = add(with_path(g.adj, u, v, 0))
                    if h is not None:
                        stack.append(h)
        for g in list(found[m].values()):
            for r in range(1, (last - m) // 2 + 1):
                for u, v in combinations(range(m), 2):
                    add(with_path(g.adj, u, v, 2 * r))
                if r >= 2:
                    for u in range(m):
                        add(with_path(g.adj, u, u, 2 * r))
    return {m: list(graphs.values()) for m, graphs in found.items()}
