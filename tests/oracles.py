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
            bitstring.append(1 if g.has_edge(i, j) else 0)
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

def is_vertex_critical(g: Graph, k: int):
    """k-vertex-criticality by one deletion check per vertex, in ascending
    order: a maximum matching in the complement when alpha(g) <= 2, an
    exact coloring otherwise.  Returns the library's CriticalityReport."""
    from kcrit.critical import CriticalityReport
    from kcrit.graph import complement, delete_vertex
    from kcrit.invariants import chromatic_number, is_k_colorable, matching_raw

    if k < 1:
        raise ValueError("k must be at least 1")
    chi = chromatic_number(g)
    if chi != k:
        return CriticalityReport(k=chi, is_critical=False, witness=None)
    comp = complement(g) if independence_number(g) <= 2 else None
    full = (1 << g.n) - 1
    for v in range(g.n):
        if comp is not None:
            lowers = g.n - 1 - matching_raw(g.n, comp.adj, full ^ 1 << v) < k
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
        raise ValueError(f"graph6 order {n} exceeds cap 31")
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
    from kcrit.invariants import matching_raw
    return 2 * matching_raw(f.n, f.adj, (1 << f.n) - 1) == f.n


def _chi_at_least(g: Graph, k: int) -> bool:
    from kcrit.graph import complement
    from kcrit.invariants import independence_number, is_k_colorable, matching_raw

    if independence_number(g) <= 2:
        comp = complement(g)
        return g.n - matching_raw(comp.n, comp.adj, (1 << g.n) - 1) >= k
    return is_k_colorable(g, k - 1) is None


def find_critical_subgraph(g: Graph, k: int) -> int:
    """The peel before the one-pass Gallai-Edmonds peel replaced it:
    repeatedly delete the lowest-indexed vertex whose removal keeps the
    chromatic number at k or above, restarting the scan after each
    deletion.  Same mask and same ValueErrors as the library."""
    from kcrit.graph import delete_vertex, mask_of

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
