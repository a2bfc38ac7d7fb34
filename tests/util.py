"""Shared test helpers: seeded random graphs, a hypothesis strategy and
an allocation tracer."""

from __future__ import annotations

import pathlib
import tracemalloc
from contextlib import contextmanager
from functools import lru_cache

from hypothesis import strategies as st

from kcrit.graph import Graph


@contextmanager
def peak_traced():
    """Trace the block's allocations; the yielded list then holds the peak in bytes."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def data_path(name: str) -> pathlib.Path:
    """Path of a file shipped in the package data directory."""
    import kcrit
    return pathlib.Path(kcrit.__file__).parent / "data" / name


@lru_cache(maxsize=None)
def canonical_reps(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of order-n graphs."""
    import oracles
    from kcrit.canon import canonical_form
    reps = {}
    for g in oracles.all_labeled_graphs(n):
        reps.setdefault(canonical_form(g), g)
    return tuple(reps.values())


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def random_triangle_free(rng, n: int, p: float = 0.4) -> Graph:
    """Random graph with every triangle broken by edge deletions."""
    adj = list(random_graph(rng, n, p).adj)
    changed = True
    while changed:
        changed = False
        for u in range(n):
            for v in range(u + 1, n):
                if adj[u] >> v & 1 and adj[u] & adj[v]:
                    adj[u] &= ~(1 << v)
                    adj[v] &= ~(1 << u)
                    changed = True
    return Graph(n, tuple(adj))


def degree_rule(parent: Graph, max_degree=None, min_degree=None):
    """An ``admit`` predicate for ``child_graphs``: the attachment masks
    whose child has maximum degree <= max_degree and minimum degree >=
    min_degree (None: no bound).  Both are read off the parent's degrees,
    so the family is closed under Aut(parent)."""
    deg = [a.bit_count() for a in parent.adj]
    d_max = parent.n if max_degree is None else max_degree
    d_min = 0 if min_degree is None else min_degree
    room = sum(1 << v for v, d in enumerate(deg) if d < d_max)  # may gain an edge
    need = sum(1 << v for v, d in enumerate(deg) if d < d_min)  # must gain one
    stranded = any(d < d_min - 1 for d in deg)                  # cannot reach d_min

    def admit(s: int) -> bool:
        return (not stranded and d_min <= s.bit_count() <= d_max
                and not s & ~room and s & need == need)
    return admit


def random_clique_union(rng, n: int) -> Graph:
    """Disjoint cliques over a random partition of n vertices."""
    labels = [rng.randrange(max(1, n // 2 + 1)) for _ in range(n)]
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def random_copaw_free(rng, max_n: int = 12) -> Graph:
    """Random join of alpha<=2 and clique-union factors, of order 1 to
    max_n; never has P3+P1."""
    from kcrit.graph import complement, join

    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    parts = rng.randint(1, min(3, max_n))
    total = rng.randint(parts, max_n)
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    g = None
    for m in sizes:
        if rng.random() < 0.5:
            factor = complement(random_triangle_free(rng, m))
        else:
            factor = random_clique_union(rng, m)
        g = factor if g is None else join(g, factor)
    return g


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    code = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    adj = [0] * n
    b = 0
    for i in range(n):
        for j in range(i + 1, n):
            if code >> b & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            b += 1
    return Graph(n, tuple(adj))


@st.composite
def graph_with_permutation(draw, min_n: int = 0, max_n: int = 8):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    perm = draw(st.permutations(list(range(g.n))))
    return g, list(perm)
