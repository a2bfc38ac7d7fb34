"""Shared test helpers: seeded random graphs, a hypothesis strategy, an
allocation tracer, a call counter and output digests."""

from __future__ import annotations

import hashlib
import inspect
import pathlib
import sys
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


def spy(monkeypatch, fn, modules=None) -> list[tuple]:
    """Record every call of fn that goes through a package binding.

    Every attribute of every loaded ``kcrit`` module whose value is fn,
    or only those of the given modules, becomes a wrapper that appends
    the call's arguments (a positional tuple) to the returned list and
    returns fn's result; monkeypatch restores the originals.  Counting
    through every binding keeps a count whole when an import moves.
    Pass modules to leave out calls made elsewhere, such as those inside
    fn's own module.  ValueError when none of them binds fn, so that a
    count cannot read zero because nothing was wrapped.
    """
    calls: list[tuple] = []
    bind = inspect.signature(fn).bind

    def spied(*args, **kwargs):
        calls.append(bind(*args, **kwargs).args if kwargs else args)
        return fn(*args, **kwargs)

    if modules is None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "kcrit" or name.startswith("kcrit.")]
    bindings = [(m, name) for m in modules for name, value in vars(m).items() if value is fn]
    if not bindings:
        raise ValueError(f"no module to patch binds {fn.__name__}")
    for module, name in bindings:
        monkeypatch.setattr(module, name, spied)
    return calls


def digest(output) -> str:
    """SHA-256 of repr(output): it moves with any value or order in it."""
    return hashlib.sha256(repr(output).encode()).hexdigest()


def rooted_pieces(codes) -> int:
    """The sum, over the pieces F whose complements have these codes, of
    the Aut(F)-orbits on F's minimum-degree vertices.

    Canonical augmentation (McKay, J. Algorithms 1998) reaches each
    rooted class (F, v) from exactly one parent F - v and one orbit of
    N(v).  At the leaf step of a piece run every piece qualifies with
    each vertex of minimum degree, so this is also the number of
    canonicity tests that step makes.
    """
    from kcrit.canon import canon_raw
    from kcrit.graph import from_graph6

    total = 0
    for code in codes:
        g = from_graph6(code)       # Aut(F) = Aut(G); F's minimum degree is G's maximum
        top = max(a.bit_count() for a in g.adj)
        orbit = canon_raw(g.n, g.adj)[3]
        total += len({orbit[v] for v, a in enumerate(g.adj) if a.bit_count() == top})
    return total


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
