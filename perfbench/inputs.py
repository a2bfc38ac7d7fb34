"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of a ``random.Random`` and the shipped
data files, so one seed always yields the same inputs.  The generators
are the benchmark's own; they do not import the package's test helpers.
"""

from __future__ import annotations

import pathlib
import random


def read_shipped_list(path: pathlib.Path) -> tuple[int, list[str]]:
    """(k, codes) of a shipped ``critical<k>.g6`` file.

    The first line is a ``k=<k> count=<n>`` header that the package's
    ``read_graph_file`` does not accept, so callers that hand the list to
    the library must pass the body alone (see ``write_body``).
    """
    lines = [ln.strip() for ln in path.read_text(encoding="ascii").splitlines()]
    lines = [ln for ln in lines if ln]
    head = dict(part.split("=", 1) for part in lines[0].split())
    codes = lines[1:]
    if len(codes) != int(head["count"]):
        raise ValueError(f"{path}: header count {head['count']} != {len(codes)} codes")
    return int(head["k"]), codes


def write_body(codes, path: pathlib.Path) -> None:
    """Write graph6 codes one per line, with no header."""
    path.write_text("".join(c + "\n" for c in codes), encoding="ascii")


def graph6_order(code: str) -> int:
    return ord(code[0]) - 63


def graph6_adj(code: str) -> list[int]:
    """Adjacency masks of a graph6 code with n <= 62."""
    n = graph6_order(code)
    body = [ord(ch) - 63 for ch in code[1:]]
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if body[k // 6] >> (5 - k % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return adj


def stratified_sample(rng: random.Random, codes, size: int) -> list[str]:
    """About ``size`` codes drawn per order in proportion to the list.

    Every order present in the list keeps at least one graph, so the
    sample keeps the list's mix of orders; within an order the draw is
    uniform without replacement.  The result is sorted by order, then by
    the list's own order, like the shipped files.
    """
    by_order: dict[int, list[int]] = {}
    for i, c in enumerate(codes):
        by_order.setdefault(graph6_order(c), []).append(i)
    picked: list[int] = []
    for n in sorted(by_order):
        idx = by_order[n]
        want = max(1, round(size * len(idx) / len(codes)))
        picked.extend(sorted(rng.sample(idx, min(want, len(idx)))))
    return [codes[i] for i in picked]


# ===== random graphs as (n, adjacency masks) =====

def random_adj(rng: random.Random, n: int, p: float) -> list[int]:
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def random_alpha_le_2(rng: random.Random, n: int) -> list[int]:
    """Complement of a random triangle-free graph: independence number <= 2."""
    f = random_adj(rng, n, rng.uniform(0.2, 0.6))
    for u in range(n):
        for v in range(u + 1, n):
            if f[u] >> v & 1 and f[u] & f[v]:
                f[u] &= ~(1 << v)
                f[v] &= ~(1 << u)
    full = (1 << n) - 1
    return [full & ~f[v] & ~(1 << v) for v in range(n)]


def random_clique_union(rng: random.Random, n: int) -> list[int]:
    labels = [rng.randrange(max(1, n // 2 + 1)) for _ in range(n)]
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def join_adj(a: list[int], b: list[int]) -> list[int]:
    na, nb = len(a), len(b)
    amask = (1 << na) - 1
    bmask = ((1 << (na + nb)) - 1) ^ amask
    return [row | bmask for row in a] + [(row << na) | amask for row in b]


def random_copaw_free(rng: random.Random, max_n: int) -> list[int]:
    """Join of 1 to 3 random factors, each alpha <= 2 or a union of cliques.

    Such a join never contains an induced P3+P1.
    """
    parts = rng.randint(1, 3)
    total = rng.randint(parts, max_n)
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    adj: list[int] = []
    for a, b in zip([0] + cuts, cuts + [total]):
        factor = (random_alpha_le_2(rng, b - a) if rng.random() < 0.5
                  else random_clique_union(rng, b - a))
        adj = join_adj(adj, factor) if adj else factor
    return adj


def relabel_adj(rng: random.Random, adj: list[int]) -> list[int]:
    """The same graph under a uniformly random vertex permutation."""
    n = len(adj)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [0] * n
    for v, row in enumerate(adj):
        m = 0
        for u in range(n):
            if row >> u & 1:
                m |= 1 << perm[u]
        out[perm[v]] = m
    return out
