"""Constructors for recurring graph families.

Odd cycles, their complements (the extremal (2k-1)-vertex members of
each census), and odd cycles with cliques substituted at the even
labels, all reachable from ``kcrit family``.  Constructors only build;
correctness claims about the results (criticality, freeness) live in
tests, which check the substituted cycles against single-vertex clique
substitution (``tests/lemmas.py``).
"""

from __future__ import annotations

from .graph import Graph, check_int, check_order, complement, from_edge_list


def odd_cycle(m: int) -> Graph:
    """The cycle on 2m+1 vertices, 1 <= m <= 15."""
    check_int("m", m, 1, 15)
    n = 2 * m + 1
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def co_odd_cycle(k: int) -> Graph:
    """Complement of the cycle on 2k-1 vertices; 3 <= k <= 16."""
    check_int("k", k, 3, 16)
    return complement(odd_cycle(k - 1))


def clique_substituted_odd_cycle(t: int, k: int) -> Graph:
    """Odd cycle on labels 1..2t+1 with K_{k-2} substituted at even labels.

    Order (t+1) + t*(k-2); t >= 2, k >= 3.  Labels appear in ascending
    order, each expanded group occupying consecutive vertices.
    """
    check_int("t", t, 2)
    check_int("k", k, 3)
    n = check_order((t + 1) + t * (k - 2))
    groups = []
    base = 0
    for label in range(1, 2 * t + 2):
        size = k - 2 if label % 2 == 0 else 1
        groups.append(range(base, base + size))
        base += size
    edges = []
    for grp in groups:
        edges.extend((a, b) for a in grp for b in grp if a < b)
    for i in range(len(groups)):
        nxt = groups[(i + 1) % len(groups)]
        edges.extend((a, b) for a in groups[i] for b in nxt)
    return from_edge_list(n, edges)
