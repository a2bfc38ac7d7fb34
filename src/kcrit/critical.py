"""Vertex-criticality testing and critical-subgraph extraction.

A graph is k-vertex-critical when its chromatic number is k and deleting
any single vertex lowers it.  Both entry points read one peel, which
deletes in ascending order each vertex whose removal keeps chi >= k:
the criticality test's witness is its first deletion.  When alpha(g)
<= 2 (the complement F is triangle-free) chi(g) = n - nu(F), and
deleting v lowers chi exactly when some maximum matching of F leaves v
exposed (v is in D(F)).  One blossom pass over F gives both the
maximum matching and D, so it decides criticality, and the peel needs
one per deletion.  Otherwise each deletion is an exact coloring search
on a vertex mask, which builds no subgraph.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .graph import Graph, check_int
from .invariants import (
    _bb_coloring,
    chi_with_d,
    chromatic_number,  # for the perfbench span invariants.chromatic_number
    independence_number,  # for the perfbench span invariants.independence_number
    matching_raw,
)


# ===== criticality reports =====

class CriticalityReport(NamedTuple):
    """Outcome of a k-vertex-criticality test.

    k is the chromatic number of the graph examined.  When the graph has
    the right chromatic number but is not critical, witness names a
    vertex whose deletion keeps the chromatic number unchanged; it is
    None otherwise.
    """

    k: int
    is_critical: bool
    witness: int | None


def _peel(g: Graph, k: int, chi: int, co, d) -> Iterator[int]:
    """Each vertex whose deletion from what is left keeps chi >= k, in
    ascending order, given chi, co and d from chi_with_d(g) with chi >= k.

    When alpha(g) <= 2 only deleting a vertex of D lowers chi (by one),
    so the next deletion is the lowest later vertex outside D, or any
    later vertex while chi > k; the blossom pass for the smaller mask
    runs after the yield, so a caller that stops there makes none.
    """
    active = (1 << g.n) - 1
    if d is None:
        for v in range(g.n):
            if _bb_coloring(g.n, g.adj, active ^ 1 << v, k) is None:
                active ^= 1 << v
                yield v
        return
    v = 0
    while drop := (active if chi > k else active & ~d) >> v << v:
        v = (drop & -drop).bit_length() - 1
        chi -= d >> v & 1
        active ^= 1 << v
        yield v
        d = matching_raw(g.n, co, active)[1]


def is_vertex_critical(g: Graph, k: int) -> CriticalityReport:
    """Exact k-vertex-criticality test, for an int k >= 1.

    Short-circuits when chi(g) != k; otherwise reports the lowest vertex
    whose deletion fails to lower the chromatic number, the peel's first.
    """
    check_int("k", k, 1)
    chi, co, d = chi_with_d(g)
    if chi != k:
        return CriticalityReport(k=chi, is_critical=False, witness=None)
    witness = next(_peel(g, k, chi, co, d), None)
    return CriticalityReport(k=chi, is_critical=witness is None, witness=witness)


# ===== extracting a critical induced subgraph =====

def find_critical_subgraph(g: Graph, k: int) -> int:
    """Vertex mask (in g's labels) inducing a k-vertex-critical subgraph.

    One ascending pass, the peel, deletes each vertex whose removal keeps
    chi >= k; a kept vertex stays kept, as chi(S - v) < k implies
    chi(S' - v) < k for S' inside S.  Requires an int k >= 1 and chi(g) >= k.
    """
    check_int("k", k, 1)
    chi, co, d = chi_with_d(g)
    if chi < k:
        raise ValueError("graph is not even k-chromatic; nothing to extract")
    active = (1 << g.n) - 1
    for v in _peel(g, k, chi, co, d):
        active ^= 1 << v
    return active
