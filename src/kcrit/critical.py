"""Vertex-criticality testing and critical-subgraph extraction.

A graph is k-vertex-critical when its chromatic number is k and deleting
any single vertex lowers it.  When alpha(g) <= 2 (the complement F is
triangle-free) chi(g) = n - nu(F), and deleting v lowers chi exactly
when some maximum matching of F leaves v exposed (v is in D(F)).  One
blossom pass over F gives both the maximum matching and D, so it
decides criticality, and a peel needs one per deletion.  Otherwise
every deletion is checked with an exact coloring.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, bits, check_int, delete_vertex, induced_subgraph
from .invariants import (
    chi_with_d,
    chromatic_number,  # for the perfbench span invariants.chromatic_number
    independence_number,  # for the perfbench span invariants.independence_number
    is_k_colorable,
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


def is_vertex_critical(g: Graph, k: int) -> CriticalityReport:
    """Exact k-vertex-criticality test, for an int k >= 1.

    Short-circuits when chi(g) != k; otherwise reports the lowest vertex
    whose deletion fails to lower the chromatic number.
    """
    check_int("k", k, 1)
    chi, _, d = chi_with_d(g)
    if chi != k:
        return CriticalityReport(k=chi, is_critical=False, witness=None)
    if d is not None:
        # deleting v keeps chi iff every maximum matching of co covers v
        keeps = bits((1 << g.n) - 1 & ~d)
    else:
        keeps = (v for v in range(g.n)
                 if is_k_colorable(delete_vertex(g, v), k - 1) is None)
    witness = next(keeps, None)
    return CriticalityReport(k=chi, is_critical=witness is None, witness=witness)


# ===== extracting a critical induced subgraph =====

def find_critical_subgraph(g: Graph, k: int) -> int:
    """Vertex mask (in g's labels) inducing a k-vertex-critical subgraph.

    One ascending pass deletes each vertex whose removal keeps chi >= k;
    a kept vertex stays kept, as chi(S - v) < k implies chi(S' - v) < k
    for S' inside S.  When alpha(g) <= 2, only deleting a vertex of D
    lowers chi (by one).  Requires an int k >= 1 and chi(g) >= k.
    """
    check_int("k", k, 1)
    chi, co, d = chi_with_d(g)
    if chi < k:
        raise ValueError("graph is not even k-chromatic; nothing to extract")
    active = (1 << g.n) - 1
    if d is None:
        for v in range(g.n):
            if is_k_colorable(induced_subgraph(g, active ^ 1 << v), k - 1) is None:
                active ^= 1 << v
        return active
    for v in range(g.n):
        in_d = d >> v & 1
        if chi > k or not in_d:
            chi -= in_d
            active ^= 1 << v
            d = matching_raw(g.n, co, active)[1]
    return active
