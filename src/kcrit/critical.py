"""Vertex-criticality testing and critical-subgraph extraction.

A graph is k-vertex-critical when its chromatic number is k and deleting
any single vertex lowers it.  When alpha(g) <= 2 (the complement F is
triangle-free) chi(g) = n - nu(F), and deleting v lowers chi exactly
when some maximum matching of F leaves v exposed (v is in D(F)).  So one
maximum matching and one Gallai-Edmonds pass over F decide criticality,
and a peel needs one per deletion.  Otherwise every deletion is
checked with an exact coloring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bits, delete_vertex, induced_subgraph, join
from .invariants import (
    alpha_le_2_chi,
    chromatic_number,
    coloring_with_min_class_size,
    gallai_edmonds_d_raw,
    independence_number,  # for the perfbench span invariants.independence_number
    is_k_colorable,
    matching_mates_raw,
    matching_raw,  # for the perfbench span invariants.matching_raw
)
from .patterns import co_components


# ===== criticality reports =====

@dataclass(frozen=True)
class CriticalityReport:
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
    """Exact k-vertex-criticality test.

    Short-circuits when chi(g) != k; otherwise reports the lowest vertex
    whose deletion fails to lower the chromatic number.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    small = alpha_le_2_chi(g)
    chi = chromatic_number(g) if small is None else small[0]
    if chi != k:
        return CriticalityReport(k=chi, is_critical=False, witness=None)
    if small is not None:
        # deleting v keeps chi iff every maximum matching of co covers v
        full = (1 << g.n) - 1
        _, co, mates = small
        keeps = bits(full & ~gallai_edmonds_d_raw(g.n, co, full, mates))
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
    lowers chi (by one).  Requires chi(g) >= k.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    small = alpha_le_2_chi(g)
    chi = chromatic_number(g) if small is None else small[0]
    if chi < k:
        raise ValueError("graph is not even k-chromatic; nothing to extract")
    active = (1 << g.n) - 1
    if small is None:
        for v in range(g.n):
            if is_k_colorable(induced_subgraph(g, active ^ 1 << v), k - 1) is None:
                active ^= 1 << v
        return active
    _, co, mates = small
    d = gallai_edmonds_d_raw(g.n, co, active, mates)
    for v in range(g.n):
        in_d = d >> v & 1
        if chi > k or not in_d:
            chi -= in_d
            active ^= 1 << v
            mates = matching_mates_raw(g.n, co, active)
            d = gallai_edmonds_d_raw(g.n, co, active, mates)
    return active


# ===== structural checks used as property tests =====

def check_min_class_colorings(g: Graph, k: int) -> bool:
    """For every vertex v: g - v has a (k-1)-coloring, all classes >= 2.

    Holds for every k-vertex-critical graph whose complement is
    connected; callers must ensure that precondition.  A False return
    signals a bug somewhere, so tests treat it as a hard failure.
    """
    rep = is_vertex_critical(g, k)
    if not rep.is_critical:
        raise ValueError("graph is not k-vertex-critical")
    if len(co_components(g)) != 1:
        raise ValueError("complement is not connected")
    return all(
        coloring_with_min_class_size(delete_vertex(g, v), k - 1, 2) is not None
        for v in range(g.n)
    )


def verify_join_criticality(g: Graph, h: Graph, k1: int, k2: int) -> bool:
    """Check on one instance that criticality factors across a join.

    Returns whether [g v h is (k1+k2)-vertex-critical] iff [g is
    k1-vertex-critical and h is k2-vertex-critical].  Expected True on
    every input; exercised as a property test.
    """
    parts = (
        is_vertex_critical(g, k1).is_critical
        and is_vertex_critical(h, k2).is_critical
    )
    whole = is_vertex_critical(join(g, h), k1 + k2).is_critical
    return parts == whole
