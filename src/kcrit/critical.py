"""Vertex-criticality testing and critical-subgraph extraction.

A graph is k-vertex-critical when its chromatic number is k and deleting
any single vertex lowers it.  Deciding that needs one chromatic number
plus n deletion checks; when alpha(g) <= 2 every deletion check reduces
to a maximum matching in the complement, which is where the census
spends its time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, complement, delete_vertex, join, mask_of
from .invariants import (
    chromatic_number,
    coloring_with_min_class_size,
    independence_number,
    is_k_colorable,
    matching_raw,
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


def _deletion_lowers_chi(g: Graph, comp: Graph | None, v: int, k: int) -> bool:
    # True iff chi(g - v) < k. comp is complement(g) when alpha(g) <= 2,
    # in which case chi(g - v) = (n - 1) - matching(comp - v).
    if comp is not None:
        active = ((1 << g.n) - 1) ^ (1 << v)
        return g.n - 1 - matching_raw(comp.n, comp.adj, active) < k
    return is_k_colorable(delete_vertex(g, v), k - 1) is not None


def is_vertex_critical(g: Graph, k: int) -> CriticalityReport:
    """Exact k-vertex-criticality test.

    Short-circuits when chi(g) != k; otherwise scans vertices in
    ascending order and reports the first one whose deletion fails to
    lower the chromatic number.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    alpha = independence_number(g)
    chi = chromatic_number(g, alpha)
    if chi != k:
        return CriticalityReport(k=chi, is_critical=False, witness=None)
    comp = complement(g) if alpha <= 2 else None
    for v in range(g.n):
        if not _deletion_lowers_chi(g, comp, v, k):
            return CriticalityReport(k=chi, is_critical=False, witness=v)
    return CriticalityReport(k=chi, is_critical=True, witness=None)


# ===== extracting a critical induced subgraph =====

def _chi_at_least(g: Graph, k: int) -> bool:
    if independence_number(g) <= 2:
        comp = complement(g)
        return g.n - matching_raw(comp.n, comp.adj, (1 << g.n) - 1) >= k
    return is_k_colorable(g, k - 1) is None


def find_critical_subgraph(g: Graph, k: int) -> int:
    """Vertex mask (in g's labels) inducing a k-vertex-critical subgraph.

    Greedy peel: repeatedly delete the lowest-indexed vertex whose
    removal keeps the chromatic number at k or above, restarting the
    scan after each deletion.  When no vertex is deletable the remainder
    is k-vertex-critical.  Requires chi(g) >= k.
    """
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
