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
on a vertex mask, which builds no subgraph.  The entry points take a
Graph and build its complement rows once; ``chi_raw`` and the peel
work on raw rows and the vertex mask they start from, and
``_criticality`` is the test on raw rows, which ``verify_list`` also
calls with the rows it built.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .graph import Graph, _complement_rows, bits, check_int
from .invariants import (
    _bb_coloring,
    chi_raw,
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


def _peel(n: int, adj, co, active: int, k: int, chi: int, d) -> Iterator[int]:
    """Each vertex of ``active`` whose deletion from what is left keeps
    chi >= k, in ascending order, given (chi, d) = chi_raw(n, adj, co,
    active) with chi >= k; ``co``'s rows stay inside ``active``.

    When alpha <= 2 on the mask only deleting a vertex of D lowers chi
    (by one), so the next deletion is the lowest later vertex outside D,
    or any later vertex while chi > k; the blossom pass for the smaller
    mask runs after the yield, so a caller that stops there makes none.
    """
    if d is None:
        for v in bits(active):
            if _bb_coloring(n, adj, active ^ 1 << v, k) is None:
                active ^= 1 << v
                yield v
        return
    v = 0
    while drop := (active if chi > k else active & ~d) >> v << v:
        v = (drop & -drop).bit_length() - 1
        chi -= d >> v & 1
        active ^= 1 << v
        yield v
        d = matching_raw(n, co, active)[1]


def _criticality(n: int, adj, co, k: int) -> tuple[CriticalityReport, int | None]:
    """(report, D) of the k-criticality test on an order-n graph's rows
    ``adj`` and its complement rows ``co``; D is ``chi_raw``'s on the
    full mask, so it is not None exactly when alpha <= 2."""
    full = (1 << n) - 1
    chi, d = chi_raw(n, adj, co, full)
    if chi != k:
        return CriticalityReport(k=chi, is_critical=False, witness=None), d
    witness = next(_peel(n, adj, co, full, k, chi, d), None)
    return CriticalityReport(k=chi, is_critical=witness is None, witness=witness), d


def is_vertex_critical(g: Graph, k: int) -> CriticalityReport:
    """Exact k-vertex-criticality test, for an int k >= 1.

    Short-circuits when chi(g) != k; otherwise reports the lowest vertex
    whose deletion fails to lower the chromatic number, the peel's first.
    """
    check_int("k", k, 1)
    return _criticality(g.n, g.adj, _complement_rows(g.n, g.adj), k)[0]


# ===== extracting a critical induced subgraph =====

def find_critical_subgraph(g: Graph, k: int) -> int:
    """Vertex mask (in g's labels) inducing a k-vertex-critical subgraph.

    One ascending pass, the peel, deletes each vertex whose removal keeps
    chi >= k; a kept vertex stays kept, as chi(S - v) < k implies
    chi(S' - v) < k for S' inside S.  Requires an int k >= 1 and chi(g) >= k.
    """
    check_int("k", k, 1)
    co, active = _complement_rows(g.n, g.adj), (1 << g.n) - 1
    chi, d = chi_raw(g.n, g.adj, co, active)
    if chi < k:
        raise ValueError("graph is not even k-chromatic; nothing to extract")
    for v in _peel(g.n, g.adj, co, active, k, chi, d):
        active ^= 1 << v
    return active
