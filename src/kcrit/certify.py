"""Certifying k-colorability for graphs with no induced P3+P1.

Because the k-vertex-critical graphs in this class form a finite list
for each k, a database of those lists turns k-colorability into a
certified decision: a Yes comes with a proper coloring found
structurally from the join decomposition, a No comes with a vertex set
inducing a (k+1)-vertex-critical graph, and inputs outside the class
yield the offending induced P3+P1.  Every certificate is checkable
without trusting the database or the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .canon import canonical_form, is_isomorphic
from .census import census_copaw_critical
from .critical import find_critical_subgraph, is_vertex_critical
from .graph import Graph, bits, from_graph6, induced_subgraph, mask_of
from .invariants import Coloring, alpha_le_2_chi, is_proper_coloring
from .patterns import contains_induced, copaw_decompose, named_graph

YES = "yes"
NO = "no"
NOT_IN_CLASS = "not-in-class"

_P3P1 = named_graph("P3+P1")


# ===== certificates =====

@dataclass(frozen=True)
class CertifiedAnswer:
    """Verdict plus exactly one matching payload.

    coloring is present iff the verdict is yes; witness is a vertex mask
    present iff the verdict is no (induces a (k+1)-vertex-critical
    graph) or not-in-class (induces P3+P1).
    """

    verdict: str
    coloring: Coloring | None = None
    witness: int | None = None


# ===== the critical-graph database =====

@dataclass(frozen=True)
class CriticalDatabase:
    """All k-vertex-critical P3+P1-free graphs, as canonical codes."""

    k: int
    graphs: frozenset[str]

    def members_by_order(self) -> tuple[Graph, ...]:
        return _decode_members(self.graphs)


@lru_cache(maxsize=8)
def _decode_members(codes: frozenset[str]) -> tuple[Graph, ...]:
    decoded = [from_graph6(c) for c in sorted(codes)]
    return tuple(sorted(decoded, key=lambda g: g.n))


def _data_file(k: int):
    from importlib.resources import files

    return files("kcrit").joinpath(f"data/critical{k}.g6")


def save_database(db: CriticalDatabase, path) -> None:
    """Write "k=<level> count=<n>" then one canonical code per line."""
    lines = [f"k={db.k} count={len(db.graphs)}"]
    lines.extend(sorted(db.graphs))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_database(path_or_text) -> CriticalDatabase:
    """Read a database file; validates the header against the body."""
    if hasattr(path_or_text, "read_text"):
        text = path_or_text.read_text(encoding="ascii")
    else:
        with open(path_or_text, encoding="ascii") as fh:
            text = fh.read()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("k="):
        raise ValueError("missing database header line 'k=<level> count=<n>'")
    head = dict(part.split("=", 1) for part in lines[0].split())
    k = int(head["k"])
    count = int(head["count"])
    codes = frozenset(lines[1:])
    if len(codes) != count or count != len(lines) - 1:
        raise ValueError(f"header says {count} graphs, body has {len(lines) - 1}")
    return CriticalDatabase(k, codes)


def build_database(k: int, from_census: bool = False,
                   workers: int = 1) -> CriticalDatabase:
    """The level-k database, loaded from shipped data or censused afresh.

    Shipped files cover k in 4..6; from_census forces recomputation
    (slow for k=6) and is how the shipped files were produced.
    """
    if not 4 <= k <= 6:
        raise ValueError("databases exist for k in 4..6")
    if not from_census:
        res = _data_file(k)
        if res.is_file():
            return load_database(res)
    rows = census_copaw_critical(k, workers=workers)
    return CriticalDatabase(k, frozenset(c for r in rows for c in r.codes))


# ===== structural coloring inside the class =====

def _color_alpha_le_2(sub: Graph) -> list[int]:
    # pair up nonadjacent vertices via a maximum matching in the
    # complement; pairs share a color, leftovers get their own
    _, _, mates = alpha_le_2_chi(sub)
    colors = [-1] * sub.n
    nxt = 0
    for v in range(sub.n):
        if colors[v] >= 0:
            continue
        colors[v] = nxt
        if mates[v] != -1:
            colors[mates[v]] = nxt
        nxt += 1
    return colors


def _color_clique_union(sub: Graph) -> list[int]:
    # each component is a clique: number the vertices inside each one
    colors = [-1] * sub.n
    for v in range(sub.n):
        if colors[v] >= 0:
            continue
        comp_vertices = sorted(bits(sub.adj[v] | 1 << v))
        for i, u in enumerate(comp_vertices):
            colors[u] = i
    return colors


def _structural_coloring(g: Graph) -> Coloring:
    # optimal coloring of a P3+P1-free graph from its join decomposition;
    # factors take disjoint palettes, so the total is the sum of exact
    # factor chromatic numbers
    if g.n == 0:
        return Coloring((), 0)
    dec = copaw_decompose(g)
    colors = [0] * g.n
    offset = 0
    for factor, kind in zip(dec.factors, dec.kinds):
        verts = sorted(bits(factor))
        sub = induced_subgraph(g, factor)
        local = (_color_alpha_le_2(sub) if "alpha_le_2" in kind
                 else _color_clique_union(sub))
        for u, c in zip(verts, local):
            colors[u] = offset + c
        offset += max(local) + 1
    return Coloring(tuple(colors), offset)


# ===== certified decisions =====

def certify_color(g: Graph, k: int, db: CriticalDatabase) -> CertifiedAnswer:
    """Decide k-colorability of g with an independently checkable witness.

    Requires the database one level up (db.k == k + 1) and k in 3..5.
    """
    if k not in (3, 4, 5):
        raise ValueError("certified coloring supports k in 3..5")
    if db.k != k + 1:
        raise ValueError(f"need the level-{k + 1} database, got level {db.k}")
    hit = contains_induced(g, _P3P1)
    if hit is not None:
        return CertifiedAnswer(NOT_IN_CLASS, witness=mask_of(hit))
    coloring = _structural_coloring(g)
    if coloring.k <= k:
        return CertifiedAnswer(YES, coloring=coloring)
    # chi(g) > k, so some induced subgraph is (k+1)-vertex-critical and
    # the database must contain it; scan members small-to-large
    for member in db.members_by_order():
        if member.n > g.n:
            break
        phi = contains_induced(g, member)
        if phi is not None:
            return CertifiedAnswer(NO, witness=mask_of(phi))
    # unreachable if the database is complete; peel as a loud audit
    s = find_critical_subgraph(g, k + 1)
    if canonical_form(induced_subgraph(g, s)) not in db.graphs:
        raise RuntimeError("peel found a critical graph missing from the "
                           "database; the census is incomplete")
    return CertifiedAnswer(NO, witness=s)


def verify_certificate(g: Graph, k: int, answer: CertifiedAnswer) -> bool:
    """Check an answer using only direct recomputation, never the database."""
    if answer.verdict == YES:
        if answer.coloring is None or answer.witness is not None:
            return False
        return answer.coloring.k <= k and is_proper_coloring(g, answer.coloring)
    if answer.coloring is not None or answer.witness is None:
        return False
    s = answer.witness
    if s <= 0 or s >> g.n:
        return False
    sub = induced_subgraph(g, s)
    if answer.verdict == NO:
        return is_vertex_critical(sub, k + 1).is_critical
    if answer.verdict == NOT_IN_CLASS:
        return is_isomorphic(sub, _P3P1)
    return False
