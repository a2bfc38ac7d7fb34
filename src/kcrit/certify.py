"""Certifying k-colorability for graphs with no induced P3+P1.

Each query makes one join decomposition (``copaw_decompose``).  It
decides membership in the class: when it fails, the input is outside
the class, and only then does an embedding search find the offending
induced P3+P1.  Otherwise it gives chi and an optimal coloring, factor
by factor.  Because the k-vertex-critical graphs in the class form a
finite list for each k, the shipped lists (read-only
``data/critical<k>.g6``) turn k-colorability into a certified decision:
a Yes comes with the structural coloring, a No with a vertex set
inducing a (k+1)-vertex-critical graph found in the list, and an input
outside the class with its induced P3+P1.  Every certificate is
checkable without trusting the lists or the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .canon import canonical_form
from .critical import find_critical_subgraph, is_vertex_critical
from .graph import (Graph, bits, check_int, from_graph6, induced_subgraph,
                    mask_of, read_graph_list)
from .invariants import Coloring, gallai_edmonds_raw, is_proper_coloring
from .patterns import (JoinDecomposition, contains_induced, copaw_decompose, is_p3p1,
                       named_graph)

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
    # a graph6 code starts with chr(n + 63), so sorting the codes groups
    # the members by order, smallest first
    return tuple([from_graph6(c) for c in sorted(codes)])


_DATA = Path(__file__).with_name("data")


def build_database(k: int) -> CriticalDatabase:
    """The level-k database, read from the shipped ``data/critical<k>.g6``;
    ValueError unless k is an int in 4..6 and the file is a level-k list, no repeats."""
    check_int("k", k, 4, 6)
    path = _DATA / f"critical{k}.g6"
    level, lines = read_graph_list(path)
    if level is None:
        raise ValueError(f"{path}: missing header line, expected level {k}")
    if level != k:
        raise ValueError(f"{path}: header names level {level}, expected {k}")
    codes = frozenset(code for _, code in lines)
    if len(codes) < len(lines):
        seen = set()        # seen.add gives None: next() stops at the first repeat
        lineno = next(ln for ln, code in lines if code in seen or seen.add(code))
        raise ValueError(f"{path}:{lineno}: repeated code")
    return CriticalDatabase(k, codes)


# ===== structural coloring inside the class =====

def _structural_coloring(g: Graph, dec: JoinDecomposition) -> Coloring:
    # optimal coloring of a P3+P1-free graph from its join decomposition
    # dec, on raw masks; factors take disjoint palettes, so the total is
    # the sum of exact factor chromatic numbers
    co = dec.co
    colors = [-1] * g.n
    offset = 0
    for factor, small in zip(dec.factors, dec.alpha_le_2):
        if small:
            # pair up nonadjacent vertices via a maximum matching in the
            # complement; pairs share a color, leftovers get their own
            mates = gallai_edmonds_raw(g.n, co, factor)[0]
            for v in bits(factor):
                if colors[v] < 0:
                    colors[v] = offset
                    if mates[v] != -1:
                        colors[mates[v]] = offset
                    offset += 1
        else:
            # each component is a clique: number the vertices inside each one
            largest = 0
            for v in bits(factor):
                if colors[v] < 0:
                    clique = (g.adj[v] | 1 << v) & factor
                    for i, u in enumerate(bits(clique)):
                        colors[u] = offset + i
                    largest = max(largest, clique.bit_count())
            offset += largest
    return Coloring(tuple(colors), offset)


# ===== certified decisions =====

def certify_color(g: Graph, k: int, db: CriticalDatabase) -> CertifiedAnswer:
    """Decide k-colorability of g with an independently checkable witness.

    Requires an int k in 3..5 and the database one level up (db.k == k + 1).
    One join decomposition decides membership in the class and, inside
    it, gives the coloring; an input outside the class gets the
    lexicographically first embedding of P3+P1 as its witness.  When
    chi(g) > k, the first database member, smallest order first, that
    embeds in g gives the witness.
    """
    check_int("k", k, 3, 5)
    if db.k != k + 1:
        raise ValueError(f"need the level-{k + 1} database, got level {db.k}")
    dec = copaw_decompose(g)
    if dec is None:
        hit = contains_induced(g, _P3P1)
        return CertifiedAnswer(NOT_IN_CLASS, witness=mask_of(hit))
    coloring = _structural_coloring(g, dec)
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
    """Check an answer by direct recomputation, never the database; False
    on a payload of the wrong type (a bool is no int), ValueError on a bad k."""
    check_int("k", k, 0)
    if answer.verdict == YES:
        c = answer.coloring
        if answer.witness is not None or not isinstance(c, Coloring):
            return False
        # is_proper_coloring rejects a c.k that is not an int first
        return is_proper_coloring(g, c) and c.k <= k
    s = answer.witness
    if answer.coloring is not None or type(s) is not int:
        return False
    if s <= 0 or s >> g.n:
        return False
    sub = induced_subgraph(g, s)
    if answer.verdict == NO:
        return is_vertex_critical(sub, k + 1).is_critical
    if answer.verdict == NOT_IN_CLASS:
        return is_p3p1(sub)
    return False
