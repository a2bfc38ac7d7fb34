"""Criticality censuses over isomorph-free graph streams.

Two pipelines.  The fast one targets graphs with no induced P3+P1: every
k-vertex-critical such graph G has independence number two and at most
2k-1 vertices, so its complement F is triangle-free and
chi(G) = n - matching(F).  By Gallai's lemma G is then k-vertex-critical
exactly when every component of F is factor-critical and F has 2k - n
components.  So the census generates only the prime pieces (connected F
of odd order) and builds every other graph as a join of pieces.  The
general one enumerates all graphs up to a small order cap and filters
with the exact invariants directly; it exists to cross-check the fast
pipeline and to run small censuses for other forbidden patterns.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain, combinations_with_replacement, product
from multiprocessing import Pool

from .canon import canonical_form
from .critical import is_vertex_critical
from .generate import ALL_GRAPHS, TRIANGLE_FREE, Graph, child_graphs
from .graph import complement, from_graph6, join, read_graph_file
from .invariants import matching_raw
from .patterns import is_free, named_graph


# ===== census rows =====

@dataclass(frozen=True)
class CensusRow:
    """Isomorphism classes of the order-n census survivors.

    codes holds one canonical graph6 code per class.
    """

    n: int
    codes: tuple[str, ...]

    @property
    def count(self) -> int:
        return len(self.codes)

    def graphs(self) -> list[Graph]:
        return [from_graph6(c) for c in self.codes]


@contextmanager
def _mapper(workers: int):
    # an order-preserving map, over one process pool for the whole run
    if workers <= 1:
        yield map
        return
    with Pool(workers) as pool:
        yield partial(pool.imap, chunksize=16)


# ===== fast pipeline: prime pieces and their joins =====

def _piece_expand(parent: Graph, max_degree: int) -> tuple[list[Graph], list[str]]:
    # one augmentation step: the parent's accepted triangle-free children
    # of maximum degree <= max_degree and, at an odd order 2j-1, the
    # canonical codes of the complements of the children that are pieces,
    # i.e. factor-critical: every F - v has a perfect matching.  Cheap
    # necessary conditions go first: F has maximum degree <= j-1 (its
    # complement is j-critical, so of minimum degree >= j-1) and minimum
    # degree >= 2 (deleting a leaf's neighbour would strand the leaf)
    kids = child_graphs(parent, TRIANGLE_FREE, max_degree)
    n = parent.n + 1
    if n % 2 == 0:
        return kids, []
    j = (n + 1) // 2
    full = (1 << n) - 1
    codes = []
    for f in kids:
        if not all(2 <= a.bit_count() < j for a in f.adj):
            continue
        if all(matching_raw(n, f.adj, full ^ 1 << v) == j - 1 for v in range(n)):
            codes.append(canonical_form(complement(f)))
    return kids, codes


def _filtered_level(parents: list[Graph], max_degree: int,
                    mapper=map) -> tuple[list[Graph], list[str]]:
    # expand one order; children and piece codes come in parent order
    # whatever the mapper
    children: list[Graph] = []
    codes: list[str] = []
    for kids, found in mapper(partial(_piece_expand, max_degree=max_degree), parents):
        children.extend(kids)
        codes.extend(found)
    return children, codes


def _has_perfect_matching(f: Graph) -> bool:
    return 2 * matching_raw(f.n, f.adj, (1 << f.n) - 1) == f.n


def _pieces(top: int, mapper=map) -> dict[int, list[str]]:
    """Codes of the pieces P_1..P_top, each in discovery order.

    P_j holds the j-vertex-critical P3+P1-free graphs of order 2j-1,
    i.e. the complements of the factor-critical triangle-free graphs of
    order 2j-1.  P_1 is K1 and P_2 is empty (K2 = K1 v K1).  One
    canonical-augmentation run to order 2*top-1 finds them all: a piece
    of P_j has maximum degree <= j-1 <= top-1, so the run keeps to that
    bound.  Before the last step it drops the parents with no perfect
    matching, since the canonical parent F - v of a factor-critical F
    has one.
    """
    pieces = {1: [canonical_form(Graph(1, (0,)))]}
    level = [Graph(1, (0,))]
    for n in range(2, 2 * top):
        if n == 2 * top - 1:
            level = [f for f in level if _has_perfect_matching(f)]
        level, codes = _filtered_level(level, top - 1, mapper)
        if n % 2:
            pieces[(n + 1) // 2] = codes
    return pieces


def _partitions(total: int, parts: int, largest: int):
    # the partitions of total into `parts` parts of size <= largest, as
    # non-increasing tuples, largest first part first
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(largest, total - parts + 1), 0, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def _assembled(pieces: dict[int, list[str]], k: int, n: int) -> list[str]:
    # codes of the order-n k-vertex-critical P3+P1-free graphs: one join
    # per multiset of pieces P_j whose sizes j form a partition of k into
    # 2k - n parts
    codes: list[str] = []
    for parts in _partitions(k, 2 * k - n, k):
        if len(parts) == 1:
            codes.extend(pieces[k])
            continue
        picks = product(*(combinations_with_replacement(pieces[j], c)
                          for j, c in Counter(parts).items()))
        for pick in picks:
            factors = [from_graph6(c) for c in chain.from_iterable(pick)]
            codes.append(canonical_form(reduce(join, factors)))
    return codes


def _critical_graphs(pieces: dict[int, list[str]], k: int, n_cap: int) -> list[Graph]:
    # every k-vertex-critical P3+P1-free graph of order <= n_cap
    return [from_graph6(c) for n in range(k, min(n_cap, 2 * k - 1) + 1)
            for c in _assembled(pieces, k, n)]


def _join_cross_check(k: int, n_max: int, pieces: dict[int, list[str]],
                      found: set[str]) -> None:
    # every join of a k1- and a k2-critical P3+P1-free graph with
    # k1 + k2 = k is itself such a graph, so it must be in the census;
    # the factors are assembled on their own from the same pieces, so a
    # miss means the assembly lost a graph
    for k1 in range(1, k // 2 + 1):
        k2 = k - k1
        for g in _critical_graphs(pieces, k1, n_max - k2):
            for h in _critical_graphs(pieces, k2, n_max - g.n):
                code = canonical_form(join(g, h))
                if code not in found:
                    raise RuntimeError(
                        f"census for k={k} is missing the join of a {k1}- and "
                        f"a {k2}-critical factor ({code})")


def census_copaw_critical(k: int, n_max: int | None = None,
                          workers: int = 1) -> list[CensusRow]:
    """Census of k-vertex-critical P3+P1-free graphs, one row per order.

    Orders run from k to n_max (default 2k-1, which is the exact maximum
    order such a graph can have).  Every survivor is recorded as the
    canonical code of the graph itself (not of its triangle-free
    complement).

    The order-n graphs are the joins of pieces P_j (see ``_pieces``) over
    the partitions of k into 2k - n parts: the co-components of such a
    graph are pieces, and chi and criticality add up over a join.  A part
    j of such a partition is at most n_max - k + 1, so the pieces come
    from one run to order 2(n_max - k) + 1.  The order-(2k-1) row lists
    P_k in discovery order, the lower rows their joins in assembly order.
    Joins of smaller censuses, assembled from the same pieces, are
    checked to be present.
    """
    if not 3 <= k <= 6:
        raise ValueError("k must be in 3..6 (k = 7 would take hours; its "
                         "order-13 search space holds about 2e7 graphs)")
    cap = 2 * k - 1
    if n_max is None:
        n_max = cap
    if not k <= n_max <= cap:
        raise ValueError(f"n_max must be in {k}..{cap}")
    with _mapper(workers) as mapper:
        pieces = _pieces(n_max - k + 1, mapper)
    rows = [CensusRow(n, tuple(_assembled(pieces, k, n))) for n in range(k, n_max + 1)]
    _join_cross_check(k, n_max, pieces, {c for row in rows for c in row.codes})
    return rows


# ===== general pipeline: all graphs of bounded order =====

def census_general(k: int, pattern: str | Graph | None, n_max: int,
                   alpha_le_2: bool = False, workers: int = 1) -> list[CensusRow]:
    """Census of k-vertex-critical pattern-free graphs of order <= n_max.

    pattern None means no freeness filter.  Default mode enumerates every
    graph class (n_max <= 9); alpha_le_2 restricts the search space to
    graphs with independence number two via triangle-free complements
    (n_max <= 11) and is only exhaustive for targets known to force
    alpha <= 2.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    cap = 11 if alpha_le_2 else 9
    if not k <= n_max <= cap:
        raise ValueError(f"n_max must be in {k}..{cap} for this mode")
    if isinstance(pattern, str):
        pattern = named_graph(pattern)
    expand = partial(child_graphs, mode=TRIANGLE_FREE if alpha_le_2 else ALL_GRAPHS)
    survives = partial(_general_survivor, k=k, pattern=pattern)
    rows = []
    level = [Graph(1, (0,))]
    with _mapper(workers) as mapper:
        for n in range(1, n_max + 1):
            if n > 1:
                level = [c for kids in mapper(expand, level) for c in kids]
            if n < k:
                continue
            cands = [complement(g) for g in level] if alpha_le_2 else level
            rows.append(CensusRow(n, tuple(
                canonical_form(g) for g, ok in zip(cands, mapper(survives, cands)) if ok)))
    return rows


def _general_survivor(g: Graph, k: int, pattern: Graph | None) -> bool:
    if min(a.bit_count() for a in g.adj) < k - 1:
        return False
    if pattern is not None and not is_free(g, pattern):
        return False
    return is_vertex_critical(g, k).is_critical


# ===== verifying shipped or user-supplied lists =====

@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking a graph list file.

    failures pairs a line number with what went wrong there; codes holds
    the canonical code of every listed graph in file order.  census_match
    is None unless a reference code set was supplied.
    """

    total: int
    failures: tuple[tuple[int, str], ...]
    codes: tuple[str, ...]
    census_match: bool | None = None

    @property
    def ok(self) -> bool:
        return not self.failures and self.census_match is not False


def verify_list(path, k: int, pattern: str | Graph | None = None,
                census_codes=None) -> VerifyReport:
    """Check every graph in a file for freeness, criticality, novelty.

    Each listed graph must be pattern-free (when a pattern is given),
    k-vertex-critical, and not isomorphic to an earlier listed graph;
    offenders are reported by line number.  When census_codes is given,
    the file must also match it as a set of isomorphism classes.
    """
    if isinstance(pattern, str):
        pattern = named_graph(pattern)
    failures: list[tuple[int, str]] = []
    codes: list[str] = []
    seen: dict[str, int] = {}
    entries = read_graph_file(path)
    for lineno, g in entries:
        code = canonical_form(g)
        codes.append(code)
        if code in seen:
            failures.append((lineno, f"isomorphic to the graph on line {seen[code]}"))
        else:
            seen[code] = lineno
        if pattern is not None and not is_free(g, pattern):
            failures.append((lineno, "contains the forbidden pattern"))
        if not is_vertex_critical(g, k).is_critical:
            failures.append((lineno, f"not {k}-vertex-critical"))
    match = None
    if census_codes is not None:
        match = set(census_codes) == set(codes)
    return VerifyReport(len(entries), tuple(failures), tuple(codes), match)
