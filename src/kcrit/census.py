"""Criticality censuses over isomorph-free graph streams.

Two pipelines.  The fast one targets graphs with no induced P3+P1: every
k-vertex-critical such graph G has independence number two and at most
2k-1 vertices, so its complement F is triangle-free and
chi(G) = n - matching(F).  By Gallai's lemma G is then k-vertex-critical
exactly when every component of F is factor-critical and F has 2k - n
components.  So the census generates only the prime pieces (connected F
of odd order) and builds every other graph as a join of pieces.  The
general one enumerates every graph up to order 9 and filters with the
exact invariants directly; it cross-checks the fast pipeline and runs
small censuses for other forbidden patterns, or for none.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain, combinations_with_replacement, product
from multiprocessing import Pool

from .canon import canonical_form
from .critical import is_vertex_critical
from .generate import TRIANGLE_FREE, Graph, child_graphs
from .graph import check_int, complement, from_graph6, join, read_graph_file
from .invariants import gallai_edmonds_raw, matching_raw
from .patterns import as_pattern, is_free


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


@contextmanager
def _mapper(workers: int):
    # an order-preserving map, over one process pool for the whole run
    check_int("workers", workers, 1)
    cpus = os.cpu_count() or 1
    if workers > cpus:
        raise ValueError(f"workers must be at most the CPU count {cpus}, got {workers}")
    if workers == 1:
        yield map
        return
    with Pool(workers) as pool:
        yield partial(pool.imap, chunksize=16)


# ===== fast pipeline: prime pieces and their joins =====

def _piece_expand(item, max_degree: int, leaf: bool):
    # one augmentation step from item = (parent, its generators or None):
    # the parent's accepted triangle-free children of maximum degree
    # <= max_degree with their generators (none at the leaf, the last
    # order, where only pieces are wanted) and, at an odd order 2j-1, the
    # canonical codes of the complements of the children that are pieces,
    # i.e. factor-critical: one blossom pass finds a maximum matching that
    # leaves one vertex exposed and the Gallai-Edmonds set D (the vertices
    # some maximum matching leaves exposed) to be every vertex.  Cheap
    # necessary conditions go first: F has maximum degree <= j-1 (its
    # complement is j-critical, so of minimum degree >= j-1) and minimum
    # degree >= 2 (deleting a leaf's neighbour would strand the leaf); at
    # the leaf the children are generated with that minimum degree
    parent, gens = item
    kid_gens: list = []
    kids = child_graphs(parent, TRIANGLE_FREE, max_degree,
                        min_degree=2 if leaf else None, gens=gens, child_gens=kid_gens)
    n = parent.n + 1
    codes = []
    if n % 2:
        j = (n + 1) // 2
        full = (1 << n) - 1
        for f in kids:
            if not all(2 <= a.bit_count() < j for a in f.adj):
                continue
            mates, d = gallai_edmonds_raw(n, f.adj, full)
            if mates.count(-1) == 1 and d == full:
                codes.append(canonical_form(complement(f)))
    if leaf:
        return [], [], codes
    return kids, kid_gens, codes


def _filtered_level(parents: list[Graph], max_degree: int, mapper=map,
                    gens: list | None = None, leaf: bool = False):
    """Expand one order: ((children, their generators), piece codes).

    gens, parallel to parents, holds each parent's automorphism
    generators or None (then the step labels the parent itself), and the
    children's generators come back the same way.  At the leaf no
    children are kept.  Everything comes in parent order whatever the
    mapper.
    """
    if gens is None:
        gens = [None] * len(parents)
    children: list[Graph] = []
    child_gens: list = []
    codes: list[str] = []
    step = partial(_piece_expand, max_degree=max_degree, leaf=leaf)
    for kids, kid_gens, found in mapper(step, zip(parents, gens)):
        children.extend(kids)
        child_gens.extend(kid_gens)
        codes.extend(found)
    return (children, child_gens), codes


def _deficiency(f: Graph) -> int:
    # vertices a maximum matching of f leaves exposed
    return f.n - 2 * matching_raw(f.n, f.adj, (1 << f.n) - 1)


def _pieces(top: int, mapper=map) -> dict[int, list[str]]:
    """Codes of the pieces P_1..P_top, each in discovery order.

    P_j holds the j-vertex-critical P3+P1-free graphs of order 2j-1,
    i.e. the complements of the factor-critical triangle-free graphs of
    order 2j-1.  P_1 is K1 and P_2 is empty (K2 = K1 v K1).  One
    canonical-augmentation run to order N = 2*top-1 finds them all: a
    piece of P_j has maximum degree <= j-1 <= top-1, so the run keeps to
    that bound.  Before expanding order m it drops the graphs of
    deficiency above N-1-m: every F - v of a factor-critical F on
    N' <= N vertices has a perfect matching, and each further deleted
    vertex raises the deficiency by at most one, so an order-m ancestor
    of a piece has deficiency <= N'-1-m.  The last step generates
    minimum degree >= 2 only, and keeps no children.
    """
    last = 2 * top - 1
    pieces = {1: [canonical_form(Graph(1, (0,)))]}
    level, gens = [Graph(1, (0,))], [None]
    for n in range(2, last + 1):
        slack = last - n
        if slack < n - 1:       # a deficiency never exceeds the order
            kept = [i for i, f in enumerate(level) if _deficiency(f) <= slack]
            level, gens = [level[i] for i in kept], [gens[i] for i in kept]
        (level, gens), codes = _filtered_level(level, top - 1, mapper, gens, n == last)
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

    Orders run from k, an int in 3..6, to n_max (default 2k-1, the exact
    maximum order such a graph can have).  Every survivor is recorded as
    the canonical code of the graph itself (not of its triangle-free
    complement).

    The order-n graphs are the joins of pieces P_j (see ``_pieces``) over
    the partitions of k into 2k - n parts: the co-components of such a
    graph are pieces, and chi and criticality add up over a join.  A part
    j of such a partition is at most n_max - k + 1, so the pieces come
    from one run to order 2(n_max - k) + 1.  The order-(2k-1) row lists
    P_k in discovery order, the lower rows their joins in assembly order.
    Joins of smaller censuses, assembled from the same pieces, are
    checked to be present.  ``workers`` (1 to the CPU count) is the number
    of processes that expand the pieces.
    """
    check_int("k", k, 3)
    if k > 6:
        raise ValueError("k must be in 3..6 (k = 7 would take hours; its "
                         "order-13 search space holds about 2e7 graphs)")
    if n_max is None:
        n_max = 2 * k - 1
    check_int("n_max", n_max, k, 2 * k - 1)
    with _mapper(workers) as mapper:
        pieces = _pieces(n_max - k + 1, mapper)
    rows = [CensusRow(n, tuple(_assembled(pieces, k, n))) for n in range(k, n_max + 1)]
    _join_cross_check(k, n_max, pieces, {c for row in rows for c in row.codes})
    return rows


# ===== general pipeline: all graphs of bounded order =====

def census_general(k: int, pattern: str | Graph | None, n_max: int,
                   workers: int = 1) -> list[CensusRow]:
    """Census of k-vertex-critical pattern-free graphs of order <= n_max.

    pattern is a name, a Graph or None (no freeness filter).  Every graph
    class of order k..n_max is tested, so n_max is capped at 9 (order 10
    alone has about 1.2e7 classes).  ``workers`` (1 to the CPU count) is
    the number of processes.
    """
    check_int("k", k, 1, 9)
    check_int("n_max", n_max, k, 9)
    pattern = None if pattern is None else as_pattern(pattern)
    survives = partial(_general_survivor, k=k, pattern=pattern)
    rows = []
    level = [Graph(1, (0,))]
    with _mapper(workers) as mapper:
        for n in range(1, n_max + 1):
            if n > 1:
                level = [c for kids in mapper(child_graphs, level) for c in kids]
            if n < k:
                continue
            rows.append(CensusRow(n, tuple(
                canonical_form(g) for g, ok in zip(level, mapper(survives, level)) if ok)))
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

    Each listed graph must be pattern-free (when a pattern, a name or a
    Graph, is given), k-vertex-critical (k an int >= 1, checked before the
    file is read), and not isomorphic to an earlier listed graph;
    offenders are reported by line number.  When census_codes is given,
    the file must also match it as a set of isomorphism classes.
    """
    check_int("k", k, 1)
    pattern = None if pattern is None else as_pattern(pattern)
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
