"""Criticality censuses over isomorph-free graph streams.

Two pipelines.  The fast one targets graphs with no induced P3+P1: every
k-vertex-critical such graph G has independence number two and at most
2k-1 vertices, so its complement F is triangle-free and
chi(G) = n - matching(F).  By Gallai's lemma G is then k-vertex-critical
exactly when every component of F is factor-critical and F has 2k - n
components.  So the census generates only the prime pieces (connected F
of odd order) and builds every other graph as a join of pieces; each
rule of that run is decided on the parent's matching structure, per
attachment set, before the canonicity test.  The general one grows
complements up to order 9, under the degree bound every k-critical graph
obeys and the pattern alone, and tests criticality directly on the
children within their own order's bound; it cross-checks the fast
pipeline and runs small censuses for other forbidden patterns, or for
none.  Both are read off one run from the empty graph (``_levels``), each
with its own expand rule.
"""

from __future__ import annotations

import os
from collections import Counter
from collections.abc import Iterable
from contextlib import contextmanager
from functools import partial, reduce
from itertools import chain, combinations_with_replacement, product
from typing import NamedTuple

from .canon import canonical_form
from .critical import _criticality, is_vertex_critical
from .generate import ALL_GRAPHS, TRIANGLE_FREE, Graph, child_graphs
from .graph import (_graph6_stream, bits, check_int, complement, from_graph6,
                    graph6_from_stream, join, read_graph_file)
from .invariants import alternating_forest, matching_raw
from .patterns import as_pattern, is_free, is_p3p1


# ===== census rows =====

class CensusRow(NamedTuple):
    """Isomorphism classes of the order-n census survivors.

    codes holds one canonical graph6 code per class.
    """

    n: int
    codes: tuple[str, ...]

    @property
    def count(self) -> int:
        return len(self.codes)


def Pool(processes: int):
    # multiprocessing is imported by the first pool, not with kcrit
    from multiprocessing import Pool
    return Pool(processes)


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

def _piece_expand(parent: Graph, last: int):
    """One augmentation step from parent P in a run to the last order N.

    Returns the children kept for the next step and, at an odd order,
    the codes of the complements of the children that are pieces.  One
    predicate on the set S that the new vertex p is joined to decides
    every rule on P, before any canonicity test:

    - degree cap: a piece of P_j has a j-critical complement, so maximum
      degree <= j-1; S holds no vertex of that degree in P (so |S| <=
      min(deg) + 1 <= (N-1)//2, or S is empty);
    - deficiency: an order-n ancestor of a piece leaves at most N-1-n
      vertices exposed; F = P + p leaves e(P) - 1 if S meets D(P) (p
      matched to such an s grows a maximum matching), e(P) + 1
      otherwise, so only a parent at e(P) = N-n has sets to drop;
    - piece test: at an odd order, F is factor-critical iff P has a
      perfect matching M and the D(P - s), s in S, cover P (F - u has
      one iff p is matched to some s with P - s - u perfectly
      matchable); D(P - s) is the even set of a search from M(s) under
      M less the edge at s.  At order N it is the last rule (it implies
      minimum degree 2), and no child is kept.
    """
    p, adj = parent.n, parent.adj
    n, full, cap = p + 1, (1 << p) - 1, (last - 1) // 2
    low = sum(1 << v for v, a in enumerate(adj) if a.bit_count() < cap)
    mates, d = matching_raw(p, adj, full)
    exposed = mates.count(-1)
    # reach[s]: the u for which P - s - u has a perfect matching, for the
    # s in low (admit reads no other); all 0 where no child can be a piece
    reach = [0] * p
    for s in bits(low if n % 2 and not exposed else 0):
        reach[s] = alternating_forest(p, adj, full ^ 1 << s, mates, mates[s])

    def is_piece(s: int) -> bool:
        r = 0
        for v in bits(s):
            r |= reach[v]
        return r == full

    def admit(s: int) -> bool:
        if s & ~low:
            return False
        return is_piece(s) if n == last else exposed < last - n or s & d != 0

    kids = child_graphs(parent, TRIANGLE_FREE, admit)
    codes = [canonical_form(complement(f)) for f in kids if is_piece(f.adj[-1])]
    return ([] if n == last else kids), codes


def _filtered_level(parents: list[Graph], expand, mapper=map):
    """Expand one order of a run: (children, codes found).

    ``_levels`` takes one such step per order.  expand maps a parent to
    (children kept, codes), as ``_piece_expand`` and ``_general_expand``
    do.  The children carry the automorphism generators their acceptance
    found, so the next order need not label them again.  Everything
    comes in parent order whatever the mapper.
    """
    children: list[Graph] = []
    codes: list[str] = []
    for kids, found in mapper(expand, parents):
        children.extend(kids)
        codes.extend(found)
    return children, codes


def _levels(expand, last: int, mapper=map):
    """(children, codes) of orders 1..last of a run from the empty graph."""
    level = [Graph(0, ())]
    for _ in range(last):
        level, codes = _filtered_level(level, expand, mapper)
        yield level, codes


def _pieces(top: int, mapper=map) -> dict[int, list[str]]:
    """Codes of the pieces P_1..P_top, each in discovery order.

    P_j holds the j-vertex-critical P3+P1-free graphs of order 2j-1,
    i.e. the complements of the factor-critical triangle-free graphs of
    order 2j-1.  P_1 is K1 and P_2 is empty (K2 = K1 v K1).  One
    canonical-augmentation run to order N = 2*top-1 finds them all.  Its
    rules (see _piece_expand) follow from N, and they hold for every
    ancestor of a piece, an induced subgraph of it.
    """
    last = 2 * top - 1
    levels = _levels(partial(_piece_expand, last=last), last, mapper)
    return {(n + 1) // 2: codes for n, (_, codes) in enumerate(levels, 1) if n % 2}


def _join_code(codes: list[str]) -> str:
    # canonical code of the join of the graphs with these canonical codes.
    # Each lists its dominating vertices first, then its core in the
    # core's canonical labelling (see kcrit.canon), so K_m, m the cliques'
    # vertices, then the one factor F with a core is in canonical
    # labelling: column j of its stream is j ones for j < m, then m ones
    # and F's column j - m.  Only two or more cores are searched
    m, cores = 0, []
    for code in codes:
        n, stream = _graph6_stream(code)
        if stream == (1 << n * (n - 1) // 2) - 1:
            m += n
        else:
            cores.append((n, stream))
    if len(cores) > 1:
        return canonical_form(reduce(join, map(from_graph6, codes)))
    f, core = cores[0] if cores else (0, 0)
    stream, ones = (1 << m * (m - 1) // 2) - 1, (1 << m) - 1
    for j in range(f):
        col = core >> (f * (f - 1) - j * (j + 1)) // 2 & (1 << j) - 1
        stream = (stream << m | ones) << j | col
    return graph6_from_stream(m + f, stream)


def _assembled(pieces: dict[int, list[str]], k: int, n: int) -> list[str]:
    # codes of the order-n k-vertex-critical P3+P1-free graphs: one join
    # per multiset of pieces P_j whose sizes j form a partition of k into
    # 2k - n parts, taken as non-increasing tuples, largest first part first
    codes: list[str] = []
    for parts in combinations_with_replacement(range(k, 0, -1), 2 * k - n):
        if sum(parts) != k:
            continue
        if len(parts) == 1:
            codes.extend(pieces[k])
            continue
        picks = product(*(combinations_with_replacement(pieces[j], c)
                          for j, c in Counter(parts).items()))
        for pick in picks:
            codes.append(_join_code(list(chain.from_iterable(pick))))
    return codes


def _critical_codes(pieces: dict[int, list[str]], k: int, n_cap: int):
    # (order, code) of every k-vertex-critical P3+P1-free graph of order <= n_cap
    return [(n, c) for n in range(k, min(n_cap, 2 * k - 1) + 1)
            for c in _assembled(pieces, k, n)]


def _join_cross_check(k: int, n_max: int, pieces: dict[int, list[str]],
                      found: set[str]) -> None:
    # every join of a k1- and a k2-critical P3+P1-free graph with
    # k1 + k2 = k is itself such a graph, so it must be in the census;
    # the factors are assembled on their own from the same pieces, so a
    # miss means the assembly lost a graph.  Both sides are coded by
    # _join_code: the shipped lists, not this check, show the codes canonical
    for k1 in range(1, k // 2 + 1):
        k2 = k - k1
        for n1, g in _critical_codes(pieces, k1, n_max - k2):
            for _, h in _critical_codes(pieces, k2, n_max - n1):
                code = _join_code([g, h])
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
        raise ValueError("k must be in 3..6 (a k = 7 run took 644 s of wall time on 2 "
                         "workers, peaking at 924 MB: 835,161 graphs at order 12, "
                         "6,349,630 pieces at order 13)")
    if n_max is None:
        n_max = 2 * k - 1
    check_int("n_max", n_max, k, 2 * k - 1)
    with _mapper(workers) as mapper:
        pieces = _pieces(n_max - k + 1, mapper)
    rows = [CensusRow(n, tuple(_assembled(pieces, k, n))) for n in range(k, n_max + 1)]
    _join_cross_check(k, n_max, pieces, {c for row in rows for c in row.codes})
    return rows


# ===== general pipeline: bounded order, any pattern =====

def _general_expand(parent: Graph, k: int, last: int, pattern: Graph | None):
    """One step of a general run to order last, over complements F.

    A k-critical G of order n has minimum degree >= k-1, so F has
    maximum degree <= n - k, and every ancestor of F, an induced subgraph
    of it, maximum degree <= cap = last - k: S avoids the parent's
    vertices of degree cap (child_graphs' degree rule then keeps |S| <=
    cap).  No descendant of a child whose complement holds the pattern is
    free.  Only a child within its own order's bound n - k (so n >= k)
    is tested for criticality.  (children kept, none at order last; codes
    of the complements that are k-vertex-critical)
    """
    n, cap = parent.n + 1, last - k
    heavy = sum(1 << v for v, a in enumerate(parent.adj) if a.bit_count() >= cap)
    kids, codes = [], []
    for f in child_graphs(parent, ALL_GRAPHS, lambda s: not s & heavy):
        g = complement(f)
        if pattern is None or is_free(g, pattern):
            kids.append(f)
            if (max(a.bit_count() for a in f.adj) <= n - k
                    and is_vertex_critical(g, k).is_critical):
                codes.append(canonical_form(g))
    return ([] if n == last else kids), codes


def census_general(k: int, pattern: str | Graph | None, n_max: int,
                   workers: int = 1) -> list[CensusRow]:
    """Census of k-vertex-critical pattern-free graphs of order <= n_max.

    pattern is a name, a Graph or None (no freeness filter).  The rows
    are orders k..n_max of one run from the empty graph (``_levels``)
    that grows the complements (see ``_general_expand``).
    n_max is capped at 9, as the cap and a loose pattern prune little of
    the 1.2e7 classes of order 10: (5, "co-K4", 10) takes 200 s of CPU,
    (3, None, 10) far longer.  ``workers`` (1 to the CPU count) is the
    number of processes.
    """
    check_int("k", k, 1, 9)
    check_int("n_max", n_max, k, 9)
    pattern = None if pattern is None else as_pattern(pattern)
    expand = partial(_general_expand, k=k, last=n_max, pattern=pattern)
    with _mapper(workers) as mapper:
        return [CensusRow(n, tuple(codes))
                for n, (_, codes) in enumerate(_levels(expand, n_max, mapper), 1) if n >= k]


# ===== verifying shipped or user-supplied lists =====

class VerifyReport(NamedTuple):
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
    Graph, is given), k-vertex-critical (k an int >= 1), and not
    isomorphic to an earlier listed graph; offenders are reported by
    line number.  When census_codes (an iterable of str codes) is given,
    the file must also match it as a set of isomorphism classes.  The
    arguments are checked before the file is read.

    Each graph gets one complement and one ``chi_raw`` pass, which the
    criticality test reads.  The pass returns D exactly when alpha <= 2,
    and a graph with alpha <= 2 is P3+P1-free (P3+P1 has three
    independent vertices), so only a graph with alpha > 2, or a pattern
    other than P3+P1, goes to ``is_free``.
    """
    check_int("k", k, 1)
    pattern = None if pattern is None else as_pattern(pattern)
    p3p1 = pattern is not None and is_p3p1(pattern)
    want = None if census_codes is None else _code_set(census_codes)
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
        report, d = _criticality(g.n, g.adj, complement(g).adj, k)
        # D is not None exactly when alpha <= 2, which rules out P3+P1
        if pattern is not None and not (p3p1 and d is not None or is_free(g, pattern)):
            failures.append((lineno, "contains the forbidden pattern"))
        if not report.is_critical:
            failures.append((lineno, f"not {k}-vertex-critical"))
    match = None if want is None else want == set(codes)
    return VerifyReport(len(entries), tuple(failures), tuple(codes), match)


def _code_set(census_codes) -> set[str]:
    # a str is one code, not an iterable of codes
    if isinstance(census_codes, str) or not isinstance(census_codes, Iterable):
        raise ValueError(f"census_codes must be None or an iterable of str codes, "
                         f"got {census_codes!r}")
    codes = list(census_codes)
    for c in codes:
        if not isinstance(c, str):
            raise ValueError(f"census_codes must hold str codes only, got {c!r}")
    return set(codes)
