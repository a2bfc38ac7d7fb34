"""Criticality censuses over isomorph-free graph streams.

Two pipelines.  The fast one targets graphs with no induced P3+P1: every
k-vertex-critical such graph has independence number two and at most
2k-1 vertices, so candidates are complements of triangle-free graphs F,
and both the chromatic number and the criticality test reduce to maximum
matchings in F (chi(complement(F)) = n - matching(F)).  The general one
enumerates all graphs up to a small order cap and filters with the exact
invariants directly; it exists to cross-check the fast pipeline and to
run small censuses for other forbidden patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from multiprocessing import Pool

from .canon import canonical_form
from .critical import is_vertex_critical
from .generate import ALL_GRAPHS, TRIANGLE_FREE, Graph, child_graphs, generate_level
from .graph import complement, from_graph6, join, read_graph_file
from .invariants import matching_raw
from .patterns import is_free, named_graph


# ===== census rows =====

@dataclass(frozen=True)
class CensusRow:
    """Isomorphism-class count of the order-n census survivors.

    codes holds one canonical graph6 code per class, in discovery order;
    count == len(codes).
    """

    n: int
    count: int
    codes: tuple[str, ...]

    def graphs(self) -> list[Graph]:
        return [from_graph6(c) for c in self.codes]


def _rows_from_buckets(orders, buckets) -> list[CensusRow]:
    return [CensusRow(n, len(buckets[n]), tuple(buckets[n])) for n in orders]


# ===== fast pipeline: complements of triangle-free graphs =====

def _copaw_expand(parent: Graph, k: int, max_degree: int) -> tuple[list[Graph], list[str]]:
    # one augmentation step: the parent's accepted triangle-free children
    # of maximum degree <= max_degree, plus canonical codes of those
    # children's complements that are k-vertex-critical (chi and
    # criticality via matchings in the child)
    kids = child_graphs(parent, TRIANGLE_FREE, max_degree)
    codes = []
    n = parent.n + 1
    full = (1 << n) - 1
    target = n - k
    for f in kids:
        # complement min degree >= k-1, i.e. every child degree <= n-k
        if target < 0 or any(a.bit_count() > target for a in f.adj):
            continue
        if matching_raw(n, f.adj, full) != target:
            continue  # chi(complement) != k
        if any(matching_raw(n, f.adj, full ^ (1 << v)) != target for v in range(n)):
            continue  # some deletion keeps chi at k
        codes.append(canonical_form(complement(f)))
    return kids, codes


def _filtered_level(parents: list[Graph], k: int, workers: int,
                    max_degree: int) -> tuple[list[Graph], list[str]]:
    # expand one order and filter in the same pass; deterministic order
    # regardless of worker count (imap preserves parent order)
    children: list[Graph] = []
    codes: list[str] = []
    if workers > 1 and len(parents) >= 4 * workers:
        with Pool(workers) as pool:
            expand = partial(_copaw_expand, k=k, max_degree=max_degree)
            for kids, found in pool.imap(expand, parents, chunksize=16):
                children.extend(kids)
                codes.extend(found)
        return children, codes
    for p in parents:
        kids, found = _copaw_expand(p, k, max_degree)
        children.extend(kids)
        codes.extend(found)
    return children, codes


def _critical_copaw_pool(k: int, n_cap: int) -> list[Graph]:
    # all k-vertex-critical P3+P1-free graphs of order <= n_cap, for the
    # join cross-check; tiny ks are closed-form
    if k == 1:
        return [named_graph("K1")] if n_cap >= 1 else []
    if k == 2:
        return [named_graph("K2")] if n_cap >= 2 else []
    if n_cap < k:
        return []
    rows = census_copaw_critical(k, min(n_cap, 2 * k - 1), cross_check=False)
    return [g for row in rows for g in row.graphs()]


def _join_cross_check(k: int, n_max: int, found: set[str]) -> None:
    # every join of a k1- and a k2-critical P3+P1-free graph with
    # k1 + k2 = k is itself such a graph, so it must already be in the
    # census; a miss means the census lost a graph
    for k1 in range(1, k // 2 + 1):
        k2 = k - k1
        pool1 = _critical_copaw_pool(k1, n_max - k2)
        pool2 = _critical_copaw_pool(k2, n_max - k1)
        for g in pool1:
            for h in pool2:
                if g.n + h.n > n_max:
                    continue
                code = canonical_form(join(g, h))
                if code not in found:
                    raise RuntimeError(
                        f"census for k={k} is missing the join of a {k1}- and "
                        f"a {k2}-critical factor ({code})")


def census_copaw_critical(k: int, n_max: int | None = None, workers: int = 1,
                          cross_check: bool = True) -> list[CensusRow]:
    """Census of k-vertex-critical P3+P1-free graphs, one row per order.

    Orders run from k to n_max (default 2k-1, which is the exact maximum
    order such a graph can have).  Every survivor is recorded as the
    canonical code of the graph itself (not of its triangle-free
    complement).  With cross_check, joins of smaller census results are
    verified to be present.

    A k-vertex-critical graph has minimum degree >= k-1, so its complement
    F has maximum degree <= n-k <= n_max-k.  Maximum degree is hereditary
    and every canonical-augmentation ancestor of F is an induced subgraph
    of F, so the whole search keeps to maximum degree <= n_max-k.
    """
    if not 3 <= k <= 6:
        raise ValueError("k must be in 3..6 (k = 7 would take hours; its "
                         "order-13 search space holds about 2e7 graphs)")
    cap = 2 * k - 1
    if n_max is None:
        n_max = cap
    if not k <= n_max <= cap:
        raise ValueError(f"n_max must be in {k}..{cap}")
    buckets: dict[int, list[str]] = {n: [] for n in range(k, n_max + 1)}
    level = [Graph(1, (0,))]
    order = 1
    while order < n_max:
        level, codes = _filtered_level(level, k, workers, n_max - k)
        order += 1
        if order >= k:
            buckets[order] = codes
    rows = _rows_from_buckets(range(k, n_max + 1), buckets)
    if cross_check:
        found = {c for row in rows for c in row.codes}
        _join_cross_check(k, n_max, found)
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
    mode = TRIANGLE_FREE if alpha_le_2 else ALL_GRAPHS

    def survives(g: Graph) -> bool:
        if min(a.bit_count() for a in g.adj) < k - 1:
            return False
        if pattern is not None and not is_free(g, pattern):
            return False
        return is_vertex_critical(g, k).is_critical

    buckets: dict[int, list[str]] = {n: [] for n in range(k, n_max + 1)}
    level = [Graph(1, (0,))]
    order = 1
    while order < n_max:
        if workers > 1 and len(level) >= 4 * workers:
            nxt: list[Graph] = []
            with Pool(workers) as pool:
                for kids in pool.imap(partial(child_graphs, mode=mode),
                                      level, chunksize=16):
                    nxt.extend(kids)
            level = nxt
        else:
            level = generate_level(level, mode)
        order += 1
        if order < k:
            continue
        pool_graphs = [complement(g) for g in level] if alpha_le_2 else level
        if workers > 1 and len(pool_graphs) >= 4 * workers:
            pat6 = canonical_form(pattern) if pattern is not None else None
            check = partial(_general_survivor, k=k, pattern_g6=pat6,
                            min_deg=k - 1)
            with Pool(workers) as pool:
                flags = pool.map(check, pool_graphs, chunksize=64)
            buckets[order] = [canonical_form(g)
                              for g, ok in zip(pool_graphs, flags) if ok]
        else:
            buckets[order] = [canonical_form(g) for g in pool_graphs if survives(g)]
    return _rows_from_buckets(range(k, n_max + 1), buckets)


def _general_survivor(g: Graph, k: int, pattern_g6: str | None, min_deg: int) -> bool:
    if min(a.bit_count() for a in g.adj) < min_deg:
        return False
    if pattern_g6 is not None and not is_free(g, from_graph6(pattern_g6)):
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
