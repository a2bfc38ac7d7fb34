"""Acceptance suite: one test per numbered criterion.

Every test prints exactly one PASS or FAIL line with the measured numbers
next to the pinned budget (run with `pytest tests/test_acceptance.py -v -s`
to watch the lines stream).  Census results are computed once per k and
shared between criteria; the wall-clock time of the first computation is
the one charged against the budget.
"""

import io
import random
import time

import oracles
from lemmas import (check_min_class_colorings, co_components, is_p2_lp1_free,
                    maximal_independent_set, nonneighbor_profile,
                    verify_join_criticality)
from util import data_path, random_copaw_free
from kcrit.canon import canonical_form
from kcrit.census import census_copaw_critical, census_general, verify_list
from kcrit.certify import YES, build_database, certify_color, verify_certificate
from kcrit.families import co_odd_cycle, odd_cycle
from kcrit.generate import generate_graphs
from kcrit.graph import Graph, from_graph6, read_graph_file, to_graph6, write_graph_list
from kcrit.invariants import (chromatic_number, clique_number,
                              independence_number, is_k_colorable)
from kcrit.patterns import ORDER4_NAMES, contains_induced, is_free, named_graph

# ===== shared machinery =====

_census_cache: dict[int, tuple[list, float]] = {}


def _census(k):
    """Census rows for k plus the wall-clock seconds of the first run."""
    if k not in _census_cache:
        start = time.perf_counter()
        rows = census_copaw_critical(k)
        _census_cache[k] = (rows, time.perf_counter() - start)
    return _census_cache[k]


def _counts(rows):
    return {row.n: row.count for row in rows}


def _codes(rows):
    return {code for row in rows for code in row.codes}


def _report(num, label, ok, detail):
    line = f"criterion {num:2d} {label}: {'PASS' if ok else 'FAIL'}  [{detail}]"
    print(line)
    assert ok, line


# ===== the criteria =====

def test_criterion_01_census_k4():
    rows, secs = _census(4)
    counts = _counts(rows)
    ok = counts == {4: 1, 5: 0, 6: 1, 7: 6} and secs < 10.0
    _report(1, "4-critical census counts exact", ok,
            f"counts={counts} time={secs:.2f}s budget=10s")


def test_criterion_02_census_k5_matches_appendix():
    rows, secs = _census(5)
    counts = _counts(rows)
    appendix = {canonical_form(g)
                for _, g in read_graph_file(data_path("appendix5.edges"))}
    ok = (counts == {5: 1, 6: 0, 7: 1, 8: 6, 9: 170}
          and _codes(rows) == appendix and secs < 120.0)
    _report(2, "5-critical census equals the 178-graph list", ok,
            f"counts={counts} set_match={_codes(rows) == appendix} "
            f"time={secs:.2f}s budget=120s")


def test_criterion_03_census_k6():
    rows, secs = _census(6)
    counts = _counts(rows)
    # the shipped list holds the census's canonical codes, so the set
    # comparison also pins the canonical labeling bit for bit
    shipped = {to_graph6(g)
               for _, g in read_graph_file(data_path("critical6.g6"))}
    set_match = _codes(rows) == shipped
    # the list writer turns the rows into the shipped file byte for byte
    written = io.StringIO()
    write_graph_list(written, 6, _codes(rows))
    file_match = written.getvalue() == data_path("critical6.g6").read_text()
    ok = (counts == {6: 1, 7: 0, 8: 1, 9: 6, 10: 171, 11: 17828}
          and set_match and file_match and secs < 3600.0)
    _report(3, "6-critical census counts exact, written list equals "
               "critical6.g6", ok,
            f"counts={counts} set_match={set_match} file_match={file_match} "
            f"time={secs:.1f}s budget=3600s single worker")


def test_criterion_04_appendix_verification():
    start = time.perf_counter()
    report = verify_list(data_path("appendix5.edges"), 5, pattern="P3+P1")
    secs = time.perf_counter() - start
    ok = report.ok and report.total == 178 and secs < 30.0
    _report(4, "all 178 listed graphs verified 5-critical and free", ok,
            f"total={report.total} failures={len(report.failures)} "
            f"time={secs:.2f}s budget=30s")


def test_criterion_05_figure_filters():
    graphs = [g for _, g in read_graph_file(data_path("fig1.edges"))]
    hits = {name: [i for i, g in enumerate(graphs) if is_free(g, name)]
            for name in ("P2+2P1", "P3+P1", "2K2")}
    ok = (len(graphs) == 11
          and hits["P2+2P1"] == list(range(9))
          and hits["P3+P1"] == list(range(8))
          and hits["2K2"] == [0, 1, 2, 6, 8, 9, 10])
    _report(5, "figure-list freeness filters exact", ok,
            f"P2+2P1-free={[i + 1 for i in hits['P2+2P1']]} "
            f"P3+P1-free={[i + 1 for i in hits['P3+P1']]} "
            f"2K2-free={[i + 1 for i in hits['2K2']]}")


def test_criterion_06_alpha_and_order_bounds():
    violations = 0
    extremal_found = True
    total = 0
    for k in (4, 5, 6):
        rows, _ = _census(k)
        for row in rows:
            for g in map(from_graph6, row.codes):
                total += 1
                if independence_number(g) > 2 or g.n > 2 * k - 1:
                    violations += 1
        top = rows[-1]
        extremal_found &= (top.n == 2 * k - 1
                           and canonical_form(co_odd_cycle(k)) in top.codes)
    ok = violations == 0 and extremal_found
    _report(6, "alpha<=2, order<=2k-1, complement odd cycle present", ok,
            f"graphs={total} violations={violations} "
            f"co-odd-cycle@2k-1={extremal_found}")


def test_criterion_07_three_critical_censuses():
    rows = census_general(3, None, 7)
    odd_cycles = {canonical_form(odd_cycle(m)) for m in (1, 2, 3)}
    ok = (_counts(rows) == {3: 1, 4: 0, 5: 1, 6: 0, 7: 1}
          and _codes(rows) == odd_cycles)
    caps = {}
    for l in (1, 2, 3):
        lrows = census_general(3, f"P2+{l}P1", 7)
        want = {canonical_form(odd_cycle(m)) for m in range(1, l + 1)}
        populated = [row.n for row in lrows if row.count]
        caps[l] = populated[-1]
        ok = ok and _codes(lrows) == want and populated[-1] == 2 * l + 1
    _report(7, "3-critical censuses: odd cycles only", ok,
            f"unrestricted={_counts(rows)} max_order_by_l={caps}")


def _random_p2_lp1_free(rng, l):
    # sprinkle edges, then add missing edges until the pattern is gone;
    # every step removes a nonedge, so the loop terminates (complete
    # graphs are always free)
    n = rng.randint(l + 3, 9)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    g = Graph(n, tuple(adj))
    while not is_p2_lp1_free(g, l):
        missing = [(i, j) for i in range(n) for j in range(i + 1, n)
                   if not g.adj[i] >> j & 1]
        i, j = rng.choice(missing)
        adj = list(g.adj)
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        g = Graph(n, tuple(adj))
    return g


def test_criterion_08_nonneighbor_bound_at_volume():
    rng = random.Random(31)
    checked = 0
    violations = 0
    for l in (1, 2, 3):
        kept = 0
        while kept < 3400:
            g = _random_p2_lp1_free(rng, l)
            if independence_number(g) < l + 1:
                continue
            order = list(range(g.n))
            rng.shuffle(order)
            s = maximal_independent_set(g, order)
            profile = nonneighbor_profile(g, s)
            if any(count > l - 1 for count in profile.values()):
                violations += 1
            kept += 1
        checked += kept
    ok = checked >= 10_000 and violations == 0
    _report(8, "outside vertices miss at most l-1 of a maximal "
               "independent set", ok,
            f"graphs={checked} (target 10000) violations={violations}")


def test_criterion_09_min_class_colorings():
    checked = 0
    failures = 0
    for k in (4, 5):
        rows, _ = _census(k)
        for row in rows:
            for g in map(from_graph6, row.codes):
                if len(co_components(g)) != 1:
                    continue
                checked += 1
                if not check_min_class_colorings(g, k):
                    failures += 1
    ok = checked > 0 and failures == 0
    _report(9, "deleting any vertex leaves a coloring with all classes "
               ">=2", ok,
            f"connected-complement graphs={checked} failures={failures}")


def test_criterion_10_join_biconditional():
    factors = [
        (named_graph("K1"), 1), (named_graph("K2"), 2),
        (named_graph("C5"), 3), (co_odd_cycle(4), 4),   # critical at k
        (named_graph("P4"), 2), (named_graph("C6"), 3),
        (named_graph("paw"), 3), (named_graph("K3"), 4),  # not critical at k
    ]
    pairs = 0
    mistakes = 0
    for g, k1 in factors:
        for h, k2 in factors:
            pairs += 1
            if not verify_join_criticality(g, h, k1, k2):
                mistakes += 1
    ok = pairs >= 20 and mistakes == 0
    _report(10, "join criticality biconditional", ok,
            f"pairs={pairs} (target 20) mistakes={mistakes}")


def test_criterion_11_oracle_sweep():
    patterns = [named_graph(name) for name in ORDER4_NAMES]
    graphs = 0
    disagreements = 0
    for n in range(1, 8):
        for g in generate_graphs(n):
            graphs += 1
            if chromatic_number(g) != oracles.chromatic_number(g):
                disagreements += 1
            if independence_number(g) != oracles.independence_number(g):
                disagreements += 1
            if clique_number(g) != oracles.clique_number(g):
                disagreements += 1
            if oracles.matching_size(g.n, g.adj, (1 << g.n) - 1) != oracles.max_matching(g):
                disagreements += 1
            for h in patterns:
                # the same embedding, not just the same yes/no: both
                # return the lexicographically first one
                if contains_induced(g, h) != oracles.contains_induced(g, h):
                    disagreements += 1
    ok = graphs == 1 + 2 + 4 + 11 + 34 + 156 + 1044 and disagreements == 0
    _report(11, "invariants and pattern embeddings match brute force "
                "through order 7", ok,
            f"graphs={graphs} patterns={len(patterns)} "
            f"disagreements={disagreements}")


def test_criterion_12_certifier_soundness():
    databases = {k: build_database(k + 1) for k in (3, 4)}
    rng = random.Random(4096)
    instances = {3: 0, 4: 0}
    bad = 0
    for _ in range(1000):
        g = random_copaw_free(rng)
        for k in (3, 4):
            answer = certify_color(g, k, databases[k])
            if not verify_certificate(g, k, answer):
                bad += 1
            if (answer.verdict == YES) != (is_k_colorable(g, k) is not None):
                bad += 1
            instances[k] += 1
    ok = bad == 0 and all(instances[k] == 1000 for k in (3, 4))
    _report(12, "certificates verify and agree with the decision "
                "procedure", ok,
            f"instances={instances} failures={bad}")
