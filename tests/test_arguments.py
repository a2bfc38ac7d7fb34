"""Every integer argument of the public entry points is checked at entry.

One table: each row names a call, the argument it checks and that
argument's range, and expands to the values True (a bool is not an int
here), 2.5, "3", one below the range and, where the range is bounded,
one above it.  Each must raise ValueError with the exact message of
``graph.check_int``.  The census calls run with the process pool and the
augmentation step replaced by failures, so a check that came after the
first step of work would fail the test instead of raising.
"""

import os

import pytest

import kcrit.census
from kcrit.census import census_copaw_critical, census_general, verify_list
from kcrit.certify import (YES, CertifiedAnswer, build_database, certify_color,
                           verify_certificate)
from kcrit.critical import find_critical_subgraph, is_vertex_critical
from kcrit.families import clique_substituted_odd_cycle, co_odd_cycle, odd_cycle
from kcrit.generate import ALL_GRAPHS, TRIANGLE_FREE, child_graphs, generate_graphs
from kcrit.graph import Graph, check_int, from_edge_list, write_graph_list
from kcrit.invariants import is_k_colorable
from kcrit.patterns import is_free, named_graph, p2_lp1

C5 = named_graph("C5")
MISSING = "no-such-list.g6"     # the k check comes before the file is read

# (id, call taking the checked value, argument name, low, high or None)
CHECKS = [
    ("odd_cycle-m", odd_cycle, "m", 1, 15),
    ("co_odd_cycle-k", co_odd_cycle, "k", 3, 16),
    ("clique_cycle-t", lambda x: clique_substituted_odd_cycle(x, 4), "t", 2, None),
    ("clique_cycle-k", lambda x: clique_substituted_odd_cycle(2, x), "k", 3, None),
    ("p2_lp1-l", p2_lp1, "l", 0, None),
    ("Graph-order", lambda x: Graph(x, ()), "order", 0, 31),
    ("from_edge_list-order", lambda x: from_edge_list(x, []), "order", 0, 31),
    ("is_vertex_critical-k", lambda x: is_vertex_critical(Graph(1, (0,)), x), "k", 1, None),
    ("find_critical_subgraph-k", lambda x: find_critical_subgraph(C5, x), "k", 1, None),
    ("is_k_colorable-k", lambda x: is_k_colorable(C5, x), "k", 0, None),
    ("census_copaw-k", census_copaw_critical, "k", 3, None),
    ("census_copaw-n_max", lambda x: census_copaw_critical(4, x), "n_max", 4, 7),
    ("census_copaw-workers", lambda x: census_copaw_critical(3, workers=x),
     "workers", 1, None),
    ("census_general-k", lambda x: census_general(x, None, 9), "k", 1, 9),
    ("census_general-n_max", lambda x: census_general(3, None, x), "n_max", 3, 9),
    ("census_general-workers", lambda x: census_general(3, None, 5, workers=x),
     "workers", 1, None),
    ("verify_list-k", lambda x: verify_list(MISSING, x), "k", 1, None),
    # no file: a write before the check would raise AttributeError
    ("write_graph_list-k", lambda x: write_graph_list(None, x, ["C~"]), "k", 1, None),
    ("build_database-k", build_database, "k", 4, 6),
    ("certify_color-k", lambda x: certify_color(co_odd_cycle(5), x, build_database(5)),
     "k", 3, 5),
    ("verify_certificate-k", lambda x: verify_certificate(C5, x, CertifiedAnswer(YES)),
     "k", 0, None),
]

_CPUS = os.cpu_count() or 1
_PATTERN = "pattern must be a name or a Graph, got 5"

# single rows, each with its value and message: floats of an in-range
# value, the two messages that say more than the range, and the pattern
OTHER = [
    ("census_copaw-k-4.0", census_copaw_critical, 4.0,
     "k must be an int >= 3, got 4.0"),
    ("build_database-k-4.0", build_database, 4.0,
     "k must be an int in 4..6, got 4.0"),
    ("certify_color-k-4.0", lambda x: certify_color(co_odd_cycle(5), x, build_database(5)),
     4.0, "k must be an int in 3..5, got 4.0"),
    ("census_copaw-k-7", census_copaw_critical, 7,
     "k must be in 3..6 (a k = 7 run took 644 s of wall time on 2 workers, peaking "
     "at 924 MB: 835,161 graphs at order 12, 6,349,630 pieces at order 13)"),
    ("census_copaw-workers-cpus", lambda x: census_copaw_critical(3, workers=x), _CPUS + 1,
     f"workers must be at most the CPU count {_CPUS}, got {_CPUS + 1}"),
    ("census_general-workers-cpus", lambda x: census_general(3, None, 5, workers=x),
     _CPUS + 1, f"workers must be at most the CPU count {_CPUS}, got {_CPUS + 1}"),
    ("generate_graphs-mode", lambda x: generate_graphs(3, x), "bogus",
     "unknown generation mode 'bogus'"),
    ("child_graphs-admit-all", lambda x: child_graphs(C5, ALL_GRAPHS, x), 3,
     "admit must be callable, got 3"),
    ("child_graphs-admit-tf", lambda x: child_graphs(C5, TRIANGLE_FREE, x), 3,
     "admit must be callable, got 3"),
    ("is_free-pattern", lambda x: is_free(C5, x), 5, _PATTERN),
    ("census_general-pattern", lambda x: census_general(3, x, 7), 5, _PATTERN),
    ("verify_list-pattern", lambda x: verify_list(MISSING, 3, x), 5, _PATTERN),
]


def _cases():
    for name, call, arg, low, high in CHECKS:
        span = f">= {low}" if high is None else f"in {low}..{high}"
        values = [True, 2.5, "3", low - 1] + ([] if high is None else [high + 1])
        for x in values:
            yield pytest.param(call, x, f"{arg} must be an int {span}, got {x!r}",
                               id=f"{name}-{x!r}")
    # generate_graphs returns its stream: every value raises at the call
    for x in (True, 2.0, 2.5, "3", -1, 0, 40):
        yield pytest.param(generate_graphs, x,
                           f"order must be an int in 1..31, got {x!r}",
                           id=f"generate_graphs-{x!r}")
    for name, call, x, message in OTHER:
        yield pytest.param(call, x, message, id=name)


def _no_work(*args, **kwargs):
    pytest.fail("work started before the arguments were checked")


@pytest.mark.parametrize("call, x, message", _cases())
def test_integer_arguments_are_checked_at_entry(monkeypatch, call, x, message):
    monkeypatch.setattr(kcrit.census, "Pool", _no_work)
    monkeypatch.setattr(kcrit.census, "child_graphs", _no_work)
    with pytest.raises(ValueError) as info:
        call(x)
    assert str(info.value) == message


def test_check_int_returns_its_argument():
    assert check_int("k", 3, 3) == 3
    assert check_int("k", 6, 3, 6) == 6
    assert check_int("order", 0, 0, 31) == 0
