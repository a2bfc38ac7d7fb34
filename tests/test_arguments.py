"""Every integer argument of the public entry points is checked at entry.

One table: each row names an entry point, its arguments with X in the
place of the checked one, and that argument's range, and expands to the
values True (a bool is not an int here), 2.5, "3", one below the range,
one above it where the range is bounded, and the row's extra values.
Each must raise ValueError with the exact message of
``graph.check_int``, which names the parameter (an order for one called
n).  A test reads the package's signatures and requires a row for each
integer parameter.  The census calls run with the process pool and the
augmentation step replaced by failures, so a check that came after the
first step of work would fail the test instead of raising.
"""

import inspect
import os

import pytest

import kcrit
import kcrit.census
from kcrit.census import census_copaw_critical, census_general, verify_list
from kcrit.certify import YES, CertifiedAnswer, build_database, certify_color, verify_certificate
from kcrit.critical import find_critical_subgraph, is_vertex_critical
from kcrit.families import clique_substituted_odd_cycle, co_odd_cycle, odd_cycle
from kcrit.generate import ALL_GRAPHS, TRIANGLE_FREE, child_graphs, generate_graphs
from kcrit.graph import Graph, check_int, from_edge_list, write_graph_list
from kcrit.invariants import is_k_colorable
from kcrit.patterns import is_free, named_graph, p2_lp1

C5 = named_graph("C5")
MISSING = "no-such-list.g6"     # the k check comes before the file is read
X = object()                    # the checked argument's place in a row

# (id, entry point, arguments, low, high or None, extra values...)
CHECKS = [
    ("odd_cycle-m", odd_cycle, (X,), 1, 15),
    ("co_odd_cycle-k", co_odd_cycle, (X,), 3, 16),
    ("clique_cycle-t", clique_substituted_odd_cycle, (X, 4), 2, None),
    ("clique_cycle-k", clique_substituted_odd_cycle, (2, X), 3, None),
    ("p2_lp1-l", p2_lp1, (X,), 0, None),
    ("Graph-order", Graph, (X, ()), 0, 31),
    ("from_edge_list-order", from_edge_list, (X, []), 0, 31),
    # generate_graphs returns its stream: every value raises at the call
    ("generate_graphs", generate_graphs, (X,), 1, 31, 2.0, -1, 40),
    ("is_vertex_critical-k", is_vertex_critical, (Graph(1, (0,)), X), 1, None),
    ("find_critical_subgraph-k", find_critical_subgraph, (C5, X), 1, None),
    ("is_k_colorable-k", is_k_colorable, (C5, X), 0, None),
    ("census_copaw-k", census_copaw_critical, (X,), 3, None, 4.0),
    ("census_copaw-n_max", census_copaw_critical, (4, X), 4, 7),
    ("census_copaw-workers", census_copaw_critical, (3, None, X), 1, None),
    ("census_general-k", census_general, (X, None, 9), 1, 9),
    ("census_general-n_max", census_general, (3, None, X), 3, 9),
    ("census_general-workers", census_general, (3, None, 5, X), 1, None),
    ("verify_list-k", verify_list, (MISSING, X), 1, None),
    # no file or database: a write or read before the check would raise AttributeError
    ("write_graph_list-k", write_graph_list, (None, X, ["C~"]), 1, None),
    ("build_database-k", build_database, (X,), 4, 6, 4.0),
    ("certify_color-k", certify_color, (co_odd_cycle(5), X, None), 3, 5, 4.0),
    ("verify_certificate-k", verify_certificate, (C5, X, CertifiedAnswer(YES)), 0, None),
]

_CPUS = os.cpu_count() or 1
_K7 = ("k must be in 3..6 (a k = 7 run took 644 s of wall time on 2 workers, peaking "
       "at 924 MB: 835,161 graphs at order 12, 6,349,630 pieces at order 13)")
_PATTERN = "pattern must be a name or a Graph, got 5"

# single calls, each with its message: those that say more than the range,
# the checks of other arguments and of preconditions, and the orders built
# from two arguments
OTHER = [
    ("census_copaw-k-7", census_copaw_critical, (7,), _K7),
    ("census_copaw-k-8", census_copaw_critical, (8,), _K7),
    ("census_copaw-workers-cpus", census_copaw_critical, (3, None, _CPUS + 1),
     f"workers must be at most the CPU count {_CPUS}, got {_CPUS + 1}"),
    ("census_general-workers-cpus", census_general, (3, None, 5, _CPUS + 1),
     f"workers must be at most the CPU count {_CPUS}, got {_CPUS + 1}"),
    ("clique_cycle-order-36", clique_substituted_odd_cycle, (5, 8),
     "order must be an int in 0..31, got 36"),
    ("generate_graphs-mode", generate_graphs, (3, "bogus"), "unknown generation mode 'bogus'"),
    # order 1 needs no augmentation step, and once yielded K1 for any mode
    ("generate_graphs-mode-1", generate_graphs, (1, "bogus"), "unknown generation mode 'bogus'"),
    ("generate_graphs-mode-2", generate_graphs, (2, "bogus"), "unknown generation mode 'bogus'"),
    ("child_graphs-mode", child_graphs, (Graph(1, (0,)), "nonsense"),
     "unknown generation mode 'nonsense'"),
    ("child_graphs-admit-all", child_graphs, (C5, ALL_GRAPHS, 3), "admit must be callable, got 3"),
    ("child_graphs-admit-tf", child_graphs, (C5, TRIANGLE_FREE, 3),
     "admit must be callable, got 3"),
    ("is_free-pattern", is_free, (C5, 5), _PATTERN),
    ("census_general-pattern", census_general, (3, 5, 7), _PATTERN),
    ("verify_list-pattern", verify_list, (MISSING, 3, 5), _PATTERN),
    ("verify_list-census_codes-int", verify_list, (MISSING, 5, "P3+P1", 5),
     "census_codes must be None or an iterable of str codes, got 5"),
    # a str is one code, not a list of them
    ("verify_list-census_codes-str", verify_list, (MISSING, 5, "P3+P1", "D~{"),
     "census_codes must be None or an iterable of str codes, got 'D~{'"),
    ("verify_list-census_codes-int-code", verify_list, (MISSING, 5, "P3+P1", [3]),
     "census_codes must hold str codes only, got 3"),
    ("named_graph-none", named_graph, (None,), "pattern name must be a str, got None"),
    ("named_graph-int", named_graph, (5,), "pattern name must be a str, got 5"),
    # pattern names take ASCII digits only: these are Arabic-Indic three
    ("named_graph-k-digit", named_graph, ("k\u0663",), "unknown pattern name 'k\u0663'"),
    ("named_graph-p2lp1-digit", named_graph, ("p2+\u0663p1",),
     "unknown pattern name 'p2+\u0663p1'"),
    ("find_critical_subgraph-chi", find_critical_subgraph, (named_graph("C6"), 3),
     "graph is not even k-chromatic; nothing to extract"),
    ("certify_color-level", certify_color, (named_graph("K3"), 4, build_database(4)),
     "need the level-5 database, got level 4"),
]


def _place(args, x):
    return [x if a is X else a for a in args]


def _checked(fn, args) -> str:
    # the name of the parameter at X
    return next(p for p, a in zip(inspect.signature(fn).parameters, args) if a is X)


def _cases():
    for name, fn, args, low, high, *extra in CHECKS:
        param = _checked(fn, args)
        span = f">= {low}" if high is None else f"in {low}..{high}"
        values = [True, 2.5, "3", low - 1] + ([] if high is None else [high + 1]) + extra
        for x in values:
            message = f"{'order' if param == 'n' else param} must be an int {span}, got {x!r}"
            yield pytest.param(fn, _place(args, x), message, id=f"{name}-{x!r}")
    for name, fn, args, message in OTHER:
        yield pytest.param(fn, args, message, id=name)


def _no_work(*args, **kwargs):
    pytest.fail("work started before the arguments were checked")


@pytest.mark.parametrize("fn, args, message", _cases())
def test_integer_arguments_are_checked_at_entry(monkeypatch, fn, args, message):
    monkeypatch.setattr(kcrit.census, "Pool", _no_work)
    monkeypatch.setattr(kcrit.census, "child_graphs", _no_work)
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert str(info.value) == message


def test_every_integer_parameter_of_the_package_has_a_row():
    rows = {(fn, _checked(fn, args)) for _, fn, args, *_ in CHECKS}
    missing = [(name, p.name) for name, fn in vars(kcrit).items()
               if inspect.isfunction(fn) and name != "bits"    # bits reads a mask of any width
               for p in inspect.signature(fn).parameters.values()
               if p.annotation in ("int", "int | None") and (fn, p.name) not in rows]
    assert missing == []


_CHEAP = {"odd_cycle-m", "co_odd_cycle-k", "clique_cycle-t", "clique_cycle-k", "p2_lp1-l",
          "Graph-order", "from_edge_list-order"}


@pytest.mark.parametrize("fn, args, low, high", [pytest.param(*row[1:5], id=row[0])
                                                 for row in CHECKS if row[0] in _CHEAP])
def test_cheap_rows_accept_their_bounds(fn, args, low, high):
    for x in (low, high):
        if x is not None:
            # Graph takes one row per vertex
            g = Graph(x, (0,) * x) if fn is Graph else fn(*_place(args, x))
            assert x == low or g.n == 31        # each high bound is the order cap


def test_check_int_returns_its_argument():
    assert check_int("k", 3, 3) == 3
    assert check_int("k", 6, 3, 6) == 6
    assert check_int("order", 0, 0, 31) == 0
