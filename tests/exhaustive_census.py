"""The piece census reproduced by exhaustion, with no structural assumption.

``census_general`` tests every graph class up to order 9 for
P3+P1-freeness and criticality directly, so it assumes neither
independence number two, nor the 2k - 1 order bound, nor the join
structure that ``census_copaw_critical`` is built on.  At k = 5 it must
find the same graphs order by order (the paper's appendix list); at
k = 4 the orders past 2k - 1 = 7 must be empty, as claim (ii) says.

The two checks take about 25 s of wall time with two processes, so the
file name keeps them out of the default collection.  Run them with

    PYTHONPATH=src python -m pytest -q tests/exhaustive_census.py
"""

import os

from kcrit.census import census_copaw_critical, census_general

WORKERS = min(2, os.cpu_count() or 1)


def _by_order(rows):
    return {r.n: set(r.codes) for r in rows}


def test_exhaustive_k5_census_equals_piece_census():
    general = census_general(5, "P3+P1", 9, workers=WORKERS)
    assert [(r.n, r.count) for r in general] == [(5, 1), (6, 0), (7, 1), (8, 6), (9, 170)]
    assert _by_order(general) == _by_order(census_copaw_critical(5))


def test_exhaustive_k4_census_is_empty_past_order_7():
    general = census_general(4, "P3+P1", 9, workers=WORKERS)
    assert [(r.n, r.count) for r in general] == \
        [(4, 1), (5, 0), (6, 1), (7, 6), (8, 0), (9, 0)]
