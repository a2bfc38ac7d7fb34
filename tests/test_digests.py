"""Outputs pinned by one SHA-256 of their repr.

Each pin covers one output whole: every code, row and graph, and the
order they come in (discovery order for the piece run and the general
census, stream order for generation).  A failing test names the output
that moved.  A change that alters an output on purpose computes the new
digest with ``util.digest``, replaces the pin, and says why in
CHANGES.md.  The exhaustive step (``tests/exhaustive_census.py``) pins
``_pieces(6)`` and ``census_copaw_critical(6)`` the same way.
"""

import os
import random

import pytest

from kcrit.census import _pieces, census_copaw_critical, census_general
from kcrit.certify import build_database, certify_color
from kcrit.generate import ALL_GRAPHS, TRIANGLE_FREE, generate_graphs
from kcrit.graph import from_graph6, relabel

from util import digest, random_copaw_free, random_graph

PIECES = {
    1: "2c5b5b57b184d2cb0ce86ab0414142af23cebb0e17968a07e402920f767d3eb5",
    2: "07615e93f614efbb5c0320de03de8a122a964470f75479507ae7107abf791e02",
    3: "8a2c644ed7adc08b8c214fe2a82ac101800734531970822e4a9ae9b918a3cd28",
    4: "30c91f12eaed1376908c9c886fce12ea78aa70a51ca81af7340477822a679ece",
    5: "4439b8a9ab8a0a273e97858e87ff1d4cdb92b007fa43e513090a929d14feecc2",
}

COPAW_ROWS = {
    3: "a6807ac641b83f9bcbf263a86a201b82556781270f9fedaa8e3a6f51731afc14",
    4: "adc3db41da7c7713df60c49b59a7a53bf8975ae0c02eab09e0713d2056934904",
    5: "970a16a4700677ac3d6f3685bf7a5ab750be5c0446525a1ff618dc668bb1df60",
}

GENERAL_ROWS = {
    (1, None, 3): "a6d7f782f82519901e1f738670906f2c4ee5c2188c2a43d2d6d386170246cc7e",
    (3, None, 7): "39aec721eab9d88e82e236976bfe518c15b4feee6a3b9694a72cf5820f638566",
    (4, "P3+P1", 8): "aa842fa352df852f02b8cba8b7561e1e9790c2a3540334839fd66dd08d7e495a",
    (4, "C4", 9): "7796c59a9a8b1775bfb8ecb210e020283e31989a954cc9ec218e526a04ed3654",
    (5, "co-K4", 9): "ab44f5b0c09b95de9ae11a789d545fa796848183f182d9ce4bafc5e57cc84ea5",
}

STREAMS = {
    (ALL_GRAPHS, 1): "af30dc0bf94eb79b2912775c16a68b8b758fcdac3a6fbaf0f8c61c71b4671391",
    (ALL_GRAPHS, 2): "1f7b33eb668a205fc17fba7d3060cd8fe3ecc99e5889e678362c5bd8720941d2",
    (ALL_GRAPHS, 3): "851e7246d024a2c5c44028efb25199e49c713754e3e71f8073630f9d6ec0a240",
    (ALL_GRAPHS, 4): "007146545ea9d1efc69fd6d9e6e9ca15e9a44bb7028d566e51a4b63563dbb645",
    (ALL_GRAPHS, 5): "96ae7b446c4ccf10e9da518d19efd1a2fc3d468b5422091201f231e69762bc5c",
    (ALL_GRAPHS, 6): "5b8eb42339f76a9ab278dcc20633de9c194999452f6a9b2efea2c1ebeac76a85",
    (ALL_GRAPHS, 7): "6f882b8be2d13f467101fc9e5de73fce6e68ec13b667337c2a447975626fa1f1",
    (ALL_GRAPHS, 8): "516828d8a5d03a78b79b807cdf7fbd9cb55f2c3a8242de7252e73bfc6937a4f5",
    (TRIANGLE_FREE, 1): "af30dc0bf94eb79b2912775c16a68b8b758fcdac3a6fbaf0f8c61c71b4671391",
    (TRIANGLE_FREE, 2): "1f7b33eb668a205fc17fba7d3060cd8fe3ecc99e5889e678362c5bd8720941d2",
    (TRIANGLE_FREE, 3): "a1fba30f556e7b9e3ae171fd6b1c741edc31e7432577caa338479039e890d2c2",
    (TRIANGLE_FREE, 4): "d8687a1781060e958a6e1c4e2b788c84d0cef6ebdd6f4a57435146f27286e654",
    (TRIANGLE_FREE, 5): "2e94a2f45f8286468ea46ad19fd816c5bc16846fd71640c3d3e4216bd2a88f1c",
    (TRIANGLE_FREE, 6): "ffff41a8e4f27451de0a35d3aff367511b51b674293ec23bbade46c2e02703d0",
    (TRIANGLE_FREE, 7): "c633c34b0710a876186f83c73e699f15d6cdf48524328856a2f018533fbb6b72",
    (TRIANGLE_FREE, 8): "dacd0e7ab194e4e1953dd552384070f2cd43caa9f91f56eb00a5959d26970b64",
    (TRIANGLE_FREE, 9): "38facfe8bd48109cafffaae20633d2b7598500520745294bba33d5af43194d54",
    (TRIANGLE_FREE, 10): "b4cbb9ace9a359e655cde0e22d6ebd87609265d95d2b8e42dc56666c5d7e163e",
}

# verdict, coloring and witness of every answer in ``_certify_stream``
CERTIFY = "70cb03b8972ab29529cde4c77bf8a9e3a1276af567213e3c4a94fe82a95e6944"

WORKERS = sorted({1, min(2, os.cpu_count() or 1)})


@pytest.mark.parametrize("top", PIECES)
def test_piece_codes(top):
    assert digest(_pieces(top)) == PIECES[top]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("k", COPAW_ROWS)
def test_copaw_census_rows(k, workers):
    assert digest(census_copaw_critical(k, workers=workers)) == COPAW_ROWS[k]


@pytest.mark.parametrize("args", GENERAL_ROWS, ids=str)
def test_general_census_rows(args):
    assert digest(census_general(*args)) == GENERAL_ROWS[args]


@pytest.mark.parametrize("mode, n", STREAMS)
def test_generated_streams(mode, n):
    assert digest(list(generate_graphs(n, mode))) == STREAMS[mode, n]


def _certify_stream():
    # seeded queries at k = 3..5: P3+P1-free joins, general graphs, and
    # relabelled members one level up (critical6 at orders <= 10)
    rng = random.Random(5501)
    dbs = {k: build_database(k) for k in (4, 5, 6)}
    queries = [(rng.choice((3, 4, 5)), random_copaw_free(rng, 11)) for _ in range(300)]
    queries += [(rng.choice((3, 4, 5)), random_graph(rng, rng.randint(1, 10), rng.random()))
                for _ in range(100)]
    for k in (3, 4, 5):
        pool = [code for code in dbs[k + 1].graphs if ord(code[0]) - 63 <= 10]
        for code in rng.sample(pool, 8):
            g = from_graph6(code)
            queries.append((k, relabel(g, rng.sample(range(g.n), g.n))))
    return [(k, certify_color(g, k, dbs[k + 1])) for k, g in queries]


def test_certified_answers():
    assert digest(_certify_stream()) == CERTIFY
