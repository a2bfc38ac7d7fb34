"""Tests for the certified k-colorability decision and its shipped lists."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

from kcrit.canon import canonical_form
from kcrit.census import census_copaw_critical
import kcrit.certify
from kcrit.certify import (
    NO,
    NOT_IN_CLASS,
    YES,
    CertifiedAnswer,
    CriticalDatabase,
    _structural_coloring,
    build_database,
    certify_color,
    verify_certificate,
)
from kcrit.critical import is_vertex_critical
from kcrit.families import co_odd_cycle
from kcrit.graph import (Graph, complement, from_graph6, induced_subgraph, join, mask_of,
                         relabel, write_graph_list)
from kcrit.invariants import Coloring, is_k_colorable, triangle_free_raw
from kcrit.patterns import contains_induced, copaw_decompose, is_free, is_p3p1, named_graph

import oracles
from oracles import is_isomorphic
from util import random_copaw_free, random_graph, spy


@pytest.fixture(scope="module")
def db4():
    return build_database(4)


@pytest.fixture(scope="module")
def db5():
    return build_database(5)


# ===== databases =====

def test_database_sizes(db4, db5):
    assert len(db4.graphs) == 8
    assert len(db5.graphs) == 178


def test_database_range():
    for bad in (3, 7):
        with pytest.raises(ValueError):
            build_database(bad)


def test_shipped_matches_census(db4, db5):
    for db in (db4, db5):
        assert db.graphs == tuple(sorted(c for row in census_copaw_critical(db.k)
                                         for c in row.codes))


def test_database_members_pass_definition(db4, db5):
    for db in (db4, db5):
        for g in db.members_by_order():
            assert is_free(g, "P3+P1")
            assert is_vertex_critical(g, db.k).is_critical
            assert canonical_form(g) in db.graphs


def test_build_database_takes_only_k():
    with pytest.raises(TypeError):
        build_database(4, from_census=True)
    for gone in ("load_database", "save_database", "_data_file"):
        assert not hasattr(kcrit.certify, gone) and not hasattr(kcrit, gone)


def _shipped(monkeypatch, tmp_path, k, text):
    # build_database(k) reads the text as data/critical<k>.g6
    (tmp_path / f"critical{k}.g6").write_text(text)
    monkeypatch.setattr(kcrit.certify, "_DATA", tmp_path)


def test_build_database_skips_comment_lines(monkeypatch, tmp_path):
    _shipped(monkeypatch, tmp_path, 4, "# K4 only\nk=4 count=1\n\nC~  # K4\n")
    assert build_database(4) == CriticalDatabase(4, ("C~",))


def test_database_is_held_in_code_order(monkeypatch, tmp_path):
    # the scan order is code order, whatever order the file lists
    _shipped(monkeypatch, tmp_path, 4, "k=4 count=2\nE}iW\nC~\n")
    assert build_database(4).graphs == ("C~", "E}iW")


@pytest.mark.parametrize("k, count", [(4, 8), (5, 178), (6, 18007)])
def test_members_are_the_codes_decoded_in_turn(k, count):
    db = build_database(k)
    assert db.graphs == tuple(sorted(set(db.graphs))) and len(db.graphs) == count
    assert list(db.members_by_order()) == list(map(from_graph6, db.graphs))


def test_a_dropped_database_leaves_nothing_behind():
    # in a fresh interpreter, so that no earlier build can hide what one keeps
    script = ("import gc, tracemalloc\n"
              "from kcrit.certify import build_database\n"
              "tracemalloc.start()\n"
              "before = tracemalloc.get_traced_memory()[0]\n"
              "db = build_database(6)\n"
              "db.members_by_order()\n"
              "del db\n"
              "gc.collect()\n"
              "print(tracemalloc.get_traced_memory()[0] - before)\n")
    src = str(pathlib.Path(kcrit.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 64 * 1024


def test_database_round_trip(monkeypatch, tmp_path, db5):
    # the writer's output loads back as the same database, byte for byte
    shipped = (kcrit.certify._DATA / "critical5.g6").read_text()
    with open(tmp_path / "critical5.g6", "w", encoding="utf-8") as fh:
        write_graph_list(fh, 5, db5.graphs)
    monkeypatch.setattr(kcrit.certify, "_DATA", tmp_path)
    assert build_database(5) == db5
    text = (tmp_path / "critical5.g6").read_text()
    assert text.splitlines()[0] == "k=5 count=178"
    assert text == shipped


def test_load_database_errors(monkeypatch, tmp_path):
    for text, message in [
        ("C~\n", "missing header"),
        ("k=4\nC~\n", ":1: bad header 'k=4'"),
        ("k=5 count=1\nC~\n", "header names level 5, expected 4"),
        ("k=4 count=2\nC~\nC~\n", ":3: repeated code"),
        ("k=4 count=3\nC~\nDhc\n", "header says 3 graphs, file has 2"),
    ]:
        _shipped(monkeypatch, tmp_path, 4, text)
        with pytest.raises(ValueError, match=message):
            build_database(4)


# ===== members decoded on first read =====

def _eager(codes):
    return [from_graph6(c) for c in sorted(codes)]


@pytest.fixture
def decodes():
    # how many decodes kcrit.certify has made since its member memo was
    # emptied; a read that fails counts each time it reaches the code
    memo = kcrit.certify._decode
    memo.cache_clear()
    yield lambda: memo.cache_info().misses
    memo.cache_clear()


@pytest.mark.parametrize("k", [4, 5, 6])
def test_members_equal_the_eager_decode(k, decodes):
    db = build_database(k)
    eager = _eager(db.graphs)
    members = db.members_by_order()
    assert decodes() == 0
    cut = random.Random(k).randrange(1, len(eager))
    head = [next(members) for _ in range(cut)]
    assert head == eager[:cut] and decodes() == cut
    first = head + list(members)
    assert first == eager and decodes() == len(eager)
    # a second read decodes nothing and yields the very same objects
    again = list(db.members_by_order())
    assert decodes() == len(eager) and len(again) == len(first)
    assert all(g is h for g, h in zip(again, first))


def test_members_read_partway_in_any_order(decodes):
    db = build_database(5)
    eager = _eager(db.graphs)
    # two readers in step: each sees every member once, each decoded once
    pairs = list(zip(db.members_by_order(), db.members_by_order()))
    assert pairs == [(g, g) for g in eager] and decodes() == len(eager)
    assert all(g is h for g, h in pairs)
    # a reader that starts late catches up without decoding again
    first, late = db.members_by_order(), db.members_by_order()
    ahead = [next(first) for _ in range(60)]
    behind = [next(late) for _ in range(10)]
    assert behind == ahead[:10]
    assert ahead + list(first) == behind + list(late) == eager
    assert decodes() == len(eager)
    # a cold reader that stops partway decodes only what it read
    kcrit.certify._decode.cache_clear()
    members = db.members_by_order()
    assert [next(members) for _ in range(61)] == eager[:61] and decodes() == 61


def test_a_second_database_reads_its_members_from_the_process_wide_memo(decodes):
    # the memo is keyed by code and outlives the database that filled it
    first = list(build_database(5).members_by_order())
    assert len(first) == 178 and decodes() == 178
    again = list(build_database(5).members_by_order())
    assert decodes() == 178 and all(g is h for g, h in zip(again, first))


def test_a_malformed_code_raises_when_a_read_reaches_it(monkeypatch, tmp_path, decodes):
    _shipped(monkeypatch, tmp_path, 4, "k=4 count=2\nC~\nC~~\n")
    db = build_database(4)
    members = db.members_by_order()
    k4 = next(members)
    assert k4 == from_graph6("C~") and decodes() == 1
    with pytest.raises(ValueError, match="graph6 body has 2 bytes"):
        next(members)
    for _ in range(3):
        # the member before it is kept, and each new read fails on the same code
        assert next(db.members_by_order()) is k4
        with pytest.raises(ValueError, match="graph6 body has 2 bytes"):
            list(db.members_by_order())
    # K4 once, then the bad code at each of the four reads that reached it
    assert decodes() == 1 + 4 and kcrit.certify._decode.cache_info().currsize == 1


def test_a_no_query_decodes_only_the_members_it_reads(decodes):
    db6 = build_database(6)
    k6 = from_graph6("E~~w")
    answer = certify_color(k6, 5, db6)
    assert answer == CertifiedAnswer(NO, witness=0b111111)
    assert decodes() == 1
    assert certify_color(k6, 5, db6) == answer and decodes() == 1


def test_lazy_and_eager_members_give_the_same_answers(monkeypatch, db4, db5):
    db6 = build_database(6)
    rng = random.Random(22)
    queries = [(3, g) for g in db4.members_by_order()]
    queries += [(4, g) for g in db5.members_by_order()]
    for g in rng.sample(list(db6.members_by_order()), 6):
        queries.append((5, relabel(g, rng.sample(range(g.n), g.n))))
    queries += [(rng.choice((3, 4, 5)), random_copaw_free(rng, 11)) for _ in range(150)]
    dbs = {4: db4, 5: db5, 6: db6}
    lazy = [certify_color(g, k, dbs[k + 1]) for k, g in queries]
    monkeypatch.setattr(kcrit.certify, "_decode_members", _eager)
    eager = [certify_color(g, k, dbs[k + 1]) for k, g in queries]
    assert lazy == eager
    assert all(verify_certificate(g, k, ans) for (k, g), ans in zip(queries, lazy))
    assert {ans.verdict for ans in lazy} == {YES, NO}


# ===== certified answers on known graphs =====

def test_yes_certificate(db5):
    co9 = co_odd_cycle(5)
    db6 = build_database(6)
    ans = certify_color(co9, 5, db6)
    assert ans.verdict == YES and ans.witness is None
    assert ans.coloring.k <= 5
    assert max(ans.coloring.colors.count(c) for c in set(ans.coloring.colors)) <= 2
    assert verify_certificate(co9, 5, ans)


def test_no_certificate_whole_graph(db5):
    co9 = co_odd_cycle(5)
    ans = certify_color(co9, 4, db5)
    assert ans.verdict == NO and ans.coloring is None
    assert ans.witness == (1 << 9) - 1  # co-C9 is itself 5-vertex-critical
    assert verify_certificate(co9, 4, ans)


def test_not_in_class_certificate(db4):
    c7 = named_graph("C7")
    ans = certify_color(c7, 3, db4)
    assert ans.verdict == NOT_IN_CLASS
    assert is_isomorphic(induced_subgraph(c7, ans.witness), named_graph("P3+P1"))
    assert verify_certificate(c7, 3, ans)


def test_small_member_witness(db4):
    # K5 join an extra clique vertex: K4 is the smallest database hit
    g = join(named_graph("K5"), named_graph("K1"))
    ans = certify_color(g, 3, db4)
    assert ans.verdict == NO
    assert is_vertex_critical(induced_subgraph(g, ans.witness), 4).is_critical
    assert verify_certificate(g, 3, ans)


def test_empty_and_tiny_inputs(db4):
    empty = Graph(0, ())
    ans = certify_color(empty, 3, db4)
    assert ans.verdict == YES and verify_certificate(empty, 3, ans)
    one = Graph(1, (0,))
    ans = certify_color(one, 3, db4)
    assert ans.verdict == YES and ans.coloring.k == 1


def test_argument_validation(db4, db5):
    with pytest.raises(ValueError):
        certify_color(named_graph("K3"), 6, db5)
    with pytest.raises(ValueError):
        certify_color(named_graph("K3"), 4, db4)  # needs level 5


# ===== tampering is caught =====

def test_verify_rejects_tampering(db5):
    co9 = co_odd_cycle(5)
    good = certify_color(co9, 4, db5)
    assert verify_certificate(co9, 4, good)
    # non-critical witness
    assert not verify_certificate(co9, 4, CertifiedAnswer(NO, witness=0b1111))
    # witness with out-of-range bits
    assert not verify_certificate(co9, 4, CertifiedAnswer(NO, witness=1 << 12))
    # merged color classes across an edge
    db6 = build_database(6)
    yes = certify_color(co9, 5, db6)
    squashed = Coloring(tuple(min(c, 1) for c in yes.coloring.colors), 2)
    assert not verify_certificate(co9, 5, CertifiedAnswer(YES, coloring=squashed))
    # payload/verdict mismatches
    assert not verify_certificate(co9, 5, CertifiedAnswer(YES, witness=1))
    assert not verify_certificate(co9, 4, CertifiedAnswer(NO, coloring=yes.coloring))
    assert not verify_certificate(co9, 4, CertifiedAnswer("maybe", witness=3))


@pytest.mark.parametrize("answer", [
    CertifiedAnswer(NO, witness=3.0),
    CertifiedAnswer(NO, witness="7"),
    CertifiedAnswer(NO, witness=True),
    CertifiedAnswer(NOT_IN_CLASS, witness=15.0),
    CertifiedAnswer(YES, coloring=Coloring((0, 1, None), 2)),
    CertifiedAnswer(YES, coloring=Coloring((0, 1, 0), "2")),
    CertifiedAnswer(YES, coloring=Coloring((0, 1, 0), True)),
    CertifiedAnswer(YES, coloring=Coloring((0, 1, False), 2)),
    CertifiedAnswer(YES, coloring=Coloring(None, 2)),
    CertifiedAnswer(YES, coloring=Coloring([0, 1, 0], 2)),
    CertifiedAnswer(YES, coloring=((0, 1, 0), 2)),
], ids=["witness-float", "witness-str", "witness-bool", "p3p1-witness-float",
        "color-none", "k-str", "k-bool", "color-bool", "colors-none", "colors-list",
        "bare-tuple"])
def test_verify_rejects_malformed_payloads(answer):
    # a payload of the wrong type is a wrong answer, not an error
    p3 = named_graph("P3")
    assert not verify_certificate(p3, 3, answer)


def test_p3p1_witness_check_agrees_with_isomorphism():
    # verify_certificate recognises P3+P1 by its degrees; on every
    # labelled 4-vertex graph that agrees with canonical labeling
    p3p1 = named_graph("P3+P1")
    hits = 0
    for g in oracles.all_labeled_graphs(4):
        iso = is_isomorphic(g, p3p1)
        hits += iso
        assert is_p3p1(g) == iso
        answer = CertifiedAnswer(NOT_IN_CLASS, witness=0b1111)
        assert verify_certificate(g, 3, answer) == iso
    assert hits == 12


# ===== structural coloring =====

def _coloring_inputs():
    rng = random.Random(1)
    yield from (random_copaw_free(rng, 12) for _ in range(3000))
    yield from build_database(4).members_by_order()
    yield from build_database(5).members_by_order()
    yield from random.Random(6).sample(list(build_database(6).members_by_order()), 2000)


def test_structural_coloring_equals_the_induced_subgraph_path():
    checked = 0
    for g in _coloring_inputs():
        assert _structural_coloring(g, copaw_decompose(g)) == oracles.structural_coloring(g), g
        checked += 1
    assert checked == 3000 + 8 + 178 + 2000


def test_structural_coloring_tests_each_factor_for_triangles_once(monkeypatch):
    # one triangle kernel serves the decomposition and the alpha <= 2
    # kernel; a decomposition and the coloring built on it run it once
    # per factor, and never again on the whole graph
    calls = spy(monkeypatch, triangle_free_raw)
    rng = random.Random(2)
    for _ in range(200):
        g = random_copaw_free(rng, 12)
        calls.clear()
        _structural_coloring(g, copaw_decompose(g))
        tested = [mask for _, mask in calls]
        assert tested == list(copaw_decompose(g).factors)


def test_yes_query_builds_the_complement_once(monkeypatch, db5):
    # the structural coloring reads the complement rows that the join
    # decomposition built, so a YES query makes one complement
    calls = spy(monkeypatch, complement)
    rng = random.Random(3)
    answered = 0
    for _ in range(200):
        g = random_copaw_free(rng, 12)
        calls.clear()
        if certify_color(g, 4, db5).verdict == YES:
            answered += 1
            assert calls == [(g,)]
    assert answered >= 50


# ===== one decomposition per query =====

def test_certify_searches_for_p3p1_only_outside_the_class(monkeypatch, db4, db5):
    # every query decomposes once; an in-class query (YES, or NO by the
    # database scan) never searches for P3+P1, a NOT-IN-CLASS query once
    searches = spy(monkeypatch, contains_induced)
    decompositions = spy(monkeypatch, copaw_decompose)
    db6 = build_database(6)
    queries = [(co_odd_cycle(5), 5, db6, YES), (co_odd_cycle(5), 4, db5, NO),
               (join(named_graph("K5"), named_graph("K1")), 3, db4, NO),
               (named_graph("C5"), 3, db4, YES), (named_graph("C7"), 3, db4, NOT_IN_CLASS),
               (named_graph("P3+P1"), 5, db6, NOT_IN_CLASS)]
    for g, k, db, verdict in queries:
        searches.clear()
        decompositions.clear()
        ans = certify_color(g, k, db)
        assert ans.verdict == verdict
        assert decompositions == [(g,)]
        p3p1_searches = [h for _, h in searches if is_p3p1(h)]
        assert len(p3p1_searches) == (verdict == NOT_IN_CLASS)
        if verdict == NOT_IN_CLASS:
            assert len(searches) == 1
        elif verdict == YES:
            assert searches == []


@pytest.mark.parametrize("k", [3, 4, 5])
def test_not_in_class_witness_is_the_first_embedding(k, db4, db5):
    # on random graphs and P3+P1-free joins the decomposition decides the
    # class as the brute-force oracle does, and a NOT-IN-CLASS witness is
    # the lexicographically first embedding of P3+P1
    db = {3: db4, 4: db5}.get(k) or build_database(6)
    p3p1 = named_graph("P3+P1")
    rng = random.Random(3_000 + k)
    corpus = [random_graph(rng, rng.randint(4, 12), rng.choice((0.3, 0.5, 0.8)))
              for _ in range(80)]
    corpus += [random_copaw_free(rng, 10) for _ in range(80)]
    outside = 0
    for g in corpus:
        ans = certify_color(g, k, db)
        hit = contains_induced(g, p3p1)
        assert (ans.verdict != NOT_IN_CLASS) == oracles.is_p3p1_free(g)
        if hit is None:
            assert ans.verdict in (YES, NO)
        else:
            outside += 1
            assert ans == CertifiedAnswer(NOT_IN_CLASS, witness=mask_of(hit))
        assert verify_certificate(g, k, ans)
    assert outside >= 40


# ===== randomized soundness and agreement =====

@pytest.mark.parametrize("k", [3, 4])
def test_random_corpus_soundness(k, db4, db5):
    db = db4 if k == 3 else db5
    rng = random.Random(20_000 + k)
    for _ in range(150):
        g = random_copaw_free(rng, max_n=11)
        assert is_free(g, "P3+P1")
        ans = certify_color(g, k, db)
        assert ans.verdict in (YES, NO)
        assert verify_certificate(g, k, ans)
        assert (ans.verdict == YES) == (is_k_colorable(g, k) is not None)
