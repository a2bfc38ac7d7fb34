"""Tests for the command-line interface."""

import os

import pytest

import kcrit.census
from kcrit.cli import main
from kcrit.graph import parse_graph_line, read_graph_file, to_graph6
from kcrit.families import co_odd_cycle, odd_cycle
from kcrit.patterns import named_graph

from oracles import is_isomorphic
from util import data_path, spy


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse or parse-error exits
        return exc.code


# ===== check =====

def test_check_figure_file(capsys):
    code = run(["check", str(data_path("fig1.edges")), "--k", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().endswith("11/11 pass")
    assert out.count("critical@4=yes") == 11


def test_check_appendix(capsys):
    code = run(["check", str(data_path("appendix5.edges")), "--k", "5",
                "--pattern", "P3+P1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "178/178 pass" in out


def test_check_wrong_k_fails(capsys):
    code = run(["check", str(data_path("appendix5.edges")), "--k", "4"])
    assert code == 1
    assert "178/178" not in capsys.readouterr().out


@pytest.mark.parametrize("k", [None, 3])
def test_check_computes_chi_once_per_graph(tmp_path, capsys, monkeypatch, k):
    # with --k the criticality report's k is chi: one chi_with_d call a
    # line through every module that binds it, at alpha 2 and alpha 3
    from kcrit.invariants import chi_with_d
    f = tmp_path / "mixed.g6"
    f.write_text("FhCKG\nDhc\nFUzro\nEhcG\n")       # C7, C5, co-C7, C5 + a leaf
    calls = spy(monkeypatch, chi_with_d)
    assert run(["check", str(f)] + ([] if k is None else ["--k", str(k)])) == (k is not None)
    lines = ["line 1: n=7  chi=3  alpha=3  omega=2  critical@3=yes",
             "line 2: n=5  chi=3  alpha=2  omega=2  critical@3=yes",
             "line 3: n=7  chi=4  alpha=2  omega=3  critical@3=no",
             "line 4: n=6  chi=3  alpha=3  omega=2  critical@3=no"]
    if k is None:
        lines = [line.rsplit("  ", 1)[0] for line in lines] + ["4/4 pass"]
    else:
        lines.append("2/4 pass")
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)
    assert len(calls) == 4


def test_check_parse_error(capsys):
    assert run(["check", "/no/such/file", "--k", "4"]) == 2


@pytest.mark.parametrize("k", ["0", "-3"])
def test_check_rejects_k_below_one(capsys, k):
    assert run(["check", str(data_path("fig1.edges")), "--k", k]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: --k must be at least 1") and out == ""


def test_check_reports_invariants(tmp_path, capsys):
    f = tmp_path / "one.g6"
    f.write_text(to_graph6(co_odd_cycle(5)) + "\n")
    code = run(["check", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    assert "chi=5" in out and "alpha=2" in out and "omega=4" in out


@pytest.mark.parametrize("argv, line", [
    (["check", "{f}"], "100000000000000000000:"),
    (["check", "{f}", "--k", "4"], "10000000:"),
    (["check", "{f}", "--pattern", "K1000000000"], "3: 0 1"),
    (["census", "--k", "3", "--pattern", "P1000000000", "--max-order", "5"], None),
    (["color", "{f}", "--k", "3"], "40:"),
], ids=["order-overflow", "order-huge", "check-pattern", "census-pattern", "color-order"])
def test_oversized_orders_are_usage_errors(tmp_path, capsys, argv, line):
    f = tmp_path / "g.edges"
    f.write_text(f"{line}\n")
    assert run([a.format(f=f) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "order must be an int in 0..31, got " in err


def test_out_write_error_leaves_an_existing_file_as_it_was(tmp_path, capsys,
                                                           monkeypatch):
    # the census writes into a temporary file that replaces the target
    # only when the command succeeds; the temporary file is removed
    import kcrit.cli as cli

    def half_written(fh, k, codes):
        fh.write("k=4 count=8\nC~\n")
        raise OSError("No space left on device")

    monkeypatch.setattr(cli, "write_graph_list", half_written)
    out_file = tmp_path / "old.g6"
    out_file.write_text("k=3 count=2\nBw\nDqK\n")
    assert run(["census", "--k", "4", "--out", str(out_file)]) == 2
    assert capsys.readouterr().err == "error: No space left on device\n"
    assert out_file.read_text() == "k=3 count=2\nBw\nDqK\n"
    assert os.listdir(tmp_path) == ["old.g6"]


@pytest.mark.parametrize("argv", [
    ["census", "--k", "4"],
    ["convert", str(data_path("critical4.g6")), "--to", "graph6"],
], ids=["census", "convert"])
def test_out_overwrite_keeps_the_permission_bits(tmp_path, capsys, argv):
    out_file = tmp_path / "old.g6"
    out_file.write_text("old line\n" * 20)
    out_file.chmod(0o640)
    assert run(argv + ["--out", str(out_file)]) == 0
    assert out_file.stat().st_mode & 0o777 == 0o640
    assert len(read_graph_file(out_file)) == 8
    assert "old line" not in out_file.read_text()
    assert os.listdir(tmp_path) == ["old.g6"]


def test_out_to_a_fifo_is_written_directly(tmp_path, capsys):
    # a target that is not a regular file (a pipe, /dev/stdout) is
    # neither replaced nor truncated
    import threading
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run(["census", "--k", "3", "--out", str(fifo)]) == 0
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert got == ["k=3 count=2\nBw\nDqK\n"]
    assert os.listdir(tmp_path) == ["pipe"]


def test_out_write_error_is_reported_and_removes_the_new_file(tmp_path, capsys,
                                                             monkeypatch):
    import kcrit.cli as cli

    def disk_full(*args):
        raise OSError("No space left on device")

    monkeypatch.setattr(cli, "write_graph_list", disk_full)
    out_file = tmp_path / "new.g6"
    assert run(["census", "--k", "4", "--out", str(out_file)]) == 2
    out, err = capsys.readouterr()
    assert err == "error: No space left on device\n" and "total 8" in out
    assert not out_file.exists()


# ===== census =====

def test_census_table(capsys):
    code = run(["census", "--k", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[:4] == ["4,4,1", "4,5,0", "4,6,1", "4,7,6"]
    assert "total 8" in out


def test_census_small_copaw(capsys):
    code = run(["census", "--k", "3", "--pattern", "P3+P1",
                "--max-order", "5"])
    out = capsys.readouterr().out
    assert code == 0 and "total 2" in out


@pytest.mark.parametrize("spelling", ["co-paw", "copaw", "p3p1", "P3 + P1", "p3+p1"])
def test_census_fast_path_for_every_p3p1_spelling(capsys, spelling):
    # the fast path is chosen from the parsed pattern, so it needs no
    # --max-order under any name of P3+P1
    assert run(["census", "--k", "4"]) == 0
    expected = capsys.readouterr().out
    assert run(["census", "--k", "4", "--pattern", spelling]) == 0
    assert capsys.readouterr().out == expected


def test_census_unknown_pattern_is_usage_error(capsys):
    assert run(["census", "--k", "3", "--pattern", "triangle?",
                "--max-order", "5"]) == 2
    out, err = capsys.readouterr()
    assert "unknown pattern" in err and "Traceback" not in err and out == ""


def test_census_general_pattern(capsys, tmp_path):
    out_file = tmp_path / "res.g6"
    code = run(["census", "--k", "3", "--pattern", "P2+2P1",
                "--max-order", "5", "--out", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0 and "total 2" in out
    assert out_file.read_text().startswith("k=3 count=2\n")
    got = [g for _, g in read_graph_file(out_file)]
    assert len(got) == 2
    assert any(is_isomorphic(g, named_graph("C5")) for g in got)


def test_census_usage_errors(capsys):
    assert run(["census", "--k", "9", "--pattern", "P3+P1"]) == 2
    capsys.readouterr()
    assert run(["census", "--k", "3", "--pattern", "claw"]) == 2  # no max-order


@pytest.mark.parametrize("extra", [[], ["--pattern", "claw", "--max-order", "5"]])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_census_rejects_workers_below_one(capsys, workers, extra):
    assert run(["census", "--k", "3", "--workers", workers] + extra) == 2
    out, err = capsys.readouterr()
    assert f"workers must be an int >= 1, got {workers}" in err and out == ""


@pytest.mark.parametrize("extra", [[], ["--pattern", "claw", "--max-order", "5"]])
def test_census_rejects_workers_above_cpu_count(monkeypatch, capsys, extra):
    # checked before any pool is made, so this starts no process
    monkeypatch.setattr(kcrit.census, "Pool", lambda *a: pytest.fail("pool made"))
    workers = str((os.cpu_count() or 1) + 1)
    assert run(["census", "--k", "3", "--workers", workers] + extra) == 2
    out, err = capsys.readouterr()
    assert "workers must be at most the CPU count" in err and out == ""


@pytest.mark.parametrize("flag", ["--all-graphs", "--alpha-le-2"])
def test_census_pipeline_flags_are_gone(capsys, flag):
    # the pattern alone picks the pipeline
    assert run(["census", "--k", "3", "--pattern", "claw", "--max-order", "5",
                flag]) == 2
    out, err = capsys.readouterr()
    assert f"unrecognized arguments: {flag}" in err and out == ""


def test_census_bad_out_path_is_usage_error(tmp_path, capsys):
    # the output file is opened before the census runs
    bad = tmp_path / "missing" / "x.g6"
    assert run(["census", "--k", "4", "--out", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "Traceback" not in err and out == ""
    assert not bad.exists()


def test_census_out_file_replaced_and_kept_on_usage_error(tmp_path, capsys):
    out_file = tmp_path / "res.g6"
    out_file.write_text("old line\nanother\n")
    assert run(["census", "--k", "9", "--out", str(out_file)]) == 2
    assert out_file.read_text() == "old line\nanother\n"
    assert run(["census", "--k", "3", "--out", str(out_file)]) == 0
    assert len(read_graph_file(out_file)) == 2


@pytest.mark.parametrize("argv", [["--k", "9"],
                                  ["--k", "3", "--pattern", "claw", "--max-order", "12"]])
def test_census_usage_error_creates_no_out_file(tmp_path, capsys, argv):
    # the fast and the general pipeline each reject their arguments
    # after the file is opened; the file they would have written is gone
    out_file = tmp_path / "new.g6"
    assert run(["census"] + argv + ["--out", str(out_file)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and out == ""
    assert not out_file.exists()


@pytest.mark.parametrize("k", [4, 5])
def test_census_out_reproduces_the_shipped_list(tmp_path, capsys, k):
    out_file = tmp_path / f"critical{k}.g6"
    assert run(["census", "--k", str(k), "--out", str(out_file)]) == 0
    assert out_file.read_bytes() == data_path(f"critical{k}.g6").read_bytes()


def test_census_deterministic(capsys):
    run(["census", "--k", "4"])
    first = capsys.readouterr().out
    run(["census", "--k", "4"])
    assert capsys.readouterr().out == first


# ===== color =====

def test_color_verdicts(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_text(to_graph6(co_odd_cycle(5)) + "\n")
    assert run(["color", str(f), "--k", "4"]) == 0
    assert "NO witness=0,1,2,3,4,5,6,7,8" in capsys.readouterr().out
    assert run(["color", str(f), "--k", "5"]) == 0
    assert "YES colors=" in capsys.readouterr().out

    f.write_text(to_graph6(odd_cycle(3)) + "\n")
    assert run(["color", str(f), "--k", "3"]) == 0
    assert "NOT-IN-CLASS" in capsys.readouterr().out


def test_color_failed_certificate_keeps_answering(tmp_path, capsys,
                                                 monkeypatch):
    import kcrit.cli as cli

    graphs = [co_odd_cycle(5), odd_cycle(3), named_graph("K3"), odd_cycle(2)]
    f = tmp_path / "g.g6"
    f.write_text("".join(to_graph6(g) + "\n" for g in graphs))
    real = cli.verify_certificate
    monkeypatch.setattr(cli, "verify_certificate",
                        lambda g, k, ans: g != odd_cycle(3) and real(g, k, ans))
    assert run(["color", str(f), "--k", "3"]) == 1
    out, err = capsys.readouterr()
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "line 1", "line 3", "line 4"]
    assert "line 1: NO witness=" in out and "line 3: YES colors=" in out
    assert err.splitlines() == [
        "line 2: INTERNAL ERROR certificate failed verification"]


def test_color_unsupported_k(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_text(to_graph6(named_graph("K3")) + "\n")
    assert run(["color", str(f), "--k", "6"]) == 2


# ===== convert =====

def test_convert_round_trip(tmp_path, capsys):
    g6 = tmp_path / "a.g6"
    assert run(["convert", str(data_path("appendix5.edges")),
                "--to", "graph6", "--out", str(g6)]) == 0
    assert len(g6.read_text().splitlines()) == 178
    edges = tmp_path / "b.edges"
    assert run(["convert", str(g6), "--to", "edges", "--out", str(edges)]) == 0
    orig = [g for _, g in read_graph_file(data_path("appendix5.edges"))]
    back = [g for _, g in read_graph_file(edges)]
    assert all(is_isomorphic(a, b) for a, b in zip(orig, back))


def test_convert_bad_out_path_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "missing" / "x.edges"
    assert run(["convert", str(data_path("critical4.g6")), "--to", "edges",
                "--out", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and out == ""


@pytest.mark.parametrize("to", ["graph6", "edges"])
def test_convert_out_with_no_graphs_writes_nothing(tmp_path, capsys, to):
    src = tmp_path / "empty.g6"
    src.write_text("# nothing here\n")
    out_file = tmp_path / "out.txt"
    assert run(["convert", str(src), "--to", to, "--out", str(out_file)]) == 0
    assert out_file.read_text() == ""
    assert run(["convert", str(src), "--to", to]) == 0
    assert capsys.readouterr().out == ""


def test_convert_parse_error():
    assert run(["convert", "/no/such/file", "--to", "graph6"]) == 2


# ===== family =====

def test_family_outputs(capsys):
    assert run(["family", "odd-cycle", "2"]) == 0
    g = parse_graph_line(capsys.readouterr().out.strip())
    assert is_isomorphic(g, named_graph("C5"))

    assert run(["family", "co-odd-cycle", "5", "--to", "graph6"]) == 0
    g = parse_graph_line(capsys.readouterr().out.strip())
    assert is_isomorphic(g, co_odd_cycle(5))

    assert run(["family", "clique-cycle", "2", "4"]) == 0
    g = parse_graph_line(capsys.readouterr().out.strip())
    assert g.n == 7


def test_family_bad_params(capsys):
    assert run(["family", "odd-cycle", "0"]) == 2
    capsys.readouterr()
    # the parameter is named, not the order it implies
    assert run(["family", "odd-cycle", "16"]) == 2
    assert capsys.readouterr().err == "error: m must be an int in 1..15, got 16\n"
    assert run(["family", "clique-cycle", "2"]) == 2


@pytest.mark.parametrize("argv, expect", [
    (["odd-cycle", "5", "9", "7"], "odd-cycle takes 1 parameter(s) (m), got 3"),
    (["co-odd-cycle", "5", "2"], "co-odd-cycle takes 1 parameter(s) (k), got 2"),
    (["clique-cycle", "5"], "clique-cycle takes 2 parameter(s) (t k), got 1"),
    (["clique-cycle", "2", "4", "1"], "clique-cycle takes 2 parameter(s) (t k), got 3"),
])
def test_family_wrong_parameter_count(capsys, argv, expect):
    assert run(["family"] + argv) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {expect}\n" and out == ""
