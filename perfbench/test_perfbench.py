"""Tests of the benchmark itself: smoke runs, output shape, repeatable counts.

    python3 -m pytest perfbench -q

Each test runs ``run.py --smoke`` in a subprocess (a k=4 census, a
28-graph verify sample, two small certify blocks), so the whole file
takes about a minute.
"""

from __future__ import annotations

import json
import pathlib
import random
import shutil
import subprocess
import sys

import pytest

from inputs import graph6_order, read_shipped_list, stratified_sample
from run import per_layer_names
from workloads import DATA, WORKLOADS, percentile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=3, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "20", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == per_layer_names()
    assert {m["name"] for m in BENCH["end_to_end"]} == {"round_s", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_complete(workload):
    info, res = _result(_run(workload, trace=0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert info["seed"] == 3 and info["machine"]["nproc"] >= 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    runs = [_result(_run(workload, trace=1)) for _ in range(2)]
    names = [name for name, unit, _ in per_layer_names(smoke=True)]
    for _, res in runs:
        assert res["correct"] is True
        assert list(res["metrics"]) == names
    counts = [{k: v["value"] for k, v in res["metrics"].items()
               if v["unit"] in ("count", "ratio")} for _, res in runs]
    assert counts[0] == counts[1]
    assert runs[0][0]["trace_missing_bindings"] == []


def test_certify_aborts_only_deep_scans_and_answers_the_rest():
    info, res = _result(_run("certify-mix", trace=0))
    # only an order-11 graph at k=5 can need more than the 179 smaller
    # members of the level-6 database, so only those reach the scan limit
    assert set(info["certify.aborted_by_k_order"]) == {"scans: k=5 n=11"}
    assert res["failed"] == info["certify.aborted"] >= 1
    # the shipped critical4, critical5 and order <= 10 critical6 members
    # of both smoke blocks all get NO
    assert info["certify.verdicts"]["no"] >= 3 * 2


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("census-k6", trace=0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_stratified_sample_keeps_every_order_and_repeats():
    _, codes = read_shipped_list(DATA / "critical6.g6")
    a = stratified_sample(random.Random(5), codes, 500)
    assert a == stratified_sample(random.Random(5), codes, 500)
    assert {graph6_order(c) for c in a} == {graph6_order(c) for c in codes}
    assert len(set(a)) == len(a)


def test_percentile_counts_an_aborted_query_as_missing_the_limit():
    assert percentile([0.001] * 99 + [float("inf")], 0.99) == pytest.approx(1.0)
    assert percentile([0.001] * 98 + [float("inf")] * 2, 0.99) is None
