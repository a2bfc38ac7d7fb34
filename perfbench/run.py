"""Benchmark of the kcrit package: k=6 census, list verification, certified coloring.

    python3 perfbench/run.py --workload census-k6 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  The run builds its inputs from --seed,
times several set-ups on a fresh import of the package, performs
the workload's rounds in this one process, checks every output and
prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (round_s, setup_s,
peak_rss_mb); with --trace 1 the run records spans around the library's
layers and the metrics are the per-layer ones.  The line before it holds
machine facts and the figures each workload names for itself.
--smoke shrinks every workload to a few seconds for the tests.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pathlib
import platform
import random
import resource
import statistics
import sys
import tempfile
from time import perf_counter
from types import SimpleNamespace

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-ups repeat back to back until at least SETUP_REPEATS[0] of them have
# spanned SETUP_WINDOW_S (at most SETUP_REPEATS[1]).  The machine's speed
# drifts over fractions of a second, and a median over a window varies
# less than one over a burst.
SETUP_REPEATS = (7, 80)
SETUP_WINDOW_S = 2.0

from spans import Tracer                      # noqa: E402
from workloads import WORKLOADS, Census       # noqa: E402


def per_layer_names(smoke: bool = False) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    m = []
    for layer in ("generate.child_graphs", "canon.canon_raw", "canon.canonical_form",
                  "invariants.matching_raw", "invariants.chromatic_number",
                  "graph.Graph.init", "patterns.is_free", "patterns.contains_induced",
                  "critical.is_vertex_critical"):
        m += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    m += [("generate.children", "count", "lower"),
          ("generate.accept_ratio", "ratio", "higher"),
          ("invariants.independence_number.calls", "count", "lower"),
          ("graph.read_graph_file.self_s", "s", "lower"),
          ("patterns.copaw_decompose.self_s", "s", "lower"),
          ("certify.certify_color.self_s", "s", "lower"),
          ("certify.verify_certificate.self_s", "s", "lower"),
          ("certify.build_database.self_s", "s", "lower"),
          ("certify.decode_members.self_s", "s", "lower"),
          ("certify.scans_per_no", "count", "lower")]
    for n in Census(smoke).orders:
        m += [(f"census.level_s.n{n}", "s", "lower"),
              (f"census.survivors.n{n}", "count", "higher")]
    m += [("census.cross_check_s", "s", "lower"),
          ("trace.round_s", "s", "lower")]
    return m


def layer_metrics(tracer: Tracer, setup_root: int, run_root: int, outcome,
                  smoke: bool) -> dict[str, float]:
    """Per-layer values from the recorded spans, per round of the measured run.

    Set-up spans count only towards the certify database figures, which
    are per set-up.
    """
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0}
    run = tracer.summary(run_root)
    rounds = len(outcome.rounds_s)

    def rec(name):
        return run.get(name, empty)

    vals: dict[str, float] = {}
    for name, _, _ in per_layer_names(smoke):
        layer, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s") and not layer.startswith("census."):
            vals[name] = rec(layer)[stat] / rounds
    setup = tracer.summary(setup_root)
    for layer in ("certify.build_database", "certify.decode_members"):
        vals[f"{layer}.self_s"] = setup.get(layer, empty)["self_s"]
    # canon_raw is wrapped only where generate calls it, so every call counts
    accepted = rec("generate.child_graphs")["value"]
    candidates = rec("canon.canon_raw")["calls"]
    vals["generate.children"] = accepted / rounds
    vals["generate.accept_ratio"] = accepted / candidates if candidates else 0.0
    # levels run by the cross-check's smaller censuses belong to the cross-check
    level_s: dict[int, float] = {}
    survivors: dict[int, int] = {}
    for i in tracer.spans_named("census.level"):
        if i < run_root or tracer.inside(i, "census.cross_check"):
            continue
        n = tracer.order[i]
        level_s[n] = level_s.get(n, 0.0) + tracer.end[i] - tracer.start[i]
        survivors[n] = survivors.get(n, 0) + tracer.value[i]
    for n in Census(smoke).orders:
        vals[f"census.level_s.n{n}"] = level_s.get(n, 0.0) / rounds
        vals[f"census.survivors.n{n}"] = survivors.get(n, 0) / rounds
    vals["census.cross_check_s"] = rec("census.cross_check")["total_s"] / rounds
    vals["certify.scans_per_no"] = outcome.layers.get("certify.scans_per_no", 0.0)
    vals["trace.round_s"] = statistics.median(outcome.rounds_s)
    return {name: vals[name] for name, _, _ in per_layer_names(smoke)}


def fresh_import() -> dict[str, object]:
    """Import the package anew, as a new process would, and return its modules."""
    for name in [m for m in sys.modules if m == "kcrit" or m.startswith("kcrit.")]:
        del sys.modules[name]
    importlib.import_module("kcrit")
    return {m: mod for m, mod in sys.modules.items()
            if m == "kcrit" or m.startswith("kcrit.")}


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "platform": platform.platform()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True,
                    help="sizes the work from nominal per-workload rates")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="a few seconds of work per workload, for the tests")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kcrit" / "__init__.py").is_file():
        print(f"error: no kcrit package source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")

    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as workdir:
        t0 = perf_counter()
        inputs = workload.inputs(random.Random(args.seed), args.seconds, workdir)
        inputs_s = perf_counter() - t0

        tracer = Tracer() if args.trace else None
        setup_times, state = [], None
        least, most = SETUP_REPEATS
        window_start = perf_counter()
        while True:
            state = None
            gc.collect()
            n = len(setup_times) + 1
            last = n == most or (n >= least and
                                 perf_counter() - window_start >= SETUP_WINDOW_S)
            t0 = perf_counter()
            modules = fresh_import()
            traced = tracer is not None and last
            if traced:
                tracer.install(modules)     # trace the set-up whose state is kept
                setup_root = tracer.begin("bench.setup")
            kc = SimpleNamespace(census=modules["kcrit.census"],
                                 certify=modules["kcrit.certify"],
                                 graph=modules["kcrit.graph"])
            state = workload.setup(kc)
            if traced:
                tracer.finish(setup_root)
            setup_times.append(perf_counter() - t0)
            if last:
                break
        gc.collect()
        try:
            if tracer is not None:
                run_root = tracer.begin("bench.run")
            outcome = workload.run(kc, state, inputs, tracer)
            if tracer is not None:
                tracer.finish(run_root)
        finally:
            if tracer is not None:
                tracer.restore()

    round_s = statistics.median(outcome.rounds_s)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "machine": machine(),
            "rounds": len(outcome.rounds_s),
            "rounds_s": (outcome.rounds_s if len(outcome.rounds_s) <= 50
                         else {"quartiles": statistics.quantiles(outcome.rounds_s, n=4)}),
            "setup_s_each": setup_times, "inputs_s": inputs_s,
            "failed_frac": outcome.failed / outcome.attempted,
            "problems": outcome.problems[:20], **outcome.info}
    untraced = OUT / f"{stem}.untraced.json"
    if tracer is None:
        metrics = {"round_s": (round_s, "s"),
                   "setup_s": (statistics.median(setup_times), "s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                   "MB")}
        untraced.write_text(json.dumps({"round_s": round_s}))
    else:
        units = {name: unit for name, unit, _ in per_layer_names(args.smoke)}
        metrics = {name: (v, units[name])
                   for name, v in layer_metrics(tracer, setup_root, run_root, outcome,
                                                args.smoke).items()}
        info["trace_missing_bindings"] = tracer.missing
        info["trace_spans"] = len(tracer.start)
        info["trace_file"] = str((OUT / f"trace-{args.workload}.tsv.gz").relative_to(ROOT))
        # overhead against the untraced run of the same seed in this checkout
        if untraced.is_file():
            base = json.loads(untraced.read_text())["round_s"]
            info["tracing_overhead"] = {"untraced_round_s": base, "traced_round_s": round_s,
                                        "overhead_frac": round_s / base - 1}
        else:
            info["tracing_overhead"] = "no untraced run of this seed in this checkout yet"
        tracer.write(OUT / f"trace-{args.workload}.tsv.gz")

    correct = not outcome.problems
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": {name: {"value": v, "unit": unit}
                                  for name, (v, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
