"""The three workloads: the k=6 census, list verification, certified coloring.

A workload has three parts, run in this order by ``run.py``:

- ``inputs(rng, seconds, workdir)`` builds the seeded inputs from the
  shipped data files without importing the package;
- ``setup(kc)`` does the library-side set-up on a fresh import of the
  package, and is what ``setup_s`` times;
- ``run(kc, state, inputs, tracer)`` performs the measured rounds and
  checks every output.

``kc`` holds the imported modules.  Library calls go through module
attributes (``kc.certify.certify_color``) so that a traced run sees them.
A round is the unit of work whose median time is reported as ``round_s``.
"""

from __future__ import annotations

import math
import pathlib
import signal
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from inputs import (graph6_adj, graph6_order, random_adj, random_copaw_free,
                    read_shipped_list, relabel_adj, stratified_sample, write_body)

HERE = pathlib.Path(__file__).resolve().parent
DATA = HERE.parent / "src" / "kcrit" / "data"


@dataclass
class Outcome:
    """What a workload's measured phase did."""

    rounds_s: list[float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)   # failed output checks
    info: dict = field(default_factory=dict)             # figures named per workload
    layers: dict = field(default_factory=dict)           # per-layer figures of its own


def _begin(tracer, name="bench.round"):
    return tracer.begin(name) if tracer is not None else -1


def _end(tracer, i):
    if tracer is not None:
        tracer.finish(i)


# ===== census-k6 =====

class Census:
    """``census_copaw_critical(6, n_max=10)``, with its join cross-check.

    The order-11 level (about 90 s on a 2-core Xeon) does not fit the
    run budget, so a round stops at order 10.  Every round must give the
    pinned counts and exactly the order <= 10 part of ``critical6.g6``.
    """

    name = "census-k6"
    ROUND_NOMINAL_S = 7.0        # sets rounds from --seconds
    EXPECTED = {6: {6: 1, 7: 0, 8: 1, 9: 6, 10: 171},
                4: {4: 1, 5: 0, 6: 1, 7: 6}}

    def __init__(self, smoke: bool = False) -> None:
        self.k = 4 if smoke else 6
        self.n_max = 7 if smoke else 10
        self.smoke = smoke

    @property
    def orders(self) -> range:
        return range(self.k, self.n_max + 1)

    def inputs(self, rng, seconds, workdir):
        _, codes = read_shipped_list(DATA / f"critical{self.k}.g6")
        reference = {c for c in codes if graph6_order(c) <= self.n_max}
        rounds = 1 if self.smoke else max(1, round(seconds / self.ROUND_NOMINAL_S))
        return reference, rounds

    def setup(self, kc):
        return None

    def run(self, kc, state, inputs, tracer) -> Outcome:
        reference, rounds = inputs
        out = Outcome([], attempted=rounds, failed=0)
        for _ in range(rounds):
            span = _begin(tracer)
            t0 = perf_counter()
            rows = kc.census.census_copaw_critical(self.k, self.n_max, workers=1)
            out.rounds_s.append(perf_counter() - t0)
            _end(tracer, span)
            counts = {row.n: len(row.codes) for row in rows}
            codes = {c for row in rows for c in row.codes}
            bad = []
            if counts != self.EXPECTED[self.k]:
                bad.append(f"census counts {counts} != {self.EXPECTED[self.k]}")
            if codes != reference:
                bad.append(f"census codes differ from critical{self.k}.g6: "
                           f"{len(codes - reference)} extra, {len(reference - codes)} missing")
            out.problems.extend(bad)
            out.failed += bool(bad)
        out.info = {"census.wall_s": statistics.median(out.rounds_s),
                    "census.rounds": rounds, "census.k": self.k, "census.n_max": self.n_max}
        return out


# ===== verify-k6 =====

class Verify:
    """``verify_list`` over a seeded, order-stratified sample of critical6.g6.

    The sample is split into rounds, each a body-only file: the package's
    ``read_graph_file`` rejects the ``k=6 count=18007`` header line.
    """

    name = "verify-k6"
    GRAPHS_PER_S = 400           # nominal rate that sizes the sample from --seconds
    GRAPHS_PER_ROUND = 500

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke

    def inputs(self, rng, seconds, workdir):
        _, codes = read_shipped_list(DATA / "critical6.g6")
        size = 24 if self.smoke else round(seconds * self.GRAPHS_PER_S)
        sample = stratified_sample(rng, codes, size)
        rng.shuffle(sample)
        rounds = max(1, len(sample) // self.GRAPHS_PER_ROUND)
        chunks = []
        for r in range(rounds):
            chunk = sample[r::rounds]
            path = pathlib.Path(workdir) / f"verify-{r}.g6"
            write_body(chunk, path)
            chunks.append((path, chunk))
        return chunks

    def setup(self, kc):
        return None

    def run(self, kc, state, inputs, tracer) -> Outcome:
        out = Outcome([], attempted=sum(len(chunk) for _, chunk in inputs), failed=0)
        for path, chunk in inputs:
            span = _begin(tracer)
            t0 = perf_counter()
            report = kc.census.verify_list(path, 6, "P3+P1", census_codes=chunk)
            out.rounds_s.append(perf_counter() - t0)
            _end(tracer, span)
            bad_lines = {lineno for lineno, _ in report.failures}
            out.failed += len(bad_lines)
            if not report.ok or report.census_match is not True or report.total != len(chunk):
                out.problems.append(
                    f"{path.name}: ok={report.ok} census_match={report.census_match} "
                    f"total={report.total}/{len(chunk)} failures={report.failures[:3]}")
                out.failed += not bad_lines
        orders = Counter(graph6_order(c) for _, chunk in inputs for c in chunk)
        out.info = {"verify.graphs_per_s": out.attempted / sum(out.rounds_s),
                    "verify.graphs": out.attempted,
                    "verify.orders": {str(n): orders[n] for n in sorted(orders)}}
        return out


# ===== certify-mix =====

class QueryLimit(Exception):
    """A query went past the certify-mix limit."""


class QueryLimits:
    """Aborts the running query past SCANS database members or CPU_S seconds.

    The database scan is the one step of ``certify_color`` whose cost has
    no bound, and its latency has no gap to put a time limit in: the scan
    runs at 400 to 12,000 members per second depending on the graph, and
    on a shared 2-vCPU VM the speed of the same code drifts by a third.
    So the limit counts members: a counting wrapper on
    ``contains_induced`` in ``kcrit.certify`` raises ``QueryLimit`` at
    member SCANS + 1 (the first call of a query is the P3+P1 test), which
    makes the aborted queries the same on every run.
    An interval timer on ITIMER_PROF bounds every other step at CPU_S.
    """

    SCANS = 500
    CPU_S = 10.0

    def __init__(self, certify_module) -> None:
        self.module = certify_module
        self.armed = False
        self.calls = 0
        self.reason = ""

    def __enter__(self):
        scan = self._scan = self.module.contains_induced

        def counted(g, h):
            self.calls += 1
            if self.armed and self.calls > self.SCANS + 1:
                self._abort("scans")
            return scan(g, h)

        self.module.contains_induced = counted
        self._old = signal.signal(signal.SIGPROF, lambda signum, frame: self._abort("cpu"))
        return self

    def __exit__(self, *exc):
        self.disarm()
        signal.signal(signal.SIGPROF, self._old)
        self.module.contains_induced = self._scan

    def _abort(self, reason: str) -> None:
        if self.armed:
            self.armed = False
            self.reason = reason
            raise QueryLimit(reason)

    def arm(self) -> None:
        self.calls = 0
        self.armed = True
        signal.setitimer(signal.ITIMER_PROF, self.CPU_S)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_PROF, 0)


def percentile(values: list[float], p: float):
    """Nearest-rank percentile; None when it falls on an aborted query."""
    xs = sorted(values)
    v = xs[max(0, math.ceil(p * len(xs)) - 1)]
    return None if math.isinf(v) else v * 1e3


def latency_summary(values: list[float]) -> dict:
    """p50 and p99 in ms, with the samples behind them and beyond p99."""
    n = len(values)
    return {"p50_ms": percentile(values, 0.50) if n else None,
            "p99_ms": percentile(values, 0.99) if n else None,
            "samples": n,
            "beyond_p99": n - math.ceil(0.99 * n)}


class Certify:
    """A seeded stream of ``certify_color`` + ``verify_certificate`` queries.

    A round is one query, so ``round_s`` is the median query latency.
    The stream is built in blocks.  Each block holds RANDOM_PER_BLOCK
    random queries (P3+P1-free joins of order <= 11, and some general
    graphs) plus one member of each shipped list one level up, relabelled:
    critical4 at k=3, critical5 at k=4, and critical6 at k=5 twice, once
    of order <= 10 and once of order 11.  Shipped members are drawn
    stratified by their position in the database scan, so the order-11
    ones mostly lie past the scan limit.  A query past a limit of
    ``QueryLimits`` is aborted and counted as failed, with no latency.
    """

    name = "certify-mix"
    RANDOM_PER_BLOCK = 500
    GENERAL_SHARE = 0.15
    BLOCK_NOMINAL_S = 2.5        # sets blocks from --seconds

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke

    def inputs(self, rng, seconds, workdir):
        blocks = 2 if self.smoke else max(1, round(seconds / self.BLOCK_NOMINAL_S))
        per_block = 20 if self.smoke else self.RANDOM_PER_BLOCK
        level = {k: read_shipped_list(DATA / f"critical{k}.g6")[1] for k in (4, 5, 6)}
        shipped = [(3, level[4]), (4, level[5]),
                   (5, [c for c in level[6] if graph6_order(c) <= 10]),
                   (5, [c for c in level[6] if graph6_order(c) == 11])]
        draws = [(k, _stratified_draws(rng, pool, blocks)) for k, pool in shipped]
        stream = []
        for b in range(blocks):
            block = []
            for _ in range(per_block):
                k = rng.choice((3, 4, 5))
                if rng.random() < self.GENERAL_SHARE:
                    adj = random_adj(rng, rng.randint(5, 11), rng.uniform(0.3, 0.8))
                    block.append(("general", k, adj))
                else:
                    block.append(("join", k, random_copaw_free(rng, 11)))
            for k, picks in draws:
                block.append(("shipped", k, relabel_adj(rng, graph6_adj(picks[b]))))
            rng.shuffle(block)
            stream.extend(block)
        return stream

    def setup(self, kc):
        dbs = {k: kc.certify.build_database(k) for k in (4, 5, 6)}
        for db in dbs.values():
            db.members_by_order()           # decode now, not in the first NO query
        return dbs

    def run(self, kc, dbs, stream, tracer) -> Outcome:
        out = Outcome([], attempted=len(stream), failed=0)
        lat, no_lat, scans = [], [], []
        verdicts, aborted = Counter(), Counter()
        graph, certify = kc.graph, kc.certify
        with QueryLimits(certify) as limit:
            for kind, k, adj in stream:
                mark = tracer.mark() if tracer is not None else 0
                span = _begin(tracer, "bench.query")
                status = "done"
                t0 = perf_counter()
                limit.arm()
                try:
                    g = graph.Graph(len(adj), tuple(adj))
                    ans = certify.certify_color(g, k, dbs[k + 1])
                    ok = certify.verify_certificate(g, k, ans)
                    limit.disarm()
                except QueryLimit:
                    status = "aborted"
                except Exception as exc:    # a library error fails the query, not the run
                    limit.disarm()
                    status = "error"
                    out.problems.append(f"k={k} n={len(adj)} {kind}: {exc!r}")
                dt = perf_counter() - t0
                if status == "aborted":
                    # a scan past the limit only happens on the way to a NO;
                    # the partial spans would make a cpu abort's counts
                    # depend on timing, so they are dropped
                    aborted[(limit.reason, k, len(adj))] += 1
                    out.failed += 1
                    lat.append(math.inf)
                    if limit.reason == "scans":
                        no_lat.append(math.inf)
                    if tracer is not None:
                        tracer.rollback(mark)
                    continue
                _end(tracer, span)
                out.rounds_s.append(dt)
                lat.append(dt)
                if status == "error":
                    out.failed += 1
                    continue
                verdicts[ans.verdict] += 1
                if ans.verdict == "no":
                    no_lat.append(dt)
                    scans.append(limit.calls - 1)     # less the P3+P1 test
                bad = None
                if not ok:
                    bad = f"certificate failed verification ({ans.verdict})"
                elif kind == "shipped" and ans.verdict != "no":
                    bad = f"shipped {k + 1}-critical graph got {ans.verdict}"
                if bad:
                    out.problems.append(f"k={k} n={len(adj)} {kind}: {bad}")
                    out.failed += 1
        out.info = {
            "certify.qps": len(out.rounds_s) / sum(out.rounds_s),
            "certify.all": latency_summary(lat),
            "certify.no": latency_summary(no_lat),
            "certify.limits": {"scans": QueryLimits.SCANS, "cpu_s": QueryLimits.CPU_S},
            "certify.verdicts": dict(verdicts),
            "certify.aborted": sum(aborted.values()),
            "certify.aborted_by_k_order": {f"{why}: k={k} n={n}": c
                                           for (why, k, n), c in sorted(aborted.items())},
            "certify.scans_per_no": sum(scans) / len(scans) if scans else 0.0,
        }
        out.layers["certify.scans_per_no"] = out.info["certify.scans_per_no"]
        return out


def _stratified_draws(rng, pool, count):
    # one member from each of `count` equal slices of the pool, in scan
    # order, then shuffled
    picks = []
    for r in range(count):
        lo = r * len(pool) // count
        hi = max(lo + 1, (r + 1) * len(pool) // count)
        picks.append(pool[rng.randrange(lo, min(hi, len(pool)))])
    rng.shuffle(picks)
    return picks


WORKLOADS = {cls.name: cls for cls in (Census, Verify, Certify)}
