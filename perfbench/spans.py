"""In-memory spans recorded around calls into the library's layers.

The tracer replaces a function's binding in the namespace of the module
that calls it (``kcrit.census.child_graphs``, not
``kcrit.generate.child_graphs``, because ``census`` imported the name)
with a wrapper that records one span per call: name, start, end and the
index of the enclosing span.  Nothing under ``src/`` changes; the
original bindings come back on ``restore``.

Spans live in compact arrays until the run ends.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import pathlib
from array import array
from time import perf_counter

# span name -> bindings to wrap, as (module, attribute); a binding that a
# later version of the package no longer has is listed in ``missing``
# instead of failing the run
LAYERS = {
    "generate.child_graphs": [("kcrit.census", "child_graphs")],
    "canon.canon_raw": [("kcrit.generate", "canon_raw")],
    "canon.canonical_form": [("kcrit.census", "canonical_form"),
                             ("kcrit.certify", "canonical_form"),
                             ("kcrit.canon", "canonical_form")],
    "invariants.matching_raw": [("kcrit.census", "matching_raw"),
                                ("kcrit.critical", "matching_raw")],
    "invariants.chromatic_number": [("kcrit.critical", "chromatic_number")],
    "invariants.independence_number": [("kcrit.critical", "independence_number"),
                                       ("kcrit.patterns", "independence_number")],
    "graph.Graph.init": [("kcrit.graph.Graph", "__post_init__")],
    "graph.read_graph_file": [("kcrit.census", "read_graph_file")],
    "census.level": [("kcrit.census", "_filtered_level")],
    "census.cross_check": [("kcrit.census", "_join_cross_check")],
    "patterns.is_free": [("kcrit.census", "is_free")],
    "patterns.contains_induced": [("kcrit.certify", "contains_induced")],
    "patterns.copaw_decompose": [("kcrit.certify", "copaw_decompose")],
    "critical.is_vertex_critical": [("kcrit.census", "is_vertex_critical"),
                                    ("kcrit.certify", "is_vertex_critical")],
    "certify.certify_color": [("kcrit.certify", "certify_color")],
    "certify.verify_certificate": [("kcrit.certify", "verify_certificate")],
    "certify.build_database": [("kcrit.certify", "build_database")],
    "certify.decode_members": [("kcrit.certify", "_decode_members")],
}


def _child_graphs_value(args, result) -> tuple[int, int]:
    return 0, len(result)                   # accepted children


def _level_value(args, result) -> tuple[int, int]:
    # (order of the new level, survivors at that order)
    parents, (_, codes) = args[0], result
    return (parents[0].n + 1 if parents else 0), len(codes)


# spans that keep an (order, value) pair besides their times
_VALUES = {"generate.child_graphs": _child_graphs_value,
           "census.level": _level_value}


class Tracer:
    """Records spans around the bindings named in ``LAYERS``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.order = array("b")
        self.value = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # ----- recording -----

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self, name: str) -> int:
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._open[-1])
        self.order.append(0)
        self.value.append(0)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._open.append(i)
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._open.pop()

    def _wrapper(self, name: str, fn):
        nid = self._id(name)
        keep_value = _VALUES.get(name)
        name_id, parent, order, value = self.name_id, self.parent, self.order, self.value
        start, end, open_ = self.start, self.end, self._open

        def traced(*args, **kwargs):
            # begin() and finish() inlined: this runs once per library call
            i = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            order.append(0)
            value.append(0)
            end.append(0.0)
            open_.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                open_.pop()
            if keep_value is not None:
                order[i], value[i] = keep_value(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every binding in ``LAYERS`` that exists in ``modules``."""
        for name, targets in LAYERS.items():
            for owner_path, attr in targets:
                owner = _resolve(modules, owner_path)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{owner_path}.{attr}")
                    continue
                setattr(owner, attr, self._wrapper(name, fn))
                self._patched.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def mark(self) -> int:
        return len(self.start)

    def rollback(self, mark: int) -> None:
        """Forget every span opened since ``mark`` (an aborted query)."""
        for arr in (self.name_id, self.parent, self.order, self.value,
                    self.start, self.end):
            del arr[mark:]
        while self._open[-1] >= mark:
            self._open.pop()

    # ----- summaries -----

    def summary(self, root: int) -> dict[str, dict[str, float]]:
        """Per span name under span ``root``: calls, total and self seconds, value sum.

        Spans are stored in start order, so the spans under a top-level
        span are the ones that follow it up to the next top-level span.
        """
        n = len(self.start)
        stop = next((i for i in range(root + 1, n) if self.parent[i] < 0), n)
        child = [0.0] * n
        for i in range(root + 1, stop):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0}
               for name in self.names}
        for i in range(root + 1, stop):
            rec = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
            rec["value"] += self.value[i]
        return out

    def inside(self, i: int, name: str) -> bool:
        """True when span i has an ancestor called ``name``."""
        if name not in self.names:
            return False
        nid = self.names.index(name)
        p = self.parent[i]
        while p >= 0:
            if self.name_id[p] == nid:
                return True
            p = self.parent[p]
        return False

    def spans_named(self, name: str) -> list[int]:
        if name not in self.names:
            return []
        nid = self.names.index(name)
        return [i for i, x in enumerate(self.name_id) if x == nid]

    def write(self, path: pathlib.Path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("# " + json.dumps({"fields": ["index", "name", "parent",
                                                   "start_s", "end_s"]}) + "\n")
            names = self.names
            fh.writelines(
                f"{i}\t{names[nid]}\t{p}\t{s:.9f}\t{e:.9f}\n"
                for i, (nid, p, s, e) in enumerate(
                    zip(self.name_id, self.parent, self.start, self.end)))


def _resolve(modules: dict[str, object], path: str):
    # "kcrit.graph.Graph" -> the Graph class of the imported kcrit.graph
    if path in modules:
        return modules[path]
    head, _, attr = path.rpartition(".")
    owner = modules.get(head)
    return getattr(owner, attr, None) if owner is not None else None
