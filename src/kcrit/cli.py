"""Command-line front end: check, census, color, convert, family.

Exit status contract: 0 when everything asserted holds, 1 when a
property check fails, 2 on a usage, parse or I/O error: the commands
raise ValueError or OSError, and ``main`` alone reports it as one
``error: <message>`` line on stderr.  Output is deterministic for fixed
inputs and flags.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import tempfile
from contextlib import contextmanager

from .census import census_copaw_critical, census_general
from .certify import NO, NOT_IN_CLASS, YES, build_database, certify_color, verify_certificate
from .critical import is_vertex_critical
from .families import clique_substituted_odd_cycle, co_odd_cycle, odd_cycle
from .graph import bits, format_edge_list, read_graph_file, to_graph6, write_graph_list
from .invariants import chromatic_number, clique_number, independence_number
from .patterns import is_free, is_p3p1, named_graph


@contextmanager
def _open_out(path):
    # the --out file, opened before any work so that a bad path is a
    # usage error.  A regular file is written through a temporary file in
    # its directory, which replaces it (with its permission bits) only
    # when the context exits cleanly: an error leaves an existing file as
    # it was and removes one the context created.  Any other target (a
    # device such as /dev/stdout) is written directly.  Yields None
    # without --out
    if path is None:
        yield None
        return
    created = not os.path.exists(path)
    with open(path, "a") as target:
        mode = os.fstat(target.fileno()).st_mode
        if not stat.S_ISREG(mode):
            yield target
            return
    path = os.path.realpath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path))
    try:
        with open(fd, "w") as fh:
            yield fh
        os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        if created:
            os.remove(path)
        raise


# ===== check =====

def _cmd_check(args) -> int:
    if args.k is not None and args.k < 1:
        raise ValueError("--k must be at least 1")
    entries = read_graph_file(args.file)
    patterns = [(name, named_graph(name)) for name in args.pattern or []]
    passed = 0
    for lineno, g in entries:
        # the criticality report's k is chi, so chi is computed once
        report = None if args.k is None else is_vertex_critical(g, args.k)
        chi = chromatic_number(g) if report is None else report.k
        fields = [f"line {lineno}: n={g.n}", f"chi={chi}",
                  f"alpha={independence_number(g)}", f"omega={clique_number(g)}"]
        ok = True
        if report is not None:
            crit = report.is_critical
            ok &= crit
            fields.append(f"critical@{args.k}={'yes' if crit else 'no'}")
        for name, pat in patterns:
            free = is_free(g, pat)
            ok &= free
            fields.append(f"{name}-free={'yes' if free else 'no'}")
        passed += ok
        print("  ".join(fields))
    print(f"{passed}/{len(entries)} pass")
    return 0 if passed == len(entries) else 1


# ===== census =====

def _cmd_census(args) -> int:
    pattern = None if args.pattern.lower() == "none" else named_graph(args.pattern)
    fast = pattern is not None and is_p3p1(pattern)
    if not fast and args.max_order is None:
        raise ValueError("--max-order is required for this pattern")
    with _open_out(args.out) as fh:
        if fast:
            rows = census_copaw_critical(args.k, args.max_order,
                                         workers=args.workers)
        else:
            rows = census_general(args.k, pattern, args.max_order,
                                  workers=args.workers)
        for row in rows:
            print(f"{args.k},{row.n},{row.count}")
        print(f"total {sum(r.count for r in rows)}")
        if fh is not None:
            write_graph_list(fh, args.k, (code for row in rows for code in row.codes))
    return 0


# ===== color =====

def _cmd_color(args) -> int:
    if args.k not in (3, 4, 5):
        raise ValueError("--k must be 3, 4, or 5")
    entries = read_graph_file(args.file)
    db = build_database(args.k + 1)
    failed = 0
    for lineno, g in entries:
        ans = certify_color(g, args.k, db)
        if not verify_certificate(g, args.k, ans):
            print(f"line {lineno}: INTERNAL ERROR certificate failed "
                  f"verification", file=sys.stderr)
            failed += 1
            continue
        if ans.verdict == YES:
            print(f"line {lineno}: YES colors="
                  + ",".join(map(str, ans.coloring.colors)))
        elif ans.verdict == NO:
            print(f"line {lineno}: NO witness="
                  + ",".join(map(str, bits(ans.witness))))
        else:
            print(f"line {lineno}: NOT-IN-CLASS p3p1="
                  + ",".join(map(str, bits(ans.witness))))
    return 1 if failed else 0


# ===== convert =====

def _cmd_convert(args) -> int:
    entries = read_graph_file(args.file)
    render = to_graph6 if args.to == "graph6" else format_edge_list
    lines = [render(g) + "\n" for _, g in entries]
    with _open_out(args.out) as fh:
        (fh or sys.stdout).writelines(lines)
    return 0


# ===== family =====

# family name -> (builder, names of its integer parameters)
_FAMILIES = {
    "odd-cycle": (odd_cycle, ("m",)),
    "co-odd-cycle": (co_odd_cycle, ("k",)),
    "clique-cycle": (clique_substituted_odd_cycle, ("t", "k")),
}


def _cmd_family(args) -> int:
    build, names = _FAMILIES[args.name]
    if len(args.params) != len(names):
        raise ValueError(f"{args.name} takes {len(names)} parameter(s) "
                         f"({' '.join(names)}), got {len(args.params)}")
    g = build(*args.params)
    print(to_graph6(g) if args.to == "graph6" else format_edge_list(g))
    return 0


# ===== entry point =====

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="kcrit",
        description="exact tools for k-vertex-critical graphs with small "
                    "forbidden induced subgraphs")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="report invariants and assert "
                                     "criticality/freeness per graph")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None,
                   help="assert k-vertex-criticality")
    p.add_argument("--pattern", action="append",
                   help="assert freeness of this induced pattern (repeatable)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("census", help="count k-vertex-critical pattern-free "
                                      "graphs per order")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pattern", default="P3+P1")
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None,
                   help="write census graphs here: a header, then sorted graph6 codes")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("color", help="certified k-colorability for "
                                     "P3+P1-free inputs")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("convert", help="rewrite a graph file in another format")
    p.add_argument("file")
    p.add_argument("--to", choices=("graph6", "edges"), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("family", help="emit a named family member")
    p.add_argument("name", choices=tuple(_FAMILIES))
    p.add_argument("params", type=int, nargs="+")
    p.add_argument("--to", choices=("graph6", "edges"), default="edges")
    p.set_defaults(func=_cmd_family)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
