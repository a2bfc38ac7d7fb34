"""Command-line front end: check, census, color, convert, family.

Exit status contract: 0 when everything asserted holds, 1 when a
property check fails, 2 on usage or parse errors.  Output is
deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from .census import census_copaw_critical, census_general
from .certify import NO, NOT_IN_CLASS, YES, build_database, certify_color, verify_certificate
from .critical import is_vertex_critical
from .families import clique_substituted_odd_cycle, co_odd_cycle, odd_cycle
from .graph import bits, format_edge_list, read_graph_file, to_graph6, write_graph_list
from .invariants import chromatic_number, clique_number, independence_number
from .patterns import is_free, is_p3p1, named_graph


def _load(path):
    try:
        return read_graph_file(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


@contextmanager
def _open_out(path):
    # the --out file, opened before any work so that a bad path is a
    # usage error, and for appending so that a usage error found later
    # leaves an existing file as it was: truncate it before writing.  An
    # error raised inside the context removes the file again if the
    # context created it.  Yields None without --out
    if path is None:
        yield None
        return
    created = not os.path.exists(path)
    try:
        fh = open(path, "a")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    try:
        with fh:
            yield fh
    except BaseException:
        if created:
            os.remove(path)
        raise


# ===== check =====

def _cmd_check(args) -> int:
    if args.k is not None and args.k < 1:
        print("error: --k must be at least 1", file=sys.stderr)
        return 2
    entries = _load(args.file)
    patterns = []
    for name in args.pattern or []:
        try:
            patterns.append((name, named_graph(name)))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    passed = 0
    for lineno, g in entries:
        fields = [f"line {lineno}: n={g.n}", f"chi={chromatic_number(g)}",
                  f"alpha={independence_number(g)}", f"omega={clique_number(g)}"]
        ok = True
        if args.k is not None:
            crit = is_vertex_critical(g, args.k).is_critical
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
    pattern = None
    if args.pattern.lower() != "none":
        try:
            pattern = named_graph(args.pattern)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    fast = pattern is not None and is_p3p1(pattern)
    if not fast and args.max_order is None:
        print("error: --max-order is required for this pattern", file=sys.stderr)
        return 2
    try:
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
                fh.truncate(0)
                write_graph_list(fh, args.k, (code for row in rows for code in row.codes))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


# ===== color =====

def _cmd_color(args) -> int:
    if args.k not in (3, 4, 5):
        print("error: --k must be 3, 4, or 5", file=sys.stderr)
        return 2
    entries = _load(args.file)
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
    entries = _load(args.file)
    render = to_graph6 if args.to == "graph6" else format_edge_list
    lines = [render(g) + "\n" for _, g in entries]
    with _open_out(args.out) as fh:
        if fh is not None:
            fh.truncate(0)
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
        print(f"error: {args.name} takes {len(names)} parameter(s) "
              f"({' '.join(names)}), got {len(args.params)}", file=sys.stderr)
        return 2
    try:
        g = build(*args.params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
