"""Immutable bitmask representation of small simple graphs.

Vertices are labeled 0..n-1 with n <= 31, so every vertex set and every
neighborhood fits in one machine word.  The adjacency of vertex v is the
integer ``adj[v]`` whose bit u is set iff uv is an edge.  All operations
are pure functions returning new graphs; vertex deletion relabels downward
so graphs stay dense in 0..n-1.

Two text formats are supported: graph6 (bit-exact per the de-facto format
note: header byte n+63, upper-triangle column-major bit stream, 6 bits per
byte, +63, zero padded) and a plain edge-list line format
``"n: i j, i j, ..."``.  The two-digit-pair form ``"01 02 ..."`` is
accepted as input only, for graphs with n <= 10.

The graph6 writer takes the bit stream as one n(n-1)/2-bit int, first
stream bit most significant: ``to_graph6`` builds it from the rows,
canonical labeling hands it over as its search holds it, and the census
builds a join's from its factors' streams (``_graph6_stream``).

The graph6 decoder reads a body byte at a time.  Body byte p always
covers stream bits 6p..6p+5, whatever the order, so one set of entries
serves every order: entry v of position p is the symmetric adjacency
those six bits set when the byte's value is v, with vertex i's row at
bit _SLOT*i, the layout the symmetry check packs.  Decoding ORs one
entry per byte and cuts the rows out of the sum.  Each position's 64
entries are built on first use and memoized; an order-11 code needs 10
positions, the order-31 cap 78.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass
from functools import cache
from math import isqrt
from operator import xor
from typing import Iterable, Iterator

MAX_VERTICES = 31


# ===== vertex-set helpers =====

def bits(mask: int) -> Iterator[int]:
    """Yield the positions of set bits in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bit mask; ValueError on a
    vertex that is not an int in 0..MAX_VERTICES-1 (a bool is not an int
    here), so no mask is wider than the largest graph."""
    m = 0
    for v in vertices:
        if type(v) is not int or not 0 <= v < MAX_VERTICES:
            raise ValueError(f"vertex must be an int in 0..{MAX_VERTICES - 1}, got {v!r}")
        m |= 1 << v
    return m


# ===== the graph type =====

def check_int(name: str, x, low: int, high: int | None = None) -> int:
    """x, if it is an int (not a bool) in low..high, or >= low without high."""
    if type(x) is not int or x < low or high is not None and x > high:
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be an int {span}, got {x!r}")
    return x


def check_order(n) -> int:
    """n, if it is an int in 0..MAX_VERTICES; else ValueError."""
    return check_int("order", n, 0, MAX_VERTICES)


# The symmetry check packs the rows _SLOT bits apart into one _SLOT x
# _SLOT bit matrix, which is symmetric iff it equals its transpose.
# Delta swaps of block sizes _SLOT/2, ..., 2, 1 transpose it.
_SLOT = MAX_VERTICES + 1        # a power of two


def _transpose_swaps(w: int) -> tuple[tuple[int, int], ...]:
    swaps = []
    s = w // 2
    while s:
        # bit j of row i, with bit s set in j and clear in i, trades
        # places with bit j - s of row i + s, s * (w - 1) bits higher
        cols = sum(1 << j for j in range(w) if j & s)
        rows = sum(1 << w * i for i in range(w) if not i & s)
        swaps.append((s * (w - 1), cols * rows))
        s //= 2
    return tuple(swaps)


_SWAPS = _transpose_swaps(_SLOT)
# the array type of an unsigned _SLOT-bit row, and the diagonal of the matrix
_ROW_TYPE = next(t for t in "HIL" if array(t).itemsize * 8 == _SLOT)
_DIAGONAL = sum(1 << (_SLOT + 1) * v for v in range(_SLOT))


def _packed(adj: tuple) -> int | None:
    # the rows _SLOT bits apart as one int, or None unless each is an int
    # (a bool is not) of at most _SLOT bits, the ints the array takes
    if not {*map(type, adj)} <= {int}:
        return None
    try:
        rows = array(_ROW_TYPE, adj)
    except OverflowError:
        return None
    if sys.byteorder == "big":
        rows.byteswap()
    return int.from_bytes(rows.tobytes(), "little")


def _raise_fault(n: int, adj: tuple, one_way: int):
    # the message of the first bad row, else of the first one-way pair
    # (-1 when a row is known to be bad): bit _SLOT*v + u of one_way is
    # u in adj[v] but v not in adj[u], and the lowest comes first in
    # row-then-column order
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if type(row) is not int:
            raise ValueError(f"adjacency row of vertex {v} is not an int: {row!r}")
        if row & ~full:
            raise ValueError(f"vertex {v} has a neighbor bit at or above n={n}")
        if row >> v & 1:
            raise ValueError(f"self-loop at vertex {v}")
    v, u = divmod((one_way & -one_way).bit_length() - 1, _SLOT)
    raise ValueError(f"asymmetric adjacency between {v} and {u}")


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on n <= 31 vertices, adjacency as bit masks."""

    n: int
    adj: tuple[int, ...]
    # generators of Aut(self) as canon_raw returns them, set by
    # child_graphs, or None; not a field, so equality, hashing and repr
    # ignore it, and pickling keeps it
    _gens = None

    def __post_init__(self) -> None:
        check_order(self.n)
        if type(self.adj) is not tuple:
            try:
                iter(self.adj)
            except TypeError:
                raise ValueError(f"adj must be an iterable of rows, got {self.adj!r}") from None
            # stored as a tuple, so a list argument still hashes and joins
            object.__setattr__(self, "adj", tuple(self.adj))
        if len(self.adj) != self.n:
            raise ValueError("adjacency tuple length differs from order")
        # valid rows pack into a symmetric matrix with a clear diagonal; a
        # bit at or above n is one way, as the slots from n on are empty,
        # and anything else goes to the per-row scan for its message
        packed = _packed(self.adj)
        if packed is None or packed & _DIAGONAL:
            _raise_fault(self.n, self.adj, -1)
        t = packed
        for shift, mask in _SWAPS:
            x = (t ^ t >> shift) & mask
            t ^= x ^ x << shift
        one_way = packed & ~t
        if one_way:
            _raise_fault(self.n, self.adj, one_way)

    @classmethod
    def _unchecked(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        # internal constructor for kernels whose output is valid by
        # construction; skips __post_init__, which checks outside input
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) pairs with i < j, lexicographic."""
        out = []
        for i in range(self.n):
            for j in bits(self.adj[i] >> (i + 1) << (i + 1)):
                out.append((i, j))
        return out

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edges()!r})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from vertex pairs; rejects a bad order (checked before
    anything is allocated), an edge that is not a pair, loops, duplicates
    and bad indices (an index that is not an int, a bool included) with
    ValueError."""
    adj = [0] * check_order(n)
    for edge in edges:
        try:
            i, j = edge
        except (TypeError, ValueError):
            raise ValueError(f"edge {edge!r} is not a pair of vertices") from None
        if type(i) is not int or type(j) is not int:
            raise ValueError(f"edge ({i!r},{j!r}) has a vertex that is not an int")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        if i > j:
            i, j = j, i
        if adj[i] >> j & 1:
            raise ValueError(f"duplicate edge ({i},{j})")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    # the checks above leave only symmetric, loop-free rows inside n
    return Graph._unchecked(n, tuple(adj))


# ===== basic transformations =====

@cache
def _not_self(n: int) -> tuple[int, ...]:
    # entry v: every vertex of an order-n graph but v
    return tuple((1 << n) - 1 ^ 1 << v for v in range(n))


def _complement_rows(n: int, adj) -> tuple[int, ...]:
    # the complement's rows, for the kernels that need no Graph; a tuple
    # from a list is allocated at its size, one from map is resized
    return tuple([*map(xor, adj, _not_self(n))])


def complement(g: Graph) -> Graph:
    # valid by construction when g is, so the checks are skipped
    return Graph._unchecked(g.n, _complement_rows(g.n, g.adj))


def induced_subgraph(g: Graph, s: int | Iterable[int]) -> Graph:
    """Subgraph induced on s (mask or iterable), relabeled in ascending index order.

    An iterable is read through ``mask_of``.  Raises ValueError naming a
    vertex of s outside 0..n-1, or on a vertex or mask that is not an
    int (a bool is not).
    """
    if type(s) is not int:
        if not isinstance(s, Iterable):
            raise ValueError(f"vertex mask must be an int, got {s!r}")
        s = mask_of(s)
    high = s >> g.n                     # negative masks have every high bit
    if high:
        raise ValueError(f"vertex {g.n + (high & -high).bit_length() - 1} "
                         f"out of range for n={g.n}")
    # new label of each vertex of s, by its rank in s
    pos = [0] * g.n
    verts = []
    rest = s
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        pos[v] = len(verts)
        verts.append(v)
        rest ^= low
    adj = []
    for v in verts:
        row = 0
        rest = g.adj[v] & s
        while rest:
            low = rest & -rest
            row |= 1 << pos[low.bit_length() - 1]
            rest ^= low
        adj.append(row)
    return Graph._unchecked(len(verts), tuple(adj))


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Apply a permutation; perm[v] is the new index of old vertex v.

    Raises ValueError unless perm is a permutation of 0..n-1 by ints.
    """
    p = list(perm)
    if not all(type(x) is int for x in p) or sorted(p) != list(range(g.n)):
        raise ValueError(f"not a permutation of 0..{g.n - 1}: {p!r}")
    adj = [0] * g.n
    for v in range(g.n):
        adj[p[v]] = sum(1 << p[u] for u in bits(g.adj[v]))
    return Graph._unchecked(g.n, tuple(adj))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = check_order(g.n + h.n)
    return Graph._unchecked(n, g.adj + tuple(row << g.n for row in h.adj))


def join(g: Graph, h: Graph) -> Graph:
    u = disjoint_union(g, h)
    gmask = (1 << g.n) - 1
    hmask = ((1 << u.n) - 1) ^ gmask
    adj = tuple((row | hmask) if v < g.n else (row | gmask)
                for v, row in enumerate(u.adj))
    return Graph._unchecked(u.n, adj)


# ===== graph6 codec =====

def graph6_from_stream(n: int, stream: int) -> str:
    """graph6 of the order-n graph whose upper triangle, read column by
    column (x(0,1) x(0,2) x(1,2) x(0,3) ...), is the n(n-1)/2-bit int
    stream, first bit most significant (the code ``canon_raw`` returns)."""
    size = n * (n - 1) // 2
    pad = -size % 6
    stream <<= pad
    return chr(n + 63) + "".join([chr((stream >> s & 63) + 63)
                                  for s in range(size + pad - 6, -1, -6)])


def _graph6_stream(code: str) -> tuple[int, int]:
    # (n, stream) of a valid graph6 code: graph6_from_stream undone
    n, stream = ord(code[0]) - 63, 0
    for ch in code[1:]:
        stream = stream << 6 | ord(ch) - 63
    return n, stream >> -(n * (n - 1) // 2) % 6


def to_graph6(g: Graph) -> str:
    """Encode as graph6 (n <= 62 header form; here always n <= 31)."""
    stream = 0
    for j, row in enumerate(g.adj):
        for i in range(j):
            stream = stream << 1 | (row >> i & 1)
    return graph6_from_stream(g.n, stream)


_G6_BAD_BYTE = re.compile(r"[^?-~]")
_ROW = (1 << _SLOT) - 1


@cache
def _g6_entries(p: int) -> tuple[int, ...]:
    # entry v: the adjacency, row i at bit _SLOT*i, that body byte p
    # sets when its value is v
    entries = [0]
    for b in range(6):
        # value bit b is stream bit k = 6p + 5 - b, which is x(i, j)
        # for the column j with j(j-1)/2 <= k < j(j+1)/2
        k = 6 * p + 5 - b
        j = (1 + isqrt(8 * k + 1)) // 2
        i = k - j * (j - 1) // 2
        pair = 1 << (_SLOT * i + j) | 1 << (_SLOT * j + i)
        entries += [e | pair for e in entries]
    return tuple(entries)


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string; strict about length and zero padding.

    One entry lookup and one OR per body byte build every row at once
    (see the module docstring); the pad bits, the low -n(n-1)/2 mod 6
    bits of the last byte, are checked before any are read.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty graph6 string")
    bad = _G6_BAD_BYTE.search(s)
    if bad:
        raise ValueError(f"byte {bad.group()!r} outside graph6 range")
    n = ord(s[0]) - 63
    if n == 63:
        raise ValueError("extended graph6 headers (n > 62) not supported")
    check_order(n)
    size = n * (n - 1) // 2
    need = (size + 5) // 6
    if len(s) - 1 != need:
        raise ValueError(f"graph6 body has {len(s) - 1} bytes, expected {need}")
    # with no body, s[-1] is the header and the pad is empty
    if (ord(s[-1]) - 63) & ((1 << -size % 6) - 1):
        raise ValueError("nonzero padding bits in graph6 string")
    acc = 0
    for p, byte in enumerate(s[1:].encode()):
        acc |= _g6_entries(p)[byte - 63]
    return Graph._unchecked(n, tuple([acc >> _SLOT * i & _ROW for i in range(n)]))


# ===== edge-list text format =====

def format_edge_list(g: Graph) -> str:
    """One-line ``"n: i j, i j"`` form; bare ``"n:"`` for edgeless graphs."""
    body = ", ".join(f"{i} {j}" for i, j in g.edges())
    return f"{g.n}: {body}" if body else f"{g.n}:"


def _is_decimal(tok: str) -> bool:
    # int() alone would also take a sign, '_' separators and non-ASCII digits
    return tok.isascii() and tok.isdigit()


def parse_edge_list(line: str) -> Graph:
    """Parse one graph line: ``"n: i j, i j"`` or two-digit pairs ``"01 02"``;
    numbers are ASCII decimal digits only."""
    text = line.split("#", 1)[0].strip()
    if not text:
        raise ValueError("blank graph line")
    if ":" in text:
        head, _, body = text.partition(":")
        if not _is_decimal(head.strip()):
            raise ValueError(f"bad order field {head!r}")
        n = int(head)
        edges = []
        body = body.strip()
        if body:
            for part in body.split(","):
                toks = part.split()
                if len(toks) != 2 or not all(map(_is_decimal, toks)):
                    raise ValueError(f"bad edge {part.strip()!r}")
                edges.append((int(toks[0]), int(toks[1])))
        return from_edge_list(n, edges)
    # compact two-digit-pair form, n <= 10 only; braces and commas tolerated
    toks = text.replace("{", " ").replace("}", " ").replace(",", " ").split()
    edges = []
    hi = -1
    for tok in toks:
        if len(tok) != 2 or not _is_decimal(tok):
            raise ValueError(f"bad two-digit pair {tok!r}")
        i, j = int(tok[0]), int(tok[1])
        edges.append((i, j))
        hi = max(hi, i, j)
    if not edges:
        raise ValueError("no edges in compact line")
    return from_edge_list(hi + 1, edges)


def parse_graph_line(line: str) -> Graph:
    """Parse one graph given as graph6 or as an edge list (auto-detected)."""
    text = line.split("#", 1)[0].strip()
    if not text:
        raise ValueError("blank graph line")
    # graph6 bytes are 63..126: ':', ',' and whitespace never occur in a
    # graph6 token, nor is one all digits, and a leading '{' would be a
    # header for order 60; anything else is graph6 and reports its error
    if (text.isdigit() or text[0] == "{"
            or any(c in ":," or c.isspace() for c in text)):
        return parse_edge_list(text)
    return from_graph6(text)


# ===== graph list files =====

_HEADER = re.compile(r"k=(\d+)\s+count=(\d+)", re.ASCII)


def read_graph_list(path) -> tuple[int | None, list[tuple[int, str]]]:
    """(k, [(line number, graph line)]) of a file, skipping blanks and ``#`` comments.

    A first line ``k=<k> count=<n>`` (as in ``critical<k>.g6``) must count
    the lines that follow; without one, k is None.  Lines are not parsed.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [(lineno, line) for lineno, raw in enumerate(fh, start=1)
                 if (line := raw.partition("#")[0].strip())]
    if not lines or not lines[0][1].startswith("k="):
        return None, lines
    lineno, line = lines.pop(0)
    header = _HEADER.fullmatch(line)
    if header is None:
        raise ValueError(f"{path}:{lineno}: bad header {line!r}")
    k, count = map(int, header.groups())
    if count != len(lines):
        raise ValueError(f"{path}: header says {count} graphs, file has {len(lines)}")
    return k, lines


def write_graph_list(fh, k: int, codes) -> None:
    """Write a ``k=<k> count=<n>`` header (k an int >= 1), then the codes
    sorted one a line: a code starts with its order, so orders stay grouped."""
    check_int("k", k, 1)
    codes = sorted(codes)
    fh.write(f"k={k} count={len(codes)}\n")
    fh.writelines(code + "\n" for code in codes)


def read_graph_file(path) -> list[tuple[int, Graph]]:
    """(line number, graph) for each line that ``read_graph_list`` keeps."""
    out = []
    for lineno, line in read_graph_list(path)[1]:
        try:
            out.append((lineno, parse_graph_line(line)))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out
