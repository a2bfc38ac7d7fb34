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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
    """Pack an iterable of vertex indices into a bit mask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# ===== the graph type =====

@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on n <= 31 vertices, adjacency as bit masks."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"order must lie in 0..{MAX_VERTICES}, got {self.n}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency tuple length differs from order")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"vertex {v} has a neighbor bit at or above n={self.n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v in range(self.n):
            row = self.adj[v]
            for u in bits(row):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {u}")

    @classmethod
    def _unchecked(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        # internal constructor for kernels whose output is valid by
        # construction; skips __post_init__, which checks outside input
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) pairs with i < j, lexicographic."""
        out = []
        for i in range(self.n):
            for j in bits(self.adj[i] >> (i + 1) << (i + 1)):
                out.append((i, j))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(row.bit_count() for row in self.adj))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edges()!r})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from vertex pairs; rejects loops, duplicates, bad indices."""
    adj = [0] * n
    seen = set()
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            raise ValueError(f"duplicate edge ({i},{j})")
        seen.add((i, j))
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(n, tuple(adj))


# ===== basic transformations =====

def complement(g: Graph) -> Graph:
    # valid by construction when g is, so the checks are skipped
    full = (1 << g.n) - 1
    return Graph._unchecked(g.n, tuple(full & ~row & ~(1 << v)
                                       for v, row in enumerate(g.adj)))


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")


def induced_subgraph(g: Graph, s: int | Iterable[int]) -> Graph:
    """Subgraph induced on s (mask or iterable), relabeled in ascending index order.

    Raises ValueError naming a vertex of s outside 0..n-1.
    """
    if isinstance(s, int):
        high = s >> g.n                 # negative masks have every high bit
        if high:
            _check_vertex(g, g.n + (high & -high).bit_length() - 1)
        smask = s
    else:
        smask = 0
        for v in s:
            _check_vertex(g, v)
            smask |= 1 << v
    verts = list(bits(smask))
    pos = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for v in verts:
        for u in bits(g.adj[v] & smask):
            adj[pos[v]] |= 1 << pos[u]
    return Graph._unchecked(len(verts), tuple(adj))


def delete_vertex(g: Graph, v: int) -> Graph:
    _check_vertex(g, v)
    return induced_subgraph(g, ((1 << g.n) - 1) ^ 1 << v)


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Apply a permutation; perm[v] is the new index of old vertex v."""
    p = list(perm)
    adj = [0] * g.n
    for v in range(g.n):
        adj[p[v]] = sum(1 << p[u] for u in bits(g.adj[v]))
    return Graph(g.n, tuple(adj))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    if g.n + h.n > MAX_VERTICES:
        raise ValueError(f"combined order {g.n + h.n} exceeds {MAX_VERTICES}")
    return Graph._unchecked(g.n + h.n, g.adj + tuple(row << g.n for row in h.adj))


def join(g: Graph, h: Graph) -> Graph:
    u = disjoint_union(g, h)
    gmask = (1 << g.n) - 1
    hmask = ((1 << u.n) - 1) ^ gmask
    adj = tuple((row | hmask) if v < g.n else (row | gmask)
                for v, row in enumerate(u.adj))
    return Graph._unchecked(u.n, adj)


# ===== graph6 codec =====

def to_graph6(g: Graph) -> str:
    """Encode as graph6 (n <= 62 header form; here always n <= 31)."""
    out = [chr(g.n + 63)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            acc = acc << 1 | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


_G6_BAD_BYTE = re.compile(r"[^?-~]")
# a graph6 byte's six bits, last bit first: the body read backwards turns
# into one integer whose bit i is bit i of the upper-triangle stream
_G6_BITS_REVERSED = {v + 63: format(v, "06b")[::-1] for v in range(64)}


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string; strict about length and zero padding."""
    s = text.strip()
    if not s:
        raise ValueError("empty graph6 string")
    bad = _G6_BAD_BYTE.search(s)
    if bad:
        raise ValueError(f"byte {bad.group()!r} outside graph6 range")
    n = ord(s[0]) - 63
    if n == 63:
        raise ValueError("extended graph6 headers (n > 62) not supported")
    if n > MAX_VERTICES:
        raise ValueError(f"graph6 order {n} exceeds cap {MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(s) - 1 != need:
        raise ValueError(f"graph6 body has {len(s) - 1} bytes, expected {need}")
    stream = int(s[:0:-1].translate(_G6_BITS_REVERSED) or "0", 2)
    # column j holds the bits x(0,j) .. x(j-1,j), row 0 lowest
    adj = [0] * n
    for j in range(1, n):
        col = stream & ((1 << j) - 1)
        stream >>= j
        adj[j] = col
        for i in bits(col):
            adj[i] |= 1 << j
    # trailing pad bits must be zero
    if stream:
        raise ValueError("nonzero padding bits in graph6 string")
    return Graph._unchecked(n, tuple(adj))


# ===== edge-list text format =====

def format_edge_list(g: Graph) -> str:
    """One-line ``"n: i j, i j"`` form; bare ``"n:"`` for edgeless graphs."""
    body = ", ".join(f"{i} {j}" for i, j in g.edges())
    return f"{g.n}: {body}" if body else f"{g.n}:"


def parse_edge_list(line: str) -> Graph:
    """Parse one graph line: ``"n: i j, i j"`` or two-digit pairs ``"01 02"``."""
    text = line.split("#", 1)[0].strip()
    if not text:
        raise ValueError("blank graph line")
    if ":" in text:
        head, _, body = text.partition(":")
        try:
            n = int(head)
        except ValueError:
            raise ValueError(f"bad order field {head!r}") from None
        edges = []
        body = body.strip()
        if body:
            for part in body.split(","):
                toks = part.split()
                if len(toks) != 2:
                    raise ValueError(f"bad edge {part.strip()!r}")
                edges.append((int(toks[0]), int(toks[1])))
        return from_edge_list(n, edges)
    # compact two-digit-pair form, n <= 10 only; braces and commas tolerated
    toks = text.replace("{", " ").replace("}", " ").replace(",", " ").split()
    edges = []
    hi = -1
    for tok in toks:
        if len(tok) != 2 or not tok.isdigit():
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


_HEADER = re.compile(r"k=\d+\s+count=(\d+)")


def read_graph_file(path) -> list[tuple[int, Graph]]:
    """Read a text file of graphs, one per line; returns (line number, graph).

    The first non-comment line may be a ``k=<k> count=<n>`` header, as in
    the shipped ``critical<k>.g6`` files; the file must then hold n graphs.
    """
    out = []
    count = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            if not out and count is None:
                header = _HEADER.fullmatch(stripped)
                if header:
                    count = int(header.group(1))
                    continue
            try:
                out.append((lineno, parse_graph_line(stripped)))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if count is not None and count != len(out):
        raise ValueError(f"{path}: header says {count} graphs, file has {len(out)}")
    return out
