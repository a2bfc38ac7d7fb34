"""Canonical labeling, canonical graph6 codes and automorphism generators.

Individualization-refinement search sized for n <= 31: refine an ordered
partition to equitability, branch on the first non-singleton cell, and keep
the lexicographically largest adjacency encoding over the surviving leaves.
Automorphisms show up as pairs of leaves with equal encodings; they are
recorded as generators (the enumeration kernel needs them for extension
deduplication) and used to prune the search, with orbit pruning restricted
to nodes on the path to the first leaf and backjumping to the deepest node
shared with that path.  Orbit pruning only at first-path nodes is what
keeps it sound: while the search sits inside such a node's subtree, every
generator found so far fixes the individualized prefix pointwise.

Refinement skips two kinds of splitter that provably split nothing, so
every cell, its place and every later split are as they would be with
every splitter processed.  A split queues every part but the last: once
the cell it came from and its other parts have been processed, the last
one splits nothing (the "all parts but one" rule, Hopcroft 1971; McKay &
Piperno 2014).  A child node refines from the individualized vertex
alone: its parent's cells are equitable, refining keeps them so, and the
rest of the branching cell splits nothing that the whole cell and the
vertex do not.

The encoding of a vertex order is the upper triangle of the permuted
adjacency matrix read column by column, one int per column with the row-0
bit most significant.  Columns only depend on the already-placed prefix of
the order, so partial encodings of the leading singleton cells compare
against the current best leaf and prune early; a child's prefix extends
its parent's, so it computes only its new columns.  Read in column order,
these bits are the graph6 bit stream, so ``graph6_from_cols`` writes the
canonical code straight from them.
"""

from __future__ import annotations

from .graph import Graph, bits, graph6_from_cols

# ===== equitable refinement =====


def _refine(adj, cells, queue=None):
    """Coarsest equitable refinement of a list of cell bit masks.

    Each splitter from the FIFO queue (default: every cell) splits every
    cell by neighbour count into the splitter; the subcells replace the
    cell in place, ordered by descending count, and all but the last join
    the queue.  The last would split nothing: by its turn the cell it came
    from (queued earlier, or equitable already) and its other subcells
    have been processed.
    """
    n = len(adj)
    queue = list(cells) if queue is None else queue
    qi = 0
    # a discrete partition splits no further
    while qi < len(queue) and len(cells) < n:
        splitter = queue[qi]
        qi += 1
        out = []
        if splitter & (splitter - 1) == 0:
            # one-vertex splitter: neighbours (count 1) before the rest
            nbrs = adj[splitter.bit_length() - 1]
            for cell in cells:
                hit = cell & nbrs
                if hit and hit != cell:
                    out += (hit, cell ^ hit)
                    queue.append(hit)
                else:
                    out.append(cell)
        else:
            for cell in cells:
                if cell & (cell - 1) == 0:
                    out.append(cell)
                    continue
                groups: dict[int, int] = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    rest ^= low
                    c = (adj[low.bit_length() - 1] & splitter).bit_count()
                    groups[c] = groups.get(c, 0) | low
                if len(groups) == 1:
                    out.append(cell)
                    continue
                parts = [groups[c] for c in sorted(groups, reverse=True)]
                out += parts
                queue += parts[:-1]
        cells = out
    return cells


# ===== the search =====


class _Search:
    __slots__ = ("n", "adj", "first_order", "first_cols", "first_path",
                 "best_order", "best_cols", "gens", "parent")

    def __init__(self, n, adj):
        self.n = n
        self.adj = adj
        self.first_order = None
        self.first_cols = None
        self.first_path: list[int] = []
        self.best_order = None
        self.best_cols = None
        self.gens: list[tuple[int, ...]] = []
        self.parent = list(range(n))

    def _find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def _record(self, other_order, order):
        """Record the automorphism mapping other_order[i] -> order[i]; never
        the identity, as the two leaves part at a node where they put
        different vertices into the same singleton cell, which stays put."""
        gamma = [0] * self.n
        for a, b in zip(other_order, order):
            gamma[a] = b
        self.gens.append(tuple(gamma))
        for v in range(self.n):
            a, b = self._find(v), self._find(gamma[v])
            if a != b:
                self.parent[max(a, b)] = min(a, b)

    def _cols(self, prefix, cols):
        # cols, the columns of a leading part of prefix, extended to all
        # of it: a column depends only on the prefix up to it
        adj = self.adj
        out = cols[:]
        for j in range(len(cols), len(prefix)):
            row = adj[prefix[j]]
            c = 0
            for i in range(j):
                c = c << 1 | (row >> prefix[i] & 1)
            out.append(c)
        return out

    def run(self):
        if self.n == 0:
            self.best_order = ()
            self.best_cols = []
            return
        # column 0 is empty whichever vertex comes first
        self._node([(1 << self.n) - 1], [], None, [0])

    def _node(self, cells, path, queue, cols):
        """Process one node; returns the depth the caller should resume at.

        cells are refined from queue (None: every cell); cols are the
        parent's columns, which this node's extend.
        """
        depth = len(path)
        cells = _refine(self.adj, cells, queue)
        prefix = []
        for c in cells:
            if c & (c - 1):
                break
            prefix.append(c.bit_length() - 1)
        cols = self._cols(prefix, cols)
        # keep a subtree if it can still reach the first leaf's encoding (for
        # automorphism discovery) or can still beat the best leaf's encoding
        eq_first = (self.first_cols is not None
                    and cols == self.first_cols[:len(cols)])
        if self.best_cols is not None:
            bc = self.best_cols[:len(cols)]
            if cols < bc and not eq_first:
                return depth
            better = cols > bc
        else:
            better = False
        if len(prefix) == self.n:
            order = tuple(prefix)
            if self.first_order is None:
                self.first_order = self.best_order = order
                self.first_cols = self.best_cols = cols
                self.first_path = list(path)
                return depth
            if eq_first:
                self._record(self.first_order, order)
                d = 0
                fp = self.first_path
                while d < depth and d < len(fp) and path[d] == fp[d]:
                    d += 1
                return d
            if better:
                self.best_order = order
                self.best_cols = cols
            elif cols == self.best_cols:
                self._record(self.best_order, order)
            return depth
        ci = len(prefix)
        rest = cells[ci]
        tried: list[int] = []
        # the same for every child: a first leaf not yet found turns up
        # below the first child, on a path that extends this one
        on_first = self.first_order is None or path == self.first_path[:depth]
        for v in bits(rest):
            if on_first and tried:
                r = self._find(v)
                if any(self._find(u) == r for u in tried):
                    continue
            tried.append(v)
            child = cells[:ci] + [1 << v, rest ^ 1 << v] + cells[ci + 1:]
            path.append(v)
            # only {v} can split the parent's equitable cells (module docstring)
            jump = self._node(child, path, [1 << v], cols)
            path.pop()
            if jump < depth:
                return jump
        return depth


def canon_raw(n, adj):
    """Canonicalize a raw (n, adjacency-masks) pair.

    Returns (order, cols, gens, orbit) where order[i] is the vertex placed
    at canonical position i, cols is the canonical column encoding, gens
    generate the automorphism group as vertex maps, and orbit[v] is the
    smallest vertex in v's orbit.
    """
    s = _Search(n, adj)
    s.run()
    return s.best_order, s.best_cols, s.gens, [s._find(v) for v in range(n)]


# ===== public API =====


def canonical_form(g: Graph) -> str:
    """Canonical graph6 code: equal codes exactly for isomorphic graphs."""
    _, cols, _, _ = canon_raw(g.n, g.adj)
    return graph6_from_cols(g.n, cols)
