"""Graph structures: directed problem graphs over an undirected communication shadow.

Nodes are dense integer indices 0..n-1. A graph is its edge list, the same
endpoints as arrays, and CSR adjacency built from them on first use. Every
distance used for clustering and communication is a hop count in the
undirected shadow of the graph; the directed adjacency serves path
enumeration and stretch checks. Every truncated search, shadow or directed,
is one `_frontier_bfs` over CSR arrays.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Iterable

import numpy as np

#: Sentinel for "unreachable" in the int64 hop tables of `_hop_table`.
#: Larger than any radius the library ever compares against.
UNREACHABLE = np.int64(2**40)

#: Sentinel for "unreachable" in the int16 `Graph.distance_matrix`. Every
#: finite entry is at most n - 1, below it, so a bound clipped at n - 1
#: compares exactly with both.
UNREACHABLE_HOPS = np.int16(np.iinfo(np.int16).max)


class GraphError(ValueError):
    """Invalid graph structure, node index, or edge vector."""


class Graph:
    """Immutable directed or undirected graph.

    Edges are ordered pairs; for undirected graphs the stored orientation is
    as given but adjacency is symmetric. The graph is its edge list, the
    same endpoints as arrays, and CSR adjacency arrays built on first use.
    Safe for concurrent reads.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], directed: bool = True):
        self.n = as_index(n, "node count")
        if self.n <= 0:
            raise GraphError(f"node count must be positive, got {n}")
        self.directed = bool(directed)
        # each edge's endpoints as read-only arrays: edge i is tail[i] -> head[i]
        self.tail, self.head = _checked_endpoints(self.n, list(edges), self.directed).T
        self.tail.flags.writeable = self.head.flags.writeable = False
        self.edges = tuple(zip(self.tail.tolist(), self.head.tolist()))
        self.m = len(self.edges)
        self._dist: np.ndarray | None = None
        self._csr: tuple[np.ndarray, np.ndarray] | None = None
        self._arcs: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # -- communication-shadow metric ------------------------------------

    def check_node(self, u: int) -> int:
        """u as an int, if it is an integer naming a node; else GraphError."""
        node = as_index(u, "node")
        if not (0 <= node < self.n):
            raise GraphError(f"node {u} out of range for n={self.n}")
        return node

    def neighbors(self, u: int) -> list[int]:
        """Communication neighbors of u (direction ignored), ascending."""
        indptr, indices = self.shadow_csr()
        u = self.check_node(u)
        return indices[indptr[u]:indptr[u + 1]].tolist()

    def distance_matrix(self) -> np.ndarray:
        """All-pairs hop distances in the undirected shadow, as an (n, n)
        int16 array.

        Entry [u, v] is the shortest hop count, at most n - 1, or
        UNREACHABLE_HOPS (32767). A graph with more than 32767 nodes raises
        GraphError before anything is allocated. Computed once and cached;
        the cache fill is idempotent.

        One level-synchronous BFS runs from all sources at once. Row v of the
        frontier and visited bitsets packs, over sources, the searches that
        have reached v. A level ORs the frontier rows of v's neighbours,
        gathered through a padded neighbour table whose pad points at an
        all-zero row, and writes level into the (v, source) pairs it newly
        reaches; the metric is symmetric, so those writes run along rows.
        Besides the 2n² bytes of the result, the temporaries are four
        n * ceil(n/8)-byte bitsets and the 2 * (max degree) * n-byte int16
        neighbour table, and a level costs about (max degree + 8) * n *
        ceil(n/8) byte operations.
        """
        if self._dist is None:
            n, width = self.n, (self.n + 7) // 8
            if n > UNREACHABLE_HOPS:
                raise GraphError(f"distance_matrix holds int16 hop counts: n={n} "
                                 f"must be at most {UNREACHABLE_HOPS}")
            indptr, indices = self.shadow_csr()
            degree = np.diff(indptr)
            row = np.repeat(np.arange(n), degree)
            # column u holds u's neighbours, then the pad n
            nbrs = np.full((degree.max(), n), n, dtype=np.int16)
            nbrs[np.arange(len(indices)) - indptr[row], row] = indices
            ids = np.arange(n)
            front = np.zeros((n + 1, width), dtype=np.uint8)  # row n: the pad
            front[ids, ids // 8] = 0x80 >> (ids % 8)
            seen = front[:n].copy()
            d = np.full((n, n), UNREACHABLE_HOPS, dtype=np.int16)
            np.fill_diagonal(d, 0)
            level = 0
            while True:
                new = np.zeros_like(seen)
                for col in nbrs:
                    new |= front[col]
                new &= ~seen
                if not new.any():
                    break
                level += 1
                seen |= new
                front[:n] = new
                for v in range(0, n, width):
                    block = new[v:v + width]
                    if block.any():
                        reached = np.unpackbits(block, axis=1, count=n).view(bool)
                        d[v:v + width][reached] = level
            self._dist = d
        return self._dist

    def shadow_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The shadow adjacency as read-only CSR arrays (indptr, indices):
        node u's neighbors, ascending, are indices[indptr[u]:indptr[u + 1]].
        Computed once and cached."""
        if self._csr is None:
            n = self.n
            keys = np.sort(np.concatenate(
                (self.tail * n + self.head, self.head * n + self.tail)))
            keys = keys[run_starts(keys)]
            indptr, indices = np.searchsorted(keys, np.arange(n + 1) * n), keys % n
            indptr.flags.writeable = indices.flags.writeable = False
            self._csr = indptr, indices
        return self._csr

    def arc_csr(self, orientation: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The directed adjacency as read-only CSR arrays (indptr, indices,
        edge ids): row u lists, ascending, each w with an edge u -> w
        ("out") or w -> u ("in"), next to that edge's index in `edges`. An
        undirected edge is an arc both ways under its one index. Computed
        once per orientation and cached."""
        if orientation not in ("in", "out"):
            raise GraphError(f"orientation must be 'in' or 'out', got {orientation!r}")
        if orientation not in self._arcs:
            tail, head, ids = self.tail, self.head, np.arange(self.m)
            if not self.directed:
                tail, head, ids = np.r_[tail, head], np.r_[head, tail], np.r_[ids, ids]
            row, col = (tail, head) if orientation == "out" else (head, tail)
            order = np.lexsort((col, row))
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            indptr[1:] = np.cumsum(np.bincount(row, minlength=self.n))
            arcs = indptr, col[order], ids[order]
            for a in arcs:
                a.flags.writeable = False
            self._arcs[orientation] = arcs
        return self._arcs[orientation]

    def edge_ids(self, u, v) -> np.ndarray:
        """Index in `edges` of the edge u[i] -> v[i] (either way round on
        undirected graphs), for every i, or -1 where there is no such edge
        or a node is out of range: one search of the sorted row * n + column
        keys of arc_csr("out"). Non-integer node ids raise GraphError."""
        n = self.n
        indptr, heads, ids = self.arc_csr("out")
        u, v = np.asarray(u), np.asarray(v)
        for a in (u, v):
            if a.size and a.dtype.kind not in "biu":
                raise GraphError(f"node ids must be integers, got dtype {a.dtype}")
        u, v = u.astype(np.int64), v.astype(np.int64)
        want = np.where((np.minimum(u, v) >= 0) & (np.maximum(u, v) < n), u * n + v, -1)
        if not self.m:
            return np.full(want.shape, -1)
        keys = np.repeat(np.arange(n), np.diff(indptr)) * n + heads
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(keys[at] == want, ids[at], -1)


def as_index(value, what: str, error: type[ValueError] = GraphError) -> int:
    """`value` as an int if `operator.index` reads it as one, else `error`."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} {value!r} is not an integer") from None


def _checked_endpoints(n: int, pairs: list, directed: bool) -> np.ndarray:
    """The pairs as an (m, 2) int64 array, checked in one array pass: raises
    GraphError naming the first pair, in input order, that is not two
    integers (as `operator.index` reads them), is out of range, is a
    self-loop, or repeats an earlier pair (either way round if undirected).
    """
    try:
        if set(map(len, pairs)) - {2}:
            raise TypeError
        ends = np.fromiter(map(operator.index, chain.from_iterable(pairs)),
                           np.int64, 2 * len(pairs)).reshape(-1, 2)
    except (TypeError, OverflowError):
        j = next(i for i, p in enumerate(pairs) if not _int64_pair(p))
        _checked_endpoints(n, pairs[:j], directed)  # an earlier fault comes first
        raise GraphError(f"edge {pairs[j]!r} is not a pair of int64 integers") from None
    u, v = ends.T
    outside = (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)
    # an out-of-range pair's key may equal another pair's; the later of the
    # two is marked a repeat, so the first fault is still the right one
    key = u * n + v if directed else np.minimum(u, v) * n + np.maximum(u, v)
    repeat = np.ones(len(key), dtype=bool)
    repeat[np.unique(key, return_index=True)[1]] = False  # first occurrences
    bad = np.flatnonzero(outside | (u == v) | repeat)
    if len(bad):
        a, b = ends[bad[0]].tolist()
        raise GraphError(f"edge ({a},{b}) out of range for n={n}" if outside[bad[0]]
                         else f"self-loop at node {a}" if a == b
                         else f"duplicate edge ({a},{b})")
    return ends


def _int64_pair(pair) -> bool:
    """Whether `pair` is two integers that int64 holds."""
    try:
        return len(pair) == 2 and all(-2**63 <= operator.index(w) < 2**63 for w in pair)
    except TypeError:
        return False


def run_slots(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Positions start[j], ..., start[j] + count[j] - 1 for every j, one run
    after another: the CSR slots of rows `r` are run_slots(indptr[r],
    indptr[r + 1] - indptr[r]). The positions take the integer type of
    `start` and `count`, which must hold their total."""
    dtype = np.result_type(start, count)
    end = np.cumsum(count, dtype=dtype)
    total = end[-1] if len(end) else 0
    return np.arange(total, dtype=dtype) + np.repeat(start - end + count, count)


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal `keys`."""
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return first


def ball(g: Graph, u: int, radius: float) -> frozenset[int]:
    """Nodes within undirected hop distance `radius` of u (always includes u):
    one `_frontier_bfs` over the shadow CSR, cut at the radius."""
    u = g.check_node(u)
    if not radius >= 0:
        raise GraphError(f"radius must be nonnegative, got {radius}")
    indptr, indices = g.shadow_csr()
    node = _frontier_bfs(indptr, indices, [u], int(min(radius, g.n)))[1]
    return frozenset(node.tolist())


# -- edge vectors -------------------------------------------------------


def as_edge_vector(g: Graph, values) -> np.ndarray:
    """Validate and convert to a dense finite nonnegative edge vector of length m."""
    x = np.asarray(values, dtype=float)
    if x.shape != (g.m,):
        raise GraphError(f"edge vector has shape {x.shape}, expected ({g.m},)")
    if not np.all(np.isfinite(x)):
        raise GraphError("edge vector has non-finite entries")
    if np.any(x < 0):
        raise GraphError("edge vector has negative entries")
    return x


def induced_edges(g: Graph, cluster: Iterable[int]) -> np.ndarray:
    """Mask of the edges with both endpoints in `cluster`."""
    inside = np.zeros(g.n, dtype=bool)
    inside[[g.check_node(u) for u in cluster]] = True
    return inside[g.tail] & inside[g.head]


def restrict(x, cluster: Iterable[int], g: Graph) -> np.ndarray:
    """Zero the vector outside the subgraph induced by `cluster`.

    Keeps x_e exactly on edges with both endpoints in the cluster.
    """
    x = as_edge_vector(g, x)
    return np.where(induced_edges(g, cluster), x, 0.0)


# -- truncated breadth-first search -------------------------------------


def _frontier_bfs(
    indptr: np.ndarray, heads: np.ndarray, roots, depth: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every root's breadth-first tree over the CSR arcs u -> heads[slot],
    slot in indptr[u]:indptr[u + 1], cut at `depth` hops: one level-synchronous
    search over sorted tree * n + node keys of the visited pairs, which gives
    each newly reached pair its lowest-index parent on the previous level.

    Returns (tree, node, parent, slot, level) arrays, one entry per reached
    pair, by level, then tree, then node: `tree` indexes `roots`, `slot` is
    the CSR slot of the arc parent -> node, and `level` is node's hop
    distance from the root. The roots come first, as their own parents at
    level 0 with slot -1.
    """
    n = len(indptr) - 1
    node = np.asarray(roots, dtype=np.int64)
    tree = np.arange(len(node))
    seen = tree * n + node  # ascending, since node < n
    found = [(tree, node, node, np.full(len(node), -1), np.zeros(len(node), dtype=np.int64))]
    for level in range(1, depth + 1):
        start = indptr[node]
        count = indptr[node + 1] - start
        slot = run_slots(start, count)
        tree, parent, node = np.repeat(tree, count), np.repeat(node, count), heads[slot]
        key = tree * n + node
        # the frontier is in key order, so a stable sort leaves each key's
        # copies by parent, and the first copy holds the lowest
        order = np.argsort(key, kind="stable")
        first = order[run_starts(key[order])]
        at = np.searchsorted(seen, key[first])
        new = seen[np.minimum(at, len(seen) - 1)] != key[first]
        pick = first[new]
        if not len(pick):
            break
        tree, node, parent, slot = tree[pick], node[pick], parent[pick], slot[pick]
        # timsort merges the two ascending runs in one linear pass
        seen = np.sort(np.concatenate((seen, key[pick])), kind="stable")
        found.append((tree, node, parent, slot, np.full(len(pick), level)))
    return tuple(map(np.concatenate, zip(*found)))


def _hop_table(indptr: np.ndarray, heads: np.ndarray, roots, depth: int):
    """The hop table of one `_frontier_bfs` from the distinct roots, cut at
    `depth`: hops(i, w) is the hop distance along the CSR arcs from
    roots[i[j]] to w[j], for every j, or UNREACHABLE past `depth` hops."""
    n = len(indptr) - 1
    sources, source_of = np.unique(np.asarray(roots, dtype=np.int64), return_inverse=True)
    tree, node, _, _, level = _frontier_bfs(indptr, heads, sources, depth)
    key = tree * n + node
    order = np.argsort(key)
    # the sentinel key n * n, past every other, stands for "beyond depth"
    key, level = np.append(key[order], n * n), np.append(level[order], UNREACHABLE)

    def hops(i, w) -> np.ndarray:
        want = source_of[i] * n + np.asarray(w, dtype=np.int64)
        at = np.searchsorted(key, want)
        return np.where(key[at] == want, level[at], UNREACHABLE)

    return hops


def arborescences(
    g: Graph, roots, depth: int, orientation: str = "out"
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every root's shortest-path arborescence, cut at `depth` hops.

    "out" trees follow edge directions away from their root, "in" trees
    collect the edges pointing toward it. All trees grow at once, as one
    `_frontier_bfs` over `arc_csr`, so each node hangs from its
    lowest-index parent on the previous level.

    Returns (tree, node, parent, edge, level) arrays, one entry per tree
    node other than the root, by level, then tree, then node: `tree`
    indexes `roots`, `edge` is the index of the edge between node and
    parent, and `level` is node's hop distance from the root.
    """
    indptr, heads, ids = g.arc_csr(orientation)
    depth = as_index(depth, "depth")
    if depth < 0:
        raise GraphError(f"depth must be nonnegative, got {depth}")
    roots = [g.check_node(r) for r in roots]
    tree, node, parent, slot, level = (
        a[len(roots):] for a in _frontier_bfs(indptr, heads, roots, depth))
    return tree, node, parent, ids[slot], level


# -- file format ---------------------------------------------------------


def graph_text(g: Graph, edges: Iterable[int] | None = None) -> str:
    """The `n m directed|undirected` header and one `u v` line per edge of
    `g`, or per edge index in `edges`, in order; no final newline."""
    pairs = g.edges if edges is None else [g.edges[e] for e in edges]
    return "\n".join([f"{g.n} {len(pairs)} {'directed' if g.directed else 'undirected'}"]
                     + [f"{u} {v}" for u, v in pairs])


def write_text(path, text: str) -> None:
    """Write `text` as ASCII with "\\n" line ends, and a final newline if it
    lacks one: every file padspan writes goes through here."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def write_graph(g: Graph, path) -> None:
    """Write `graph_text(g)` and a final newline."""
    write_text(path, graph_text(g))


def read_graph(path) -> Graph:
    """Parse a graph file written by :func:`write_graph`. A malformed file
    raises GraphError naming it, and the line at fault if there is one."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = [(no, tok) for no, line in enumerate(fh, 1) for tok in line.split()]
    if len(tokens) < 3:
        raise GraphError(f"{path}: graph file too short")
    numbers = []
    for no, tok in tokens[:2] + tokens[3:]:
        try:
            numbers.append(int(tok))
        except ValueError:
            raise GraphError(f"{path}: line {no}: {tok!r} is not an integer") from None
    (n, m, *body), kind = numbers, tokens[2][1]
    if kind not in ("directed", "undirected"):
        raise GraphError(f"{path}: unknown graph kind {kind!r}")
    if len(body) != 2 * m:
        raise GraphError(f"{path}: expected {2 * m} edge tokens, found {len(body)}")
    return Graph(n, zip(body[0::2], body[1::2]), directed=(kind == "directed"))
