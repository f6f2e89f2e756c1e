"""Graph structures: directed problem graphs over an undirected communication shadow.

Nodes are dense integer indices 0..n-1. Every distance used for clustering and
communication is a hop count in the undirected shadow of the graph; directed
adjacency is kept separately for path enumeration and stretch checks.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np

#: Sentinel for "unreachable" in integer distance matrices. Larger than any
#: radius the library ever compares against.
UNREACHABLE = np.int64(2**40)


class GraphError(ValueError):
    """Invalid graph structure, node index, or edge vector."""


class Graph:
    """Immutable directed or undirected graph.

    Edges are ordered pairs; for undirected graphs the stored orientation is
    as given but adjacency is symmetric. Safe for concurrent reads.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], directed: bool = True):
        if n <= 0:
            raise GraphError(f"node count must be positive, got {n}")
        self.n = int(n)
        self.directed = bool(directed)
        edge_list: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if (u, v) in seen or (not directed and (v, u) in seen):
                raise GraphError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            edge_list.append((u, v))
        self.edges: tuple[tuple[int, int], ...] = tuple(edge_list)
        self.m = len(self.edges)
        self.edge_index: dict[tuple[int, int], int] = {
            e: i for i, e in enumerate(self.edges)
        }

        out_adj: list[list[int]] = [[] for _ in range(n)]
        in_adj: list[list[int]] = [[] for _ in range(n)]
        shadow: list[set[int]] = [set() for _ in range(n)]
        for u, v in self.edges:
            out_adj[u].append(v)
            in_adj[v].append(u)
            shadow[u].add(v)
            shadow[v].add(u)
        if not directed:
            for u, v in self.edges:
                out_adj[v].append(u)
                in_adj[u].append(v)
        # Sorted adjacency gives deterministic iteration everywhere.
        self.out_adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(a)) for a in out_adj
        )
        self.in_adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(a)) for a in in_adj
        )
        self.shadow_adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(a)) for a in shadow
        )
        self._dist: np.ndarray | None = None
        self._csr: tuple[np.ndarray, np.ndarray] | None = None
        self._arcs: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # -- communication-shadow metric ------------------------------------

    def check_node(self, u: int) -> int:
        if not (0 <= u < self.n):
            raise GraphError(f"node {u} out of range for n={self.n}")
        return int(u)

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Communication neighbors of u (direction ignored)."""
        return self.shadow_adj[self.check_node(u)]

    def distance_matrix(self) -> np.ndarray:
        """All-pairs hop distances in the undirected shadow.

        Entry [u, v] is the shortest hop count, or UNREACHABLE. Computed once
        and cached; the cache fill is idempotent.

        One level-synchronous BFS runs from all sources at once. Row v of the
        frontier and visited bitsets packs, over sources, the searches that
        have reached v. A level ORs the frontier rows of v's neighbours,
        gathered through a padded neighbour table whose pad points at an
        all-zero row, and writes level into the (v, source) pairs it newly
        reaches; the metric is symmetric, so those writes run along rows.
        Temporaries stay at n * ceil(n/8) bytes, and a level costs about
        (max degree + 8) * n * ceil(n/8) byte operations.
        """
        if self._dist is None:
            n, width = self.n, (self.n + 7) // 8
            nbrs = np.full((max(map(len, self.shadow_adj)), n), n, dtype=np.intp)
            for u, adj in enumerate(self.shadow_adj):
                nbrs[:len(adj), u] = adj
            ids = np.arange(n)
            front = np.zeros((n + 1, width), dtype=np.uint8)  # row n: the pad
            front[ids, ids // 8] = 0x80 >> (ids % 8)
            seen = front[:n].copy()
            d = np.full((n, n), UNREACHABLE, dtype=np.int64)
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
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            indptr[1:] = np.cumsum([len(a) for a in self.shadow_adj])
            indices = np.fromiter(
                (w for a in self.shadow_adj for w in a), np.int64, int(indptr[-1]))
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
            tail, head = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T
            ids = np.arange(self.m)
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

    def degree(self, u: int) -> int:
        return len(self.shadow_adj[self.check_node(u)])


def run_slots(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Positions start[j], ..., start[j] + count[j] - 1 for every j, one run
    after another: the CSR slots of rows `r` are run_slots(indptr[r],
    indptr[r + 1] - indptr[r])."""
    return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)


def ball(g: Graph, u: int, radius: float) -> frozenset[int]:
    """Nodes within undirected hop distance `radius` of u (always includes u)."""
    g.check_node(u)
    if radius < 0:
        raise GraphError(f"radius must be nonnegative, got {radius}")
    row = g.distance_matrix()[u]
    return frozenset(int(w) for w in np.nonzero(row <= radius)[0])


def directed_distances_from(g: Graph, source: int) -> np.ndarray:
    """Directed hop distances from `source`.

    Used for demand reachability and stretch verification in rounded
    subgraphs. Returns an int64 vector with UNREACHABLE entries.
    """
    g.check_node(source)
    dist = np.full(g.n, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for w in g.out_adj[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


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


def restrict(x, cluster: Iterable[int], g: Graph) -> np.ndarray:
    """Zero the vector outside the subgraph induced by `cluster`.

    Keeps x_e exactly on edges with both endpoints in the cluster.
    """
    x = as_edge_vector(g, x)
    members = set(cluster)
    out = np.zeros_like(x)
    for i, (u, v) in enumerate(g.edges):
        if u in members and v in members:
            out[i] = x[i]
    return out


# -- truncated shortest-path arborescences ------------------------------


def arborescences(
    g: Graph, roots, depth: int, orientation: str = "out"
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every root's shortest-path arborescence, cut at `depth` hops.

    "out" trees follow edge directions away from their root, "in" trees
    collect the edges pointing toward it. One level-synchronous BFS grows
    all trees at once over `arc_csr`: each level expands the frontier's
    (tree, node) pairs, drops the pairs their tree has reached, and gives
    each newly reached node its lowest-index parent on the previous level.

    Returns (tree, node, parent, edge, level) arrays, one entry per tree
    node other than the root, by level, then tree, then node: `tree`
    indexes `roots`, `edge` is the index of the edge between node and
    parent, and `level` is node's hop distance from the root.
    """
    indptr, heads, ids = g.arc_csr(orientation)
    if depth < 0:
        raise GraphError(f"depth must be nonnegative, got {depth}")
    node = np.array([g.check_node(r) for r in roots], dtype=np.int64)
    tree = np.arange(len(node))
    seen = np.zeros((len(node), g.n), dtype=bool)
    seen[tree, node] = True
    empty = np.zeros(0, dtype=np.int64)
    found = [(empty,) * 5]
    for level in range(1, depth + 1):
        start = indptr[node]
        count = indptr[node + 1] - start
        slots = run_slots(start, count)
        tree, parent = np.repeat(tree, count), np.repeat(node, count)
        node, edge = heads[slots], ids[slots]
        new = ~seen[tree, node]
        tree, node, parent, edge = tree[new], node[new], parent[new], edge[new]
        # the first of each (tree, node) run, sorted by parent, is the lowest
        order = np.lexsort((parent, node, tree))
        key = (tree * g.n + node)[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        pick = order[first]
        if not len(pick):
            break
        tree, node, parent, edge = tree[pick], node[pick], parent[pick], edge[pick]
        seen[tree, node] = True
        found.append((tree, node, parent, edge, np.full(len(pick), level)))
    return tuple(map(np.concatenate, zip(*found)))


# -- file format ---------------------------------------------------------


def write_graph(g: Graph, path) -> None:
    """Write the `n m directed|undirected` header plus one `u v` line per edge."""
    lines = [f"{g.n} {g.m} {'directed' if g.directed else 'undirected'}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_graph(path) -> Graph:
    """Parse a graph file written by :func:`write_graph`."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if len(tokens) < 3:
        raise GraphError("graph file too short")
    n, m, kind = int(tokens[0]), int(tokens[1]), tokens[2]
    if kind not in ("directed", "undirected"):
        raise GraphError(f"unknown graph kind {kind!r}")
    body = tokens[3:]
    if len(body) != 2 * m:
        raise GraphError(f"expected {2 * m} edge tokens, found {len(body)}")
    edges = [(int(body[2 * i]), int(body[2 * i + 1])) for i in range(m)]
    return Graph(n, edges, directed=(kind == "directed"))
