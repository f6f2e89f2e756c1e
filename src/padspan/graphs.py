"""Graph structures: directed problem graphs over an undirected communication shadow.

Nodes are dense integer indices 0..n-1. Every distance used for clustering and
communication is a hop count in the undirected shadow of the graph; directed
adjacency is kept separately for path enumeration and stretch checks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

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

    def degree(self, u: int) -> int:
        return len(self.shadow_adj[self.check_node(u)])


def ball(g: Graph, u: int, radius: float) -> frozenset[int]:
    """Nodes within undirected hop distance `radius` of u (always includes u)."""
    g.check_node(u)
    if radius < 0:
        raise GraphError(f"radius must be nonnegative, got {radius}")
    row = g.distance_matrix()[u]
    return frozenset(int(w) for w in np.nonzero(row <= radius)[0])


def directed_distances_from(
    g: Graph, source: int, allowed_edges: Sequence[tuple[int, int]] | None = None
) -> np.ndarray:
    """Directed hop distances from `source`, optionally inside an edge subset.

    Used for demand reachability and stretch verification in rounded
    subgraphs. Returns an int64 vector with UNREACHABLE entries.
    """
    g.check_node(source)
    if allowed_edges is None:
        adj = g.out_adj
    else:
        lists: list[list[int]] = [[] for _ in range(g.n)]
        for u, v in allowed_edges:
            lists[u].append(v)
            if not g.directed:
                lists[v].append(u)
        adj = tuple(tuple(sorted(a)) for a in lists)
    dist = np.full(g.n, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for w in adj[u]:
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


@dataclass(frozen=True)
class Arborescence:
    """Shortest-path tree rooted at `root`, cut at `depth_bound` hops.

    Orientation "out" follows edge directions away from the root; "in"
    collects edges pointing toward the root. `edges` are pairs as oriented
    in the underlying graph; `depths` maps each tree node to its hop level.
    """

    root: int
    depth_bound: int
    orientation: str
    edges: tuple[tuple[int, int], ...]
    depths: dict[int, int]
    parents: dict[int, int]


def truncated_arborescence(
    g: Graph, root: int, depth: int, orientation: str = "out"
) -> Arborescence:
    """BFS shortest-path tree from `root` respecting edge directions.

    Parent choice is the lowest-index neighbor at the previous level, so the
    tree is deterministic. Depth 0 yields the bare root.
    """
    g.check_node(root)
    if depth < 0:
        raise GraphError(f"depth must be nonnegative, got {depth}")
    if orientation not in ("in", "out"):
        raise GraphError(f"orientation must be 'in' or 'out', got {orientation!r}")
    step_adj = g.out_adj if orientation == "out" else g.in_adj
    depths = {root: 0}
    parents: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    frontier = [root]
    level = 0
    while frontier and level < depth:
        level += 1
        nxt: list[int] = []
        for u in sorted(frontier):
            for w in step_adj[u]:
                if w not in depths:
                    depths[w] = level
                    parents[w] = u
                    nxt.append(w)
        # Lowest-index parent: a node discovered this level re-checks all
        # previous-level neighbors that reach it.
        for w in nxt:
            back = g.in_adj[w] if orientation == "out" else g.out_adj[w]
            best = min(p for p in back if depths.get(p) == level - 1)
            parents[w] = best
            if orientation == "out":
                edges.append((best, w))
            else:
                edges.append((w, best))
        frontier = nxt
    return Arborescence(
        root=root,
        depth_bound=int(depth),
        orientation=orientation,
        edges=tuple(edges),
        depths=depths,
        parents=parents,
    )


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
