import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from padspan.graphs import (
    Graph,
    GraphError,
    UNREACHABLE,
    arborescences,
    as_edge_vector,
    ball,
    directed_distances_from,
    read_graph,
    restrict,
    write_graph,
)
from padspan.harness import gen_gnp, gen_grid

ROOT = Path(__file__).resolve().parent.parent


def path_graph(n, directed=True):
    return Graph(n, [(i, i + 1) for i in range(n - 1)], directed=directed)


def cycle(n, directed=True):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], directed=directed)


def random_graph(n, p, rng, directed=True):
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < p]
    if not directed:
        edges = [(u, v) for u, v in edges if u < v]
    return Graph(n, edges, directed=directed)


def bfs_oracle(g, s):
    """Plain dict/queue BFS on the undirected shadow, kept independent of
    Graph.distance_matrix."""
    adj = {u: set() for u in range(g.n)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    dist = {s: 0}
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (0, 1)])

    def test_rejects_undirected_reverse_duplicate(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)], directed=False)

    def test_directed_antiparallel_ok(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert g.m == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 2)])

    def test_edge_count_consistent(self):
        g = cycle(5)
        assert g.m == len(g.edges) == 5


class TestDistances:
    def test_two_hop_path(self):
        g = path_graph(3)
        assert g.distance_matrix()[0, 2] == 2

    def test_identity(self):
        g = cycle(7)
        assert g.distance_matrix()[3, 3] == 0

    def test_direction_ignored(self):
        g = Graph(2, [(0, 1)])
        assert g.distance_matrix()[1, 0] == 1

    def test_disconnected_is_inf(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.distance_matrix()[0, 3] == UNREACHABLE

    def test_invalid_node(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            ball(g, 5, 1)

    def test_metric_properties_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_graph(9, 0.4, rng)
            d = g.distance_matrix()
            assert np.array_equal(d, d.T)
            assert np.all(np.diag(d) == 0)
            finite = d < UNREACHABLE
            for u in range(g.n):
                for v in range(g.n):
                    for w in range(g.n):
                        if finite[u, v] and finite[v, w]:
                            assert d[u, w] <= d[u, v] + d[v, w]

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(1)
        graphs = [
            random_graph(12, 0.25, rng),
            gen_grid(6, 7),
            gen_gnp(17, 0.2, seed=4, directed=False),
            # isolated nodes 3 and 6 beside two components
            Graph(7, [(0, 1), (1, 2), (4, 5)], directed=False),
            Graph(1, []),
            Graph(2, [(0, 1), (1, 0)]),  # antiparallel pair
        ]
        for g in graphs:
            d = g.distance_matrix()
            assert d.dtype == np.int64 and d.shape == (g.n, g.n)
            for s in range(g.n):
                oracle = bfs_oracle(g, s)
                for v in range(g.n):
                    if v in oracle:
                        assert d[s, v] == oracle[v]
                    else:
                        assert d[s, v] == UNREACHABLE

    def test_grid_matrix_pinned(self):
        # sha256 of the 32x32 grid's matrix bytes, pinned from the
        # per-source Python BFS that the bitset BFS replaced
        d = gen_grid(32, 32).distance_matrix()
        assert hashlib.sha256(d.tobytes()).hexdigest() == (
            "50ff989e9d100106be67a94ebcc7ca7cd3a989a3e2c2c3a183294a1cbd783a0d")

    def test_build_leaves_scipy_unimported(self):
        code = ("import sys; from padspan.harness import gen_grid; "
                "gen_grid(32, 32).distance_matrix(); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestBall:
    def test_star_radius_one(self):
        g = Graph(5, [(0, i) for i in range(1, 5)])
        assert ball(g, 0, 1) == frozenset(range(5))

    def test_radius_zero(self):
        g = cycle(6)
        assert ball(g, 2, 0) == frozenset([2])

    def test_six_cycle_radius_two(self):
        # frozen from the BFS enumeration oracle: 2 hops each way + center
        g = cycle(6)
        assert len(ball(g, 0, 2)) == 5

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(2)
        g = random_graph(10, 0.3, rng)
        for u in range(g.n):
            prev = frozenset()
            for r in (0, 1, 1.5, 2, 3, 10):
                cur = ball(g, u, r)
                assert prev <= cur
                prev = cur

    def test_negative_radius_rejected(self):
        with pytest.raises(GraphError):
            ball(cycle(4), 0, -1)


class TestRestrict:
    def test_full_cluster_identity(self):
        g = cycle(5)
        x = np.arange(5, dtype=float)
        assert np.array_equal(restrict(x, range(5), g), x)

    def test_empty_cluster_zero(self):
        g = cycle(5)
        x = np.ones(5)
        assert np.array_equal(restrict(x, [], g), np.zeros(5))

    def test_triangle_single_edge(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        out = restrict(np.ones(3), {0, 1}, g)
        assert list(out) == [1.0, 0.0, 0.0]

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        g = random_graph(8, 0.4, rng)
        x = rng.random(g.m)
        cluster = {0, 2, 3, 7}
        once = restrict(x, cluster, g)
        assert np.array_equal(once, restrict(once, cluster, g))

    def test_size_mismatch(self):
        g = cycle(4)
        with pytest.raises(GraphError):
            restrict(np.ones(3), {0}, g)

    def test_negative_rejected(self):
        g = cycle(4)
        with pytest.raises(GraphError):
            as_edge_vector(g, [-1, 0, 0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        g = cycle(4)
        with pytest.raises(GraphError, match="non-finite"):
            as_edge_vector(g, [0, bad, 0, 0])


class TestArborescence:
    def test_depth_zero(self):
        g = path_graph(4)
        rows = arborescences(g, [1], 0, "out")
        assert all(len(a) == 0 for a in rows)

    def test_directed_path_depth_two(self):
        g = Graph(3, [(0, 1), (1, 2)])
        tree, node, parent, edge, level = arborescences(g, [0], 2, "out")
        assert node.tolist() == [1, 2] and parent.tolist() == [0, 1]
        assert edge.tolist() == [0, 1] and level.tolist() == [1, 2]

    def test_truncation(self):
        g = Graph(3, [(0, 1), (1, 2)])
        _, node, _, edge, _ = arborescences(g, [0], 1, "out")
        assert node.tolist() == [1] and edge.tolist() == [0]

    def test_in_orientation(self):
        g = Graph(3, [(0, 1), (1, 2)])
        _, node, parent, edge, level = arborescences(g, [2], 2, "in")
        assert set(edge.tolist()) == {0, 1}
        assert dict(zip(node.tolist(), level.tolist()))[0] == 2
        assert dict(zip(node.tolist(), parent.tolist())) == {1: 2, 0: 1}

    def test_lowest_index_parent(self):
        # both 0 and 1 reach 2 at level 1; parent must be 0
        g = Graph(4, [(3, 0), (3, 1), (0, 2), (1, 2)])
        _, node, parent, edge, _ = arborescences(g, [3], 2, "out")
        at = node.tolist().index(2)
        assert parent[at] == 0 and g.edges[edge[at]] == (0, 2)

    def test_undirected_edges_either_way(self):
        # stored orientations point toward the root; both trees use them
        g = Graph(4, [(1, 0), (2, 1), (3, 0)], directed=False)
        for orientation in ("in", "out"):
            _, node, parent, edge, _ = arborescences(g, [0], 2, orientation)
            assert node.tolist() == [1, 3, 2] and parent.tolist() == [0, 0, 1]
            assert edge.tolist() == [0, 2, 1]

    def test_depths_match_directed_bfs(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            g = random_graph(10, 0.3, rng)
            roots = rng.choice(10, size=3, replace=False).tolist()
            depth = int(rng.integers(1, 5))
            tree, node, parent, edge, level = arborescences(g, roots, depth, "out")
            for i, root in enumerate(roots):
                mine = tree == i
                depths = dict(zip(node[mine].tolist(), level[mine].tolist()))
                parents = dict(zip(node[mine].tolist(), parent[mine].tolist()))
                dist = directed_distances_from(g, root)
                # every node within depth hops, at its hop distance
                assert depths == {w: int(d) for w, d in enumerate(dist)
                                  if 0 < d <= depth}
                for w, e in zip(node[mine].tolist(), edge[mine].tolist()):
                    assert g.edges[e] == (parents[w], w)
                    assert {root: 0, **depths}[parents[w]] == depths[w] - 1

    def test_bad_orientation(self):
        with pytest.raises(GraphError):
            arborescences(cycle(4), [0], 1, "sideways")


class TestGraphFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        g = random_graph(9, 0.35, rng)
        path = tmp_path / "g.graph"
        write_graph(g, path)
        g2 = read_graph(path)
        assert g2.n == g.n
        assert g2.edges == g.edges
        assert g2.directed == g.directed

    def test_header_format(self, tmp_path):
        g = Graph(3, [(0, 1)], directed=False)
        path = tmp_path / "g.graph"
        write_graph(g, path)
        first = path.read_text().splitlines()[0]
        assert first == "3 1 undirected"

    def test_rejects_bad_kind(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("2 1 sideways\n0 1\n")
        with pytest.raises(GraphError):
            read_graph(path)
