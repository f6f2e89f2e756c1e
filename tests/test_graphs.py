import hashlib
import itertools
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padspan.cp import build_dsn_instance, enumerate_paths
from padspan.graphs import (
    Graph,
    GraphError,
    UNREACHABLE,
    _frontier_bfs,
    _hop_table,
    arborescences,
    as_edge_vector,
    ball,
    read_graph,
    restrict,
    run_slots,
    run_starts,
    write_graph,
)
from padspan.harness import gen_gnp, gen_grid
from padspan.rounding import verify_stretch

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


def directed_bfs_oracle(g, s):
    """Plain deque BFS along edge directions (both ways for undirected
    graphs), kept independent of the library's frontier search: hop
    distances from s as an int64 vector with UNREACHABLE entries."""
    out = {u: set() for u in range(g.n)}
    for u, v in g.edges:
        out[u].add(v)
        if not g.directed:
            out[v].add(u)
    dist = np.full(g.n, UNREACHABLE, dtype=np.int64)
    dist[s] = 0
    q = deque([s])
    while q:
        u = q.popleft()
        for w in out[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


@st.composite
def bfs_graphs(draw):
    """Directed and undirected gnp graphs (isolated nodes at low p,
    antiparallel pairs at high p) and grids."""
    kind = draw(st.sampled_from(["directed", "undirected", "grid"]))
    if kind == "grid":
        return gen_grid(draw(st.integers(1, 4)), draw(st.integers(1, 5)))
    return gen_gnp(draw(st.integers(1, 12)), draw(st.sampled_from([0.05, 0.2, 0.4, 0.7])),
                   draw(st.integers(0, 2**32)), directed=kind == "directed")


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

    def test_rejects_non_integer_node_count(self):
        # int(n) truncated 2.5 to a 2-node graph
        with pytest.raises(GraphError, match="node count 2.5 is not an integer"):
            Graph(2.5, [(0, 1)])

    def test_edge_count_consistent(self):
        g = cycle(5)
        assert g.m == len(g.edges) == 5

    @pytest.mark.parametrize("directed", [True, False])
    def test_endpoint_arrays(self, directed):
        g = Graph(4, [(2, 0), (0, 1), (3, 2)], directed=directed)
        assert g.tail.tolist() == [2, 0, 3] and g.head.tolist() == [0, 1, 2]
        assert g.tail.dtype == g.head.dtype == np.int64
        with pytest.raises(ValueError):
            g.tail[0] = 1
        with pytest.raises(ValueError):
            g.head[0] = 1

    def test_endpoint_arrays_without_edges(self):
        g = Graph(3, [])
        assert g.tail.shape == g.head.shape == (0,)

    @pytest.mark.parametrize("bad", [1.5, np.float64(2.9), 1.0, "1", None])
    def test_rejects_non_integer_endpoint(self, bad):
        with pytest.raises(GraphError, match=r"edge \(0, .*\) is not a pair of int64 integers"):
            Graph(3, [(0, 1), (0, bad)])

    def test_earlier_bad_edge_named_before_non_integer(self):
        with pytest.raises(GraphError, match="self-loop at node 2"):
            Graph(3, [(0, 1), (2, 2), (0, 1.5)])

    def test_integer_like_endpoints_accepted(self):
        g = Graph(3, [(np.int64(0), np.uint8(2)), (True, 2)])
        assert g.edges == ((0, 2), (1, 2))
        assert all(type(w) is int for e in g.edges for w in e)

    def test_rejects_endpoint_beyond_int64(self):
        with pytest.raises(GraphError, match="not a pair of int64 integers"):
            Graph(3, [(0, 2**70)])

    def test_rejects_non_pair(self):
        with pytest.raises(GraphError, match="not a pair"):
            Graph(3, [(0, 1, 2)])


class TestNodeChecks:
    """Node ids follow the constructor's rule: integers as operator.index
    reads them, in range."""

    @pytest.mark.parametrize("bad", [1.5, np.float64(1.0), 0.0, "1", None])
    def test_check_node_rejects_non_integer(self, bad):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="is not an integer"):
            g.check_node(bad)

    def test_check_node_accepts_integer_like(self):
        g = Graph(3, [(0, 1), (1, 2)])
        for u, want in [(np.int64(2), 2), (np.uint8(1), 1), (True, 1), (0, 0)]:
            got = g.check_node(u)
            assert got == want and type(got) is int
        with pytest.raises(GraphError, match="out of range"):
            g.check_node(3)

    @pytest.mark.parametrize("u, v", [(0.9, 1.7), ([0.0], [1.0]), ([0, 2**70], [1, 2])])
    def test_edge_ids_rejects_non_integer(self, u, v):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="node ids must be integers"):
            g.edge_ids(u, v)

    def test_edge_ids_accepts_empty_and_bool(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.edge_ids([], []).tolist() == []
        assert g.edge_ids([False, True], np.array([1, 2], dtype=np.uint8)).tolist() == [0, 1]

    def test_float_demand_nodes_raise_typed_error(self):
        from padspan.cp import build_dsn_instance
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="node 2.5 is not an integer"):
            build_dsn_instance(g, [(0, 2.5, 2)])
        with pytest.raises(GraphError, match="node 0.0 is not an integer"):
            build_dsn_instance(g, [(0.0, 2, 2)])


class TestRunSlots:
    def test_csr_rows(self):
        start, count = np.array([5, 0, 9, 2]), np.array([2, 0, 3, 1])
        assert run_slots(start, count).tolist() == [5, 6, 9, 10, 11, 2]
        assert run_slots(start[:0], count[:0]).tolist() == []

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_keeps_the_integer_type(self, dtype):
        rng = np.random.default_rng(4)
        start = rng.integers(0, 1000, 50)
        count = rng.integers(0, 6, 50)
        want = run_slots(start, count)
        assert want.dtype == np.int64
        got = run_slots(start.astype(dtype), count.astype(dtype))
        assert got.dtype == dtype
        assert got.tolist() == want.tolist()


class TestRunStarts:
    def test_empty(self):
        assert run_starts(np.zeros(0, dtype=np.int64)).tolist() == []

    def test_one_run(self):
        assert run_starts(np.array([4, 4, 4])).tolist() == [True, False, False]

    def test_several_runs(self):
        keys = np.array([0, 0, 3, 5, 5, 5, 3, 9])
        assert run_starts(keys).tolist() == [
            True, False, True, True, False, False, True, True]


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

    def test_nan_radius_rejected(self):
        with pytest.raises(GraphError):
            ball(cycle(4), 0, float("nan"))

    @settings(max_examples=100, deadline=None)
    @given(g=bfs_graphs(), data=st.data())
    def test_matches_distance_matrix_row(self, g, data):
        u = data.draw(st.integers(0, g.n - 1))
        radius = data.draw(st.sampled_from([0, 0.5, 1, 1.5, 2, 3, g.n, float("inf")]))
        row = g.distance_matrix()[u]
        # an infinite radius still leaves out the nodes u cannot reach
        within = (row <= radius) & (row < UNREACHABLE)
        assert ball(g, u, radius) == frozenset(np.flatnonzero(within).tolist())

    def test_never_reads_the_distance_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("ball read the dense distance matrix")

        monkeypatch.setattr(Graph, "distance_matrix", refuse)
        g = gen_grid(4, 5)
        for u, r in ((0, 0), (0, 2), (7, 1), (19, 100)):
            assert ball(g, u, r) == {w for w, d in bfs_oracle(g, u).items() if d <= r}
        assert ball(path_graph(2), 1, float("inf")) == {0, 1}
        assert ball(Graph(3, [(0, 1)]), 0, float("inf")) == {0, 1}  # not node 2


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

    def test_foreign_member_rejected(self):
        g = cycle(4)
        with pytest.raises(GraphError, match="out of range"):
            restrict(np.ones(4), {0, 4}, g)

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
                dist = directed_bfs_oracle(g, root)
                # every node within depth hops, at its hop distance
                assert depths == {w: int(d) for w, d in enumerate(dist)
                                  if 0 < d <= depth}
                for w, e in zip(node[mine].tolist(), edge[mine].tolist()):
                    assert g.edges[e] == (parents[w], w)
                    assert {root: 0, **depths}[parents[w]] == depths[w] - 1

    def test_bad_orientation(self):
        with pytest.raises(GraphError):
            arborescences(cycle(4), [0], 1, "sideways")


class TestFrontierBfs:
    @settings(max_examples=120, deadline=None)
    @given(g=bfs_graphs(), data=st.data())
    def test_matches_per_source_bfs(self, g, data):
        roots = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=4))
        depth = data.draw(st.integers(0, g.n))
        searches = (
            (g.arc_csr("out")[:2], lambda r: directed_bfs_oracle(g, r)),
            (g.shadow_csr(), lambda r: [bfs_oracle(g, r).get(w, UNREACHABLE)
                                        for w in range(g.n)]),
        )
        for (indptr, heads), oracle in searches:
            found = _frontier_bfs(indptr, heads, roots, depth)
            order = np.lexsort((found[1], found[0], found[4]))
            assert (order == np.arange(len(order))).all()  # level, tree, node
            # the roots first, as their own parents at level 0 with slot -1
            k = len(roots)
            assert [a[:k].tolist() for a in found] == [
                list(range(k)), roots, roots, [-1] * k, [0] * k]
            tree, node, parent, slot, level = (a[k:] for a in found)
            assert (heads[slot] == node).all()
            assert ((indptr[parent] <= slot) & (slot < indptr[parent + 1])).all()
            for i, root in enumerate(roots):
                dist = oracle(root)
                mine = tree == i
                # every node within depth, at its hop distance, hanging from
                # its lowest-index neighbour one hop nearer the root
                assert dict(zip(node[mine].tolist(), level[mine].tolist())) == {
                    w: int(d) for w, d in enumerate(dist) if 0 < d <= depth}
                for w, p, lv in zip(node[mine], parent[mine], level[mine]):
                    nearer = [u for u in range(g.n) if dist[u] == lv - 1
                              and w in heads[indptr[u]:indptr[u + 1]]]
                    assert p == min(nearer)

    @settings(max_examples=120, deadline=None)
    @given(g=bfs_graphs(), data=st.data())
    def test_hop_table_matches_per_source_bfs(self, g, data):
        # the last root repeats the first, so one root answers under two
        # indices; past `depth` every lookup reads UNREACHABLE
        roots = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=4))
        roots.append(roots[0])
        depth = data.draw(st.integers(0, g.n))
        searches = (
            (g.arc_csr("out")[:2], lambda r: directed_bfs_oracle(g, r)),
            (g.arc_csr("in")[:2], lambda r: [directed_bfs_oracle(g, w)[r]
                                             for w in range(g.n)]),
            (g.shadow_csr(), lambda r: [bfs_oracle(g, r).get(w, UNREACHABLE)
                                        for w in range(g.n)]),
        )
        for (indptr, heads), oracle in searches:
            hops = _hop_table(indptr, heads, roots, depth)
            want = [[int(d) if d <= depth else UNREACHABLE for d in oracle(r)]
                    for r in roots]
            i, w = np.divmod(np.arange(len(roots) * g.n), g.n)
            assert hops(i, w).tolist() == sum(want, [])
            # lookups in any order, one at a time and repeated read the same
            order = data.draw(st.permutations(range(len(i))))
            assert hops(i[order], w[order]).tolist() == [want[j][x] for j, x in
                                                         zip(i[order], w[order])]
            assert [int(hops(len(roots) - 1, x)) for x in range(g.n)] == want[0]
            assert hops(np.zeros(0, dtype=np.int64), []).tolist() == []

    @settings(max_examples=80, deadline=None)
    @given(g=bfs_graphs(), data=st.data())
    def test_verify_stretch_matches_per_source_bfs(self, g, data):
        # a real instance of the drawn demands that g meets, so that the
        # screen (a wholly kept allowed path) and the search both answer:
        # the kept set adds one whole family path of each demand drawn so
        pair = st.tuples(st.integers(0, g.n - 1), st.integers(0, g.n - 1)).filter(
            lambda uv: uv[0] != uv[1])
        drawn = [(u, v, data.draw(st.integers(1, 4))) for u, v in
                 data.draw(st.lists(pair, max_size=6))] if g.n > 1 else []
        inst = build_dsn_instance(g, [(u, v, bound) for u, v, bound in drawn
                                      if directed_bfs_oracle(g, u)[v] <= bound])
        kept = data.draw(st.sets(st.integers(0, g.m - 1))) if g.m else set()
        for fam in inst.family_edges:
            if data.draw(st.booleans()):
                kept.update(fam[data.draw(st.integers(0, len(fam) - 1))])
        sub = Graph(g.n, [g.edges[e] for e in sorted(kept)], g.directed)
        want = [i for i, d in enumerate(inst.demands)
                if directed_bfs_oracle(sub, d.u)[d.v] > d.bound]
        assert verify_stretch(inst, kept) == (not want, want)


def per_edge_reference(n, edges, directed):
    """The constructor's checks as one loop over the edges (the code that
    the array pass replaced): the edge list, or the first error message."""
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u},{v}) out of range for n={n}"
        if u == v:
            return f"self-loop at node {u}"
        if (u, v) in seen or (not directed and (v, u) in seen):
            return f"duplicate edge ({u},{v})"
        seen.add((u, v))
    return tuple(edges)


@st.composite
def edge_lists(draw, valid=False):
    """(n, edges, directed) from a few nodes, so that out-of-range ends,
    self-loops, duplicates, reversed duplicates and antiparallel pairs are
    common; with `valid`, lists the constructor accepts."""
    n = draw(st.integers(1, 6))
    directed = draw(st.booleans())
    if valid:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1])
        edges = draw(st.lists(pair, max_size=12, unique_by=(
            (lambda e: e) if directed else frozenset)))
    else:
        # the extremes make int64 keys wrap, which must not hide a fault
        node = st.one_of(st.integers(-1, n), st.sampled_from([2**62, -2**62, 2**63 - 1]))
        edges = draw(st.lists(st.tuples(node, node), max_size=12))
    return n, edges, directed


class TestRepresentation:
    @settings(max_examples=300, deadline=None)
    @given(case=edge_lists())
    def test_constructor_matches_per_edge_loop(self, case):
        n, edges, directed = case
        want = per_edge_reference(n, edges, directed)
        try:
            got = Graph(n, edges, directed).edges
        except GraphError as exc:
            got = str(exc)
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(case=edge_lists(valid=True))
    def test_adjacency_matches_set_references(self, case):
        n, edges, directed = case
        g = Graph(n, edges, directed)
        shadow = {u: set() for u in range(n)}
        arcs = {}  # (tail, head) -> edge index
        for i, (u, v) in enumerate(edges):
            shadow[u].add(v)
            shadow[v].add(u)
            arcs[u, v] = i
            if not directed:
                arcs[v, u] = i
        indptr, indices = g.shadow_csr()
        assert indptr.dtype == indices.dtype == np.int64
        assert [indices[indptr[u]:indptr[u + 1]].tolist() for u in range(n)] == [
            sorted(shadow[u]) for u in range(n)]
        assert [g.neighbors(u) for u in range(n)] == [sorted(shadow[u]) for u in range(n)]
        assert all(type(w) is int for u in range(n) for w in g.neighbors(u))
        for orientation, row in (("out", 0), ("in", 1)):
            indptr, heads, ids = g.arc_csr(orientation)
            for u in range(n):
                mine = sorted((a[1 - row], i) for a, i in arcs.items() if a[row] == u)
                span = slice(indptr[u], indptr[u + 1])
                assert list(zip(heads[span].tolist(), ids[span].tolist())) == mine
        nodes = range(-1, n + 1)
        pairs = [(u, v) for u in nodes for v in nodes]
        got = g.edge_ids([u for u, _ in pairs], [v for _, v in pairs])
        assert got.tolist() == [arcs.get(p, -1) for p in pairs]
        for u, v in pairs[:8]:
            assert int(g.edge_ids(u, v)) == arcs.get((u, v), -1)
        for u in range(n):
            for v in range(n):
                if u != v:
                    assert enumerate_paths(g, u, v, 3) == sorted(
                        seq for length in range(1, 4)
                        for mids in itertools.permutations(
                            [w for w in range(n) if w not in (u, v)], length - 1)
                        if all(hop in arcs for hop in zip((u, *mids), (*mids, v)))
                        for seq in [(u, *mids, v)])


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

    @pytest.mark.parametrize("text, line", [
        ("3 2 directed\n0 1\n1 x\n", 3),
        ("3 2.0 directed\n0 1\n1 2\n", 1),
    ])
    def test_non_integer_token_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        with pytest.raises(GraphError, match=f"bad.graph: line {line}: .* is not an integer"):
            read_graph(path)
