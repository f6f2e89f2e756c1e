import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padspan import cp
from padspan.cp import (
    CpInstance,
    Demand,
    InfeasibleDemandError,
    InstanceError,
    build_dsn_instance,
    build_spanner_instance,
    combiner_value,
    enumerate_paths,
    evaluate_objective,
    fractional_degrees,
    linear_sum,
    max_degree,
    objective_from_label,
    p_norm,
    read_instance,
    write_instance,
)
from padspan.graphs import UNREACHABLE, Graph, GraphError, restrict
from padspan.harness import gen_cycle, gen_gnp, gen_grid

from paths_reference import dfs_family, dfs_paths, instance_from_families
from test_graphs import directed_bfs_oracle


def complete_digraph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def oracle_paths(g, s, t, max_len):
    """Independent brute force: check every node sequence up to the bound."""
    found = []
    edges = set(g.edges)
    nodes = range(g.n)
    for length in range(1, max_len + 1):
        for mids in itertools.permutations([w for w in nodes if w not in (s, t)],
                                           length - 1):
            seq = (s, *mids, t)
            if all((a, b) in edges for a, b in zip(seq, seq[1:])):
                found.append(seq)
    return sorted(found)


class TestEnumeratePaths:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert enumerate_paths(g, 0, 1, 1) == [(0, 1)]

    def test_direct_plus_detour(self):
        g = Graph(3, [(0, 1), (0, 2), (2, 1)])
        assert enumerate_paths(g, 0, 1, 2) == [(0, 1), (0, 2, 1)]

    def test_complete_four_counts(self):
        # frozen from the brute-force oracle: 1 direct + 2 two-hop + 2 three-hop
        g = complete_digraph(4)
        assert len(enumerate_paths(g, 0, 1, 3)) == 5

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(6)
        for _ in range(12):
            n = int(rng.integers(4, 9))
            g = Graph(n, [(u, v) for u in range(n) for v in range(n)
                          if u != v and rng.random() < 0.35])
            s, t = 0, n - 1
            max_len = int(rng.integers(1, 5))
            got = enumerate_paths(g, s, t, max_len)
            assert sorted(got) == oracle_paths(g, s, t, max_len)

    def test_lexicographic_order(self):
        g = complete_digraph(4)
        paths = enumerate_paths(g, 0, 3, 3)
        assert paths == sorted(paths)

    def test_no_path_empty(self):
        g = Graph(3, [(1, 0)])
        assert enumerate_paths(g, 0, 2, 3) == []

    def test_cap_enforced(self):
        g = complete_digraph(7)
        with pytest.raises(InstanceError):
            enumerate_paths(g, 0, 1, 6, cap=10)

    def test_bad_max_len(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InstanceError):
            enumerate_paths(g, 0, 1, 0)

    @pytest.mark.parametrize("max_len", [math.nan, 2.9])
    def test_non_integer_max_len_rejected(self, max_len):
        # nan raised a bare ValueError, and 2.9 was read as 2
        g = complete_digraph(4)
        with pytest.raises(InstanceError, match=f"max_len {max_len} is not an integer"):
            enumerate_paths(g, 0, 1, max_len)


def random_cross_zero_vector(g, assignment, rng):
    x = rng.random(g.m)
    for i, (u, v) in enumerate(g.edges):
        if assignment[u] != assignment[v]:
            x[i] = 0.0
    return x


ALL_OBJECTIVES = [
    linear_sum(),
    max_degree("inout"),
    max_degree("out"),
    p_norm(1),
    p_norm(2),
    p_norm(math.inf),
]


class TestObjectives:
    def test_zero_vector_is_zero(self):
        g = gen_gnp(8, 0.4, seed=1)
        for obj in ALL_OBJECTIVES:
            assert evaluate_objective(obj, np.zeros(g.m), g) == 0.0

    def test_linear_sum(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        assert evaluate_objective(linear_sum(), [0.2, 0.3, 0.5], g) == pytest.approx(1.0)

    def test_max_degree_star(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        x = [0.5, 0.5, 0.5]
        assert evaluate_objective(max_degree("out"), x, g) == pytest.approx(1.5)
        assert evaluate_objective(max_degree("inout"), x, g) == pytest.approx(1.5)
        assert evaluate_objective(max_degree("in"), x, g) == pytest.approx(0.5)

    def test_monotone(self):
        rng = np.random.default_rng(7)
        g = gen_gnp(9, 0.35, seed=2)
        for obj in ALL_OBJECTIVES:
            for _ in range(30):
                x = rng.random(g.m)
                bigger = x + rng.random(g.m)
                assert evaluate_objective(obj, x, g) <= evaluate_objective(
                    obj, bigger, g) + 1e-12

    def test_negative_rejected(self):
        g = Graph(2, [(0, 1)])
        from padspan.graphs import GraphError
        with pytest.raises(GraphError):
            evaluate_objective(linear_sum(), [-0.1], g)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        g = Graph(2, [(0, 1), (1, 0)])
        from padspan.graphs import GraphError
        with pytest.raises(GraphError, match="non-finite"):
            evaluate_objective(linear_sum(), [0.5, bad], g)

    def test_combiner_examples(self):
        assert combiner_value(max_degree(), [1.5, 0.2, 0.0]) == 1.5
        assert combiner_value(linear_sum(), []) == 0.0
        assert combiner_value(p_norm(2), [3, 4]) == pytest.approx(5.0)

    def test_partition_identity_random(self):
        rng = np.random.default_rng(8)
        for obj in ALL_OBJECTIVES:
            for _ in range(40):
                g = gen_gnp(10, 0.4, seed=int(rng.integers(1000)))
                assignment = rng.integers(0, 3, size=g.n)
                x = random_cross_zero_vector(g, assignment, rng)
                whole = evaluate_objective(obj, x, g)
                parts = [
                    evaluate_objective(obj, restrict(x, np.nonzero(assignment == c)[0], g), g)
                    for c in range(3)
                ]
                combined = combiner_value(obj, parts)
                assert combined == pytest.approx(whole, rel=1e-12, abs=1e-12)

    def test_jensen_scaling(self):
        rng = np.random.default_rng(9)
        g = gen_gnp(8, 0.4, seed=3)
        for obj in ALL_OBJECTIVES:
            for _ in range(25):
                x = rng.random(g.m)
                c = rng.uniform(0.01, 1.0)
                assert evaluate_objective(obj, c * x, g) <= c * evaluate_objective(
                    obj, x, g) + 1e-12

    def test_labels_round_trip(self):
        for obj in ALL_OBJECTIVES:
            assert objective_from_label(obj.label()) == obj


class TestSpannerInstance:
    def test_triangle_k2(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        inst = build_spanner_instance(g, 2)
        assert len(inst.demands) == 3
        assert all(len(f) >= 1 for f in inst.families)

    def test_k1_families_are_single_edges(self):
        g = gen_gnp(8, 0.3, seed=4)
        inst = build_spanner_instance(g, 1)
        for d, fam in zip(inst.demands, inst.families):
            assert fam == ((d.u, d.v),)
        assert inst.D == 1

    def test_bidirected_four_cycle_k3(self):
        # frozen from the enumeration oracle: direct edge and the long way
        edges = []
        for i in range(4):
            edges += [(i, (i + 1) % 4), ((i + 1) % 4, i)]
        g = Graph(4, edges)
        inst = build_spanner_instance(g, 3)
        assert inst.demands[0] == Demand(0, 1, 3)
        assert inst.families[0] == ((0, 1), (0, 3, 2, 1))

    def test_spanning_flag(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        assert build_spanner_instance(g, 2).spanning is True

    @pytest.mark.parametrize("k", [1.5, math.inf, math.nan])
    def test_non_integer_stretch_rejected(self, k):
        # 1.5 was stored as every demand's bound with 1-hop paths; inf raised
        # OverflowError and NaN a bare ValueError
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(InstanceError, match="stretch .* is not an integer"):
            build_spanner_instance(g, k)


class TestDsnInstance:
    def test_distance_preserver_special_case(self):
        g = Graph(3, [(0, 1), (1, 2)])
        inst = build_dsn_instance(g, [(0, 2, 2)])
        assert inst.families == (((0, 1, 2),),)
        assert inst.D == 2

    def test_uniform_bound_shallow_light(self):
        g = complete_digraph(4)
        inst = build_dsn_instance(g, [(0, 1, 2), (2, 3, 2), (1, 2, 2), (3, 0, 2)])
        assert inst.spanning is True
        assert inst.D == 2

    def test_infeasible_bound(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InfeasibleDemandError):
            build_dsn_instance(g, [(0, 2, 1)])

    def test_unreachable_demand(self):
        g = Graph(3, [(1, 0), (1, 2)])
        with pytest.raises(InfeasibleDemandError):
            build_dsn_instance(g, [(0, 2, 5)])

    def test_infeasible_message_names_distance(self):
        g = Graph(4, [(0, 1), (1, 2), (3, 0)])
        with pytest.raises(InfeasibleDemandError) as err:
            build_dsn_instance(g, [(0, 1, 1), (0, 2, 1), (3, 2, 3)])
        assert str(err.value) == (
            "demand (0,2) unreachable within bound 1 (directed distance 2)")
        with pytest.raises(InfeasibleDemandError) as err:
            build_dsn_instance(g, [(3, 2, 3), (2, 0, 4)])
        assert str(err.value) == (
            "demand (2,0) unreachable within bound 4 (directed distance inf)")

    def test_nodes_checked_before_distances(self):
        # the infeasible first demand is reported only after every
        # demand's nodes and degeneracy pass
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InstanceError, match="degenerate demand"):
            build_dsn_instance(g, [(0, 2, 1), (1, 1, 2)])
        with pytest.raises(GraphError):
            build_dsn_instance(g, [(0, 2, 1), (1, 3, 2)])

    def test_degenerate_demand(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InstanceError):
            build_dsn_instance(g, [(1, 1, 2)])

    @pytest.mark.parametrize("bound", [2.5, 2.0, "2", None])
    def test_non_integer_bound_rejected(self, bound):
        # a bound is a hop count: int() would truncate 2.5 to 2
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InstanceError, match=f"bound {bound!r} is not an integer"):
            build_dsn_instance(g, [(0, 2, bound)])
        assert build_dsn_instance(g, [(0, 2, np.int64(2))]).demands == (Demand(0, 2, 2),)

    def test_non_spanning_flagged(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        inst = build_dsn_instance(g, [(0, 1, 1)])
        assert inst.spanning is False

    def test_d_is_longest_allowed_path(self):
        g = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)])
        inst = build_dsn_instance(g, [(0, 3, 2)])
        assert inst.D == 2


class TestInstanceValidation:
    def test_path_not_simple_rejected(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 2)])
        with pytest.raises(InstanceError):
            instance_from_families(
                graph=g,
                demands=(Demand(0, 2, 3),),
                families=(((0, 1, 0, 2),),),
                objective=linear_sum(),
            )

    def test_wrong_endpoints_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InstanceError):
            instance_from_families(
                graph=g,
                demands=(Demand(0, 2, 2),),
                families=(((0, 1),),),
                objective=linear_sum(),
            )


    @pytest.mark.parametrize("ends, message", [
        ([(0, 1), (0, 5), (2, 2)], "node 5 out of range for n=3"),
        ([(0, 1), (2, 2), (0, 5)], r"degenerate demand \(2,2\)"),
        ([(7, 1), (0, 1.5)], "node 7 out of range"),
        ([(0, 1), (0, 1.5), (9, 1)], "node 1.5 is not an integer"),
        ([(0, 1), ("1", 2)], "node '1' is not an integer"),
        ([(0, 1), (-1, 2)], "node -1 out of range"),
        ([(0, 2**64)], f"node {2**64} out of range"),
        ([(np.uint64(2**63), 1)], f"node {2**63} out of range"),
    ])
    def test_first_faulty_demand_named(self, ends, message):
        # nodes are checked in one array pass, but the error names the
        # first faulty demand in input order, u before v
        g = Graph(3, [(0, 1), (1, 2)])
        demands = tuple(Demand(u, v, 2) for u, v in ends)
        with pytest.raises((GraphError, InstanceError), match=message):
            instance_from_families(graph=g, demands=demands,
                                   families=((),) * len(demands),
                                   objective=linear_sum())

    def test_integer_like_nodes_accepted(self):
        g = Graph(3, [(0, 1), (1, 2)])
        for u, v in [(np.int32(0), np.uint8(2)), (False, 2)]:
            inst = instance_from_families(
                graph=g, demands=(Demand(u, v, 2),), families=(((0, 1, 2),),),
                objective=linear_sum())
            assert inst.families == (((0, 1, 2),),)


class TestInstanceFile:
    def test_round_trip(self, tmp_path):
        g = gen_gnp(10, 0.3, seed=5)
        inst = build_spanner_instance(g, 2, max_degree("inout"))
        path = str(tmp_path / "inst.txt")
        write_instance(inst, path)
        back = read_instance(path)
        assert back.demands == inst.demands
        assert back.families == inst.families
        assert back.objective == inst.objective
        assert back.spanning == inst.spanning

    @pytest.mark.parametrize("edit, message", [
        # a missing header line: a demand row takes its place, or the file ends
        (lambda ls: ls[:2] + ls[3:], r"line 5: expected one header line each of .*'0 3 3'"),
        (lambda ls: ls[:2] + ls[3:4], r"missing the 'objective' header line"),
        (lambda ls: ls[:4] + ["demands one", *ls[5:]], r"line 5: expected .*'demands one'"),
        (lambda ls: ls[:5] + ["0 3"], r"line 6: expected a demand row .*'0 3'"),
        (lambda ls: ls[:5] + ["0 3 x"], r"line 6: expected a demand row .*'0 3 x'"),
        (lambda ls: ls[:2] + ["objective p-norm:x", *ls[3:]], r"line 3: .*'objective p-norm:x'"),
        # a row past the declared demand count
        (lambda ls: ls + ["1 2 9", "foo bar"], r"line 7: expected the end of the file after "
                                               r"1 demand rows, found '1 2 9'"),
    ], ids=["header-replaced", "header-missing", "count", "short-row", "token", "objective",
            "extra-row"])
    def test_malformed_file_names_file_and_line(self, tmp_path, edit, message):
        inst = build_dsn_instance(Graph(4, [(0, 1), (1, 2), (2, 3)]), [(0, 3, 3)])
        path = str(tmp_path / "inst.txt")
        write_instance(inst, path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(edit(lines)) + "\n")
        with pytest.raises(InstanceError, match="inst.txt: " + message):
            read_instance(path)

    def test_canonical_bytes(self, tmp_path):
        g = gen_gnp(8, 0.3, seed=6)
        inst = build_dsn_instance(g, [(0, g.n - 1, g.n)])
        p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        write_instance(inst, p1, graph_filename="g1.graph")
        write_instance(read_instance(p1), p2, graph_filename="g2.graph")
        body1 = open(p1).read().replace("g1.graph", "G")
        body2 = open(p2).read().replace("g2.graph", "G")
        assert body1 == body2


class TestFractionalDegrees:
    def test_modes(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        x = np.array([1.0, 2.0, 4.0])
        out = fractional_degrees(g, x, "out")
        inn = fractional_degrees(g, x, "in")
        both = fractional_degrees(g, x, "inout")
        assert out.tolist() == [1.0, 2.0, 4.0]
        assert inn.tolist() == [4.0, 1.0, 2.0]
        assert np.array_equal(both, out + inn)


@st.composite
def path_cases(draw):
    """A small graph (directed or undirected gnp, grid, or cycle) and
    demands with bounds 1-5, some of them unreachable."""
    kind = draw(st.sampled_from(["gnp", "ugnp", "grid", "cycle", "ucycle"]))
    if kind == "grid":
        g = gen_grid(draw(st.integers(1, 3)), draw(st.integers(2, 3)))
    elif kind in ("cycle", "ucycle"):
        g = gen_cycle(draw(st.integers(3, 8)), directed=kind == "cycle")
    else:
        g = gen_gnp(draw(st.integers(2, 8)), draw(st.sampled_from([0.2, 0.4, 0.7])),
                    seed=draw(st.integers(0, 10**6)), directed=kind == "gnp")
    pair = st.tuples(st.integers(0, g.n - 1), st.integers(0, g.n - 1)).filter(
        lambda p: p[0] != p[1])
    demands = draw(st.lists(st.tuples(pair, st.integers(1, 5)), max_size=8))
    return g, [(u, v, bound) for (u, v), bound in demands]


def family_tuples(g, u, family):
    """The kernel's flat arrays as per-demand (node tuple, edge tuple) lists."""
    path_ptr, hop_ptr, hop_node, hop_edge = (a.tolist() for a in family)
    return [[((u[i], *hop_node[hop_ptr[j]:hop_ptr[j + 1]]),
              tuple(hop_edge[hop_ptr[j]:hop_ptr[j + 1]]))
             for j in range(path_ptr[i], path_ptr[i + 1])] for i in range(len(u))]


def outcome(fn):
    """("ok", fn()), or the type and message of the InstanceError it raised."""
    try:
        return "ok", fn()
    except InstanceError as exc:
        return type(exc), str(exc)


class TestArrayEnumerator:
    """The level-synchronous enumerator against the depth-first reference."""

    @settings(max_examples=300, deadline=None)
    @given(case=path_cases(), cap=st.sampled_from([1, 3, 8, 100_000]))
    def test_matches_dfs(self, case, cap):
        g, demands = case
        u, v, bound = np.array(demands, dtype=np.int64).reshape(-1, 3).T
        hops = cp._target_hops(g, v, int(bound.max(initial=1)) - 1)  # the least depth it needs
        status, got = outcome(lambda: family_tuples(g, u.tolist(), cp._path_family(
            g, u, v, bound, cap, hops)))
        want = outcome(lambda: dfs_family(g, demands, cap))
        if want[0] != "ok":
            assert (status, got) == want  # the same first demand over the cap
            return
        assert [[p for p, _ in fam] for fam in got] == [list(fam) for fam in want[1]]
        for fam in got:
            for p, edges in fam:
                assert list(edges) == g.edge_ids(p[:-1], p[1:]).tolist()
        for (a, b, bound_i), fam in zip(demands, got):
            assert bool(fam) == (directed_bfs_oracle(g, a)[b] <= bound_i)

    @settings(max_examples=150, deadline=None)
    @given(case=path_cases())
    def test_dsn_builder_matches_dfs(self, case):
        g, demands = case
        first_far = next((i for i, (a, b, bound) in enumerate(demands)
                          if not dfs_family(g, [(a, b, bound)])[0]), None)
        if first_far is None:
            inst = build_dsn_instance(g, demands)
            assert inst.families == dfs_family(g, demands)
            assert inst.D == max((len(p) - 1 for fam in inst.families for p in fam), default=0)
            return
        a, b, bound = demands[first_far]
        dist = int(directed_bfs_oracle(g, a)[b])
        with pytest.raises(InfeasibleDemandError) as err:
            build_dsn_instance(g, demands)
        assert str(err.value) == (f"demand ({a},{b}) unreachable within bound {bound} "
                                  f"(directed distance {'inf' if dist >= UNREACHABLE else dist})")

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_spanner_builder_matches_dfs(self, k):
        for g in (gen_gnp(9, 0.35, seed=k), gen_gnp(8, 0.4, seed=k, directed=False),
                  gen_grid(3, 3), gen_cycle(6), gen_cycle(5, directed=False)):
            inst = build_spanner_instance(g, k)
            assert inst.families == dfs_family(g, [(a, b, k) for a, b in g.edges])

    def test_cap_names_first_demand_in_input_order(self, monkeypatch):
        # with cap 2, demand (5,6) has 3 paths after two levels, and demand
        # (0,1) reaches 4 only on the third: the error still names (0,1)
        g = Graph(9, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (3, 2),
                      (5, 6), (5, 7), (7, 6), (5, 8), (8, 6)])
        assert [len(f) for f in dfs_family(g, [(0, 1, 2), (0, 1, 3), (5, 6, 2)])] == [2, 4, 3]
        monkeypatch.setattr(cp, "DEFAULT_PATH_CAP", 2)
        with pytest.raises(InstanceError, match=r"path family for \(0,1\) exceeds cap 2"):
            build_dsn_instance(g, [(0, 1, 3), (5, 6, 2)])
        with pytest.raises(InstanceError, match=r"path family for \(5,6\) exceeds cap 2"):
            build_dsn_instance(g, [(0, 1, 2), (5, 6, 2)])

    @pytest.mark.parametrize("bound", [10**9, 2**70])
    def test_bound_past_n_matches_dfs(self, bound, tmp_path):
        # a simple path has at most n - 1 hops, so a looser bound cuts
        # nothing and sizes nothing
        for g in (gen_gnp(7, 0.5, seed=2), gen_grid(2, 3), gen_cycle(5, directed=False)):
            assert enumerate_paths(g, 0, 1, bound) == dfs_paths(g, 0, 1, bound)
            demands = [(0, g.n - 1, bound), (1, 0, bound)]
            inst = build_dsn_instance(g, demands)
            assert inst.families == dfs_family(g, demands)
            assert inst.demands[0].bound == bound
            write_instance(inst, str(tmp_path / "inst.txt"))
            assert read_instance(str(tmp_path / "inst.txt")).families == inst.families
            assert build_spanner_instance(g, bound).families == build_spanner_instance(
                g, g.n - 1).families

    def test_small_steps_give_the_same_family(self, monkeypatch):
        # with no cell budget every step extends a single prefix
        graphs = (gen_gnp(9, 0.35, seed=4), gen_grid(3, 3), gen_cycle(6, directed=False))
        want = [build_spanner_instance(g, k) for g in graphs for k in (2, 3, 4)]
        monkeypatch.setattr(cp, "_CELLS_PER_CAP", 0)
        got = [build_spanner_instance(g, k) for g in graphs for k in (2, 3, 4)]
        for a, b in zip(want, got):
            for name in ("path_ptr", "hop_ptr", "hop_node", "hop_edge"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_default_cap_bounds_each_step(self, monkeypatch):
        # every demand of the complete 60-node digraph has about 188,000
        # paths of at most 4 hops; growing every prefix level by level would
        # hold 11.7 million 3-hop prefixes before any family is over the cap
        g = complete_digraph(60)
        extended = []
        real = cp.run_slots

        def counting(start, count):
            # fail at once, not after the memory is gone: a step builds at
            # most the budget's cells (5 per 4-hop prefix), and all steps
            # together some 6.2 million extensions
            extended.append(int(count.sum()))
            assert extended[-1] * 5 <= cp._CELLS_PER_CAP * cp.DEFAULT_PATH_CAP
            assert sum(extended) < 20_000_000
            return real(start, count)

        monkeypatch.setattr(cp, "run_slots", counting)
        with pytest.raises(InstanceError, match=r"path family for \(0,1\) exceeds cap 100000"):
            build_spanner_instance(g, 4)

    def test_cap_error_before_later_infeasible_demand(self, monkeypatch):
        monkeypatch.setattr(cp, "DEFAULT_PATH_CAP", 2)
        g = complete_digraph(4)
        with pytest.raises(InstanceError, match=r"\(0,1\) exceeds cap 2"):
            build_dsn_instance(g, [(0, 1, 3), (1, 0, 0)])
        with pytest.raises(InfeasibleDemandError):
            build_dsn_instance(g, [(1, 0, 0), (0, 1, 3)])


class TestFlatFamily:
    def test_arrays_and_views_agree(self):
        g = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)])
        inst = build_dsn_instance(g, [(0, 3, 2), (0, 1, 1)])
        assert inst.path_ptr.tolist() == [0, 3, 4]
        assert inst.hop_ptr.tolist() == [0, 2, 4, 5, 6]
        assert inst.hop_node.tolist() == [1, 3, 2, 3, 3, 1]
        assert inst.hop_edge.tolist() == [0, 1, 2, 3, 4, 0]
        assert inst.families == (((0, 1, 3), (0, 2, 3), (0, 3)), ((0, 1),))
        assert inst.family_edges == (((0, 1), (2, 3), (4,)), ((0,),))
        assert inst.D == 2
        assert inst.path_owner.tolist() == [0, 0, 0, 1]
        assert inst.hop_path.tolist() == [0, 0, 1, 1, 2, 3]
        assert inst.shares_edges.tolist() == [False, False]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_shares_edges_matches_family_sets(self, k):
        inst = build_spanner_instance(gen_gnp(9, 0.4, seed=3), k)
        want = [any(set(p) & set(q) for p, q in itertools.combinations(fam, 2))
                for fam in inst.family_edges]
        assert inst.shares_edges.tolist() == want
        assert any(want) == (k == 3)  # k=2 families are parallel paths

    def test_arrays_read_only(self):
        inst = build_spanner_instance(Graph(3, [(0, 1), (1, 2), (2, 0)]), 2)
        for a in (inst.path_ptr, inst.hop_ptr, inst.hop_node, inst.hop_edge):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_tuple_families_round_trip(self):
        g = gen_gnp(8, 0.4, seed=3)
        inst = build_spanner_instance(g, 3)
        back = instance_from_families(g, inst.demands, inst.families, inst.objective)
        for name in ("path_ptr", "hop_ptr", "hop_node", "hop_edge"):
            assert np.array_equal(getattr(back, name), getattr(inst, name))

    @pytest.mark.parametrize("families, message", [
        ((((0, 1),),), r"path \(0, 1\) does not join \(0,2\)"),
        ((((0, 1, 0, 1),),), r"path \(0, 1, 0, 1\) does not join \(0,2\)"),
        ((((0, 1, 0, 1, 2),),), r"path \(0, 1, 0, 1, 2\) is not simple"),
        ((((0, 1, 2),),), r"path \(0, 1, 2\) longer than bound 1 for \(0,2\)"),
        (((),), r"demand \(0,2\) has no allowed path within bound 1"),
        ((), "one path family required per demand"),
    ])
    def test_constructor_errors(self, families, message):
        g = Graph(3, [(0, 1), (1, 0), (1, 2)])
        with pytest.raises(InstanceError, match=message):
            instance_from_families(g, (Demand(0, 2, 1),), families, linear_sum())

    def test_zero_hop_path_does_not_join(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InstanceError, match=r"path \(0,\) does not join \(0,2\)"):
            CpInstance(g, (Demand(0, 2, 2),), linear_sum(), np.array([0, 1]), np.array([0, 0]),
                       np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
