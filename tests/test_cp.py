import itertools
import math

import numpy as np
import pytest

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
from padspan.graphs import Graph, GraphError, restrict
from padspan.harness import gen_gnp


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
            CpInstance(
                graph=g,
                demands=(Demand(0, 2, 3),),
                families=(((0, 1, 0, 2),),),
                objective=linear_sum(),
            )

    def test_wrong_endpoints_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InstanceError):
            CpInstance(
                graph=g,
                demands=(Demand(0, 2, 2),),
                families=(((0, 1),),),
                objective=linear_sum(),
            )


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
    ], ids=["header-replaced", "header-missing", "count", "short-row", "token", "objective"])
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
