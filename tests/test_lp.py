import itertools
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padspan.cp import (
    build_dsn_instance,
    build_spanner_instance,
    max_degree,
    p_norm,
)
from padspan import lp
from padspan.graphs import Graph, GraphError, restrict
from padspan.harness import (
    ExperimentConfig,
    HarnessError,
    gen_gnp,
    generate_instance,
    sample_spanning_demands,
)
from padspan.lp import (
    LpError,
    LpInfeasible,
    LpProblem,
    LpUnbounded,
    SimplexStall,
    build_cluster_cp,
    check_feasibility,
    cluster_demands,
    dump_lp,
    solve_cluster_cp,
    solve_global_oracle,
    solve_lp,
)

from lp_reference import (
    dense_le,
    dict_cluster_cp,
    dict_feasibility_lp,
    le_problem,
    vertex_enum_min,
)


def random_bounded_lp(rng):
    """Feasible bounded LP: random <= rows plus box rows, positive costs."""
    nv = int(rng.integers(2, 7))
    nr = int(rng.integers(1, 5))
    A_rows = []
    b_vals = []
    for _ in range(nr):
        A_rows.append(rng.normal(size=nv).round(3))
        b_vals.append(round(rng.uniform(0.2, 2.0), 3))
    for j in range(nv):  # box keeps it bounded for any objective
        row = np.zeros(nv)
        row[j] = 1.0
        A_rows.append(row)
        b_vals.append(round(rng.uniform(0.5, 3.0), 3))
    A = np.array(A_rows)
    b = np.array(b_vals)
    c = rng.uniform(-1.0, 1.0, size=nv).round(3)
    return c, A, b


def random_mixed_lp(rng):
    """Feasible bounded LP with '<=' and '>=' rows and negative right-hand
    sides: every row holds at a seeded point x0 > 0, with slack."""
    nv = int(rng.integers(2, 7))
    x0 = rng.uniform(0.2, 2.0, size=nv)
    p = LpProblem(
        var_names=[f"v{i}" for i in range(nv)],
        objective={i: round(float(rng.uniform(-1.0, 1.0)), 3) for i in range(nv)},
    )
    for _ in range(int(rng.integers(1, 5))):
        coeffs = {j: round(float(rng.normal()), 3) for j in range(nv)}
        lhs = sum(v * x0[j] for j, v in coeffs.items())
        slack = float(rng.uniform(0.05, 1.0))
        if rng.random() < 0.5:
            p.add_row(coeffs, "<=", round(lhs + slack, 3))
        else:
            p.add_row(coeffs, ">=", round(lhs - slack, 3))
    # one row of each sense with a negative right-hand side
    p.add_row({0: -1.0}, "<=", round(-x0[0] / 2, 3))
    p.add_row({0: -1.0, 1: -1.0}, ">=", round(-(x0[0] + x0[1]) - 0.5, 3))
    for j in range(nv):  # box keeps it bounded for any objective
        p.add_row({j: 1.0}, "<=", round(float(x0[j] + rng.uniform(0.5, 3.0)), 3))
    return p


class TestSimplexKernel:
    def test_forced_single_path(self):
        g = Graph(2, [(0, 1)])
        inst = build_spanner_instance(g, 1)
        sol = solve_global_oracle(inst)
        assert sol.value == pytest.approx(1.0)
        assert sol.x[0] == pytest.approx(1.0)

    def test_four_cycle_stretch_one_forces_everything(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        inst = build_spanner_instance(g, 1)
        sol = solve_global_oracle(inst)
        assert sol.value == pytest.approx(4.0)
        assert np.allclose(sol.x, 1.0)

    def test_two_path_split_value_unique(self):
        # direct edge or 2-hop detour: putting everything on the direct edge
        # is optimal for the edge-count objective
        g = Graph(3, [(0, 1), (0, 2), (2, 1)])
        inst = build_spanner_instance(g, 2)
        sol = solve_global_oracle(inst)
        # demands (0,2) and (2,1) force their only edges; (0,1) rides free
        assert sol.value == pytest.approx(2.0)

    def test_max_degree_split_flow(self):
        # two edge-disjoint 2-hop paths; splitting halves the interior load.
        # frozen from the grid brute-force oracle: optimum 1.0 at f = (.5, .5)
        g = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
        inst = build_dsn_instance(g, [(0, 3, 2)], max_degree("inout"))
        sol = solve_cluster_cp(inst, range(4))
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        assert sol.flows[0] == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 40:
            c, A, b = random_bounded_lp(rng)
            ref = vertex_enum_min(c, A, b)
            if ref is None:
                continue
            sol = solve_lp(le_problem(c, A, b))
            assert sol.objective == pytest.approx(ref, abs=1e-9)
            checked += 1

    def test_ge_rows_and_artificials(self):
        p = LpProblem(var_names=["x", "y"], objective={0: 2.0, 1: 3.0})
        p.add_row({0: 1.0, 1: 1.0}, ">=", 2.0)
        p.add_row({0: 1.0}, "<=", 0.5)
        sol = solve_lp(p)
        assert sol.objective == pytest.approx(2 * 0.5 + 3 * 1.5)

    def test_matches_exact_reference(self):
        # bounded '<=' LPs, then mixed-sense LPs with negative right-hand sides
        rng = np.random.default_rng(11)
        for _ in range(10):
            c, A, b = random_bounded_lp(rng)
            assert solve_lp(le_problem(c, A, b)).objective == pytest.approx(
                vertex_enum_min(c, A, b), abs=1e-9)
        for _ in range(10):
            p = random_mixed_lp(rng)
            sol = solve_lp(p)
            assert sol.objective == pytest.approx(
                vertex_enum_min(*dense_le(p)), abs=1e-9)
            assert sol.residual <= 1e-9

    def test_empty_problem(self):
        p = LpProblem(var_names=[], objective={})
        sol = solve_lp(p)
        assert sol.objective == 0.0

    def test_empty_problem_checks_its_rows(self):
        p = LpProblem(var_names=[], objective={})
        p.add_row({}, "<=", 0.0)
        p.add_row({}, ">=", -1.0)
        assert solve_lp(p).objective == 0.0
        p.add_row({}, ">=", 1.0)
        with pytest.raises(LpInfeasible):
            solve_lp(p)

    def test_infeasible_and_unbounded_raise(self):
        p = LpProblem(var_names=["x"], objective={0: 1.0})
        p.add_row({0: 1.0}, "<=", 1.0)
        p.add_row({0: 1.0}, ">=", 2.0)
        with pytest.raises(LpInfeasible):
            solve_lp(p)
        q = LpProblem(var_names=["x", "y"], objective={0: -1.0, 1: 1.0})
        q.add_row({0: 1.0, 1: -1.0}, ">=", 1.0)
        with pytest.raises(LpUnbounded):
            solve_lp(q)

    def test_stopped_solve_raises_stall(self, monkeypatch):
        p = LpProblem(var_names=["x", "y"], objective={0: 2.0, 1: 3.0})
        p.add_row({0: 1.0, 1: 1.0}, ">=", 2.0)
        monkeypatch.setattr(lp, "_HIGHS_OPTIONS", lp._HIGHS_OPTIONS + (
            ("simplex_iteration_limit", 0),))
        with pytest.raises(SimplexStall, match="Iteration limit"):
            solve_lp(p)

    def test_residual_matches_row_loop(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_mixed_lp(rng)
            x = rng.normal(size=p.num_vars)
            worst = max(0.0, float(-x.min()))
            for coeffs, sense, rhs in p.rows:
                lhs = sum(v * x[j] for j, v in coeffs.items())
                worst = max(worst, lhs - rhs if sense == "<=" else rhs - lhs)
            assert lp._residual(p, x) == worst

    def test_highs_binding_loads(self):
        assert lp._highs().HIGHS_VERSION_MAJOR >= 1

    def test_missing_binding_raises_typed_error(self, tmp_path, monkeypatch):
        missing = str(tmp_path / "_core.so")
        monkeypatch.setattr(lp, "_highs_path", lambda: missing)
        with pytest.raises(LpError, match=re.escape(missing)):
            lp._highs.__wrapped__()


class TestClusterCp:
    def triangle_instance(self):
        g = Graph(3, [(0, 1), (0, 2), (2, 1)])
        return g, build_spanner_instance(g, 2)

    def test_whole_graph_cluster_is_global(self):
        g, inst = self.triangle_instance()
        full = solve_global_oracle(inst)
        clu = solve_cluster_cp(inst, range(3))
        assert clu.value == pytest.approx(full.value)
        assert np.allclose(clu.x, full.x)

    def test_empty_demand_set_trivial(self):
        g, inst = self.triangle_instance()
        sol = solve_cluster_cp(inst, [0])
        assert sol.value == 0.0
        assert np.all(sol.x == 0)

    def test_row_counts_by_construction(self):
        # one demand with two allowed paths: 1 flow row plus one capacity row
        # per distinct edge used by the family
        g = Graph(3, [(0, 1), (0, 2), (2, 1)])
        inst = build_dsn_instance(g, [(0, 1, 2)])
        problem, scope, dids = build_cluster_cp(inst, range(3))
        assert dids == [0]
        cap_rows = [r for r in problem.rows if r[1] == "<="]
        flow_rows = [r for r in problem.rows if r[1] == ">="]
        assert len(flow_rows) == 1
        assert len(cap_rows) == 3  # edges (0,1), (0,2), (2,1) all appear

    def test_cluster_demand_membership(self):
        g = gen_gnp(12, 0.3, seed=12)
        inst = build_spanner_instance(g, 2)
        members = set(range(6))
        dids = cluster_demands(inst, members)
        from padspan.graphs import ball
        for i, d in enumerate(inst.demands):
            inside = ball(g, d.u, inst.D) <= members
            assert (i in dids) == inside

    def test_restriction_monotonicity(self):
        # removing demands never increases the optimum
        g = gen_gnp(10, 0.3, seed=13)
        inst = build_spanner_instance(g, 2)
        full = solve_global_oracle(inst).value
        sub = solve_cluster_cp(
            inst, range(g.n),
            demand_indices=list(range(0, len(inst.demands), 2)),
        ).value
        assert sub <= full + 1e-9

    def test_lemma5_cluster_vs_restricted_global(self):
        g = gen_gnp(14, 0.3, seed=14)
        inst = build_spanner_instance(g, 2)
        opt = solve_global_oracle(inst)
        rng = np.random.default_rng(15)
        for _ in range(8):
            members = set(int(v) for v in rng.choice(g.n, size=9, replace=False))
            clu = solve_cluster_cp(inst, members)
            restricted = restrict(opt.x, members, g)
            from padspan.cp import evaluate_objective
            bound = evaluate_objective(inst.objective, restricted, g)
            assert clu.value <= bound + 1e-9

    def test_bidirected_triangle_lp_vs_ilp(self):
        # frozen oracle: LP optimum 3.0; exhaustive subgraph search gives 3
        edges = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
        g = Graph(3, edges)
        inst = build_spanner_instance(g, 2)
        sol = solve_global_oracle(inst)
        assert sol.value == pytest.approx(3.0, abs=1e-9)
        from padspan.rounding import verify_stretch
        ilp = min(
            (len(sub) for sub in
             (tuple(e for e in range(6) if (mask >> e) & 1) for mask in range(64))
             if verify_stretch(inst, sub)[0]),
        )
        assert sol.value <= ilp + 1e-9
        assert ilp == 3

    def test_star_max_degree(self):
        # frozen oracle: all edges forced, hub degree 3
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        inst = build_spanner_instance(g, 2, max_degree("inout"))
        sol = solve_cluster_cp(inst, range(4))
        assert sol.value == pytest.approx(3.0, abs=1e-9)

    def test_scaling_linear_objective(self):
        # scaling every flow requirement by c scales the edge-count optimum
        # by exactly c (the program is positively homogeneous)
        rng = np.random.default_rng(18)
        for seed in range(4):
            g = gen_gnp(9, 0.35, seed=20 + seed)
            if g.m == 0:
                continue
            inst = build_spanner_instance(g, 2)
            problem, scope, dids = build_cluster_cp(inst, range(g.n))
            base = solve_lp(problem).objective
            c = float(rng.uniform(0.2, 0.9))
            # the '>=' rows are the demand rows, whose lower bound is finite
            problem.row_lower = problem.row_lower * c
            scaled = solve_lp(problem).objective
            assert scaled == pytest.approx(c * base, rel=1e-9, abs=1e-9)

    def test_pnorm_infinity_solved_as_lp(self):
        g = Graph(3, [(0, 1), (0, 2), (2, 1)])
        inst = build_dsn_instance(g, [(0, 1, 2)], p_norm(math.inf))
        sol = solve_cluster_cp(inst, range(3))
        # split flow 2/3 direct, 1/3 detour equalizes at 2/3... verify by grid
        best = min(
            max(f1, 1 - f1)
            for f1 in np.linspace(0, 1, 2001)
        )
        assert sol.value == pytest.approx(best, abs=1e-6)

    def test_pnorm_two_cutting_planes(self):
        g = Graph(3, [(0, 1), (0, 2), (2, 1)])
        inst = build_dsn_instance(g, [(0, 1, 2)], p_norm(2))
        sol = solve_cluster_cp(inst, range(3))
        grid = min(
            math.sqrt(f1**2 + 2 * (1 - f1) ** 2)
            for f1 in np.linspace(0, 1, 20001)
        )
        assert sol.value == pytest.approx(grid, abs=1e-4)


class TestFeasibility:
    def test_all_ones_feasible(self):
        g = gen_gnp(10, 0.3, seed=16)
        inst = build_spanner_instance(g, 2)
        rep = check_feasibility(inst, np.ones(g.m))
        assert rep.feasible

    def test_zero_infeasible_with_witness(self):
        g = Graph(2, [(0, 1)])
        inst = build_spanner_instance(g, 1)
        rep = check_feasibility(inst, np.zeros(1))
        assert not rep.feasible
        assert rep.demand_flow[0] == pytest.approx(0.0)

    def test_bottleneck_half(self):
        g = Graph(3, [(0, 1), (1, 2)])
        inst = build_dsn_instance(g, [(0, 2, 2)])
        rep = check_feasibility(inst, np.array([0.5, 0.5]))
        assert not rep.feasible
        assert rep.demand_flow[0] == pytest.approx(0.5)

    def test_oracle_solution_is_feasible(self):
        g = gen_gnp(12, 0.3, seed=17)
        inst = build_spanner_instance(g, 2)
        sol = solve_global_oracle(inst)
        assert check_feasibility(inst, sol.x, tol=1e-7).feasible

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        g = Graph(3, [(0, 1), (1, 2)])
        inst = build_dsn_instance(g, [(0, 2, 2)])
        with pytest.raises(GraphError, match="non-finite"):
            check_feasibility(inst, np.array([1.0, bad]))

    def test_no_demands_feasible(self):
        g = Graph(2, [(0, 1)])
        inst = build_dsn_instance(g, [])
        rep = check_feasibility(inst, np.zeros(1))
        assert rep.feasible
        assert rep.demand_flow.shape == (0,)

    def test_one_solve_per_certificate(self, monkeypatch):
        calls = []

        def counted(problem):
            calls.append(problem.var_names)
            return solve_lp(problem)

        monkeypatch.setattr(lp, "solve_lp", counted)
        g = gen_gnp(10, 0.3, seed=16)
        rep = check_feasibility(build_spanner_instance(g, 2), np.ones(g.m))
        assert rep.feasible and calls == []  # every path is saturated
        # no path is saturated at x = 0.9, so the families whose paths share
        # an edge stay open, and one LP holds their paths
        inst = FEASIBILITY_INSTANCES["gnp-k3"]()
        x = np.full(inst.graph.m, 0.9)
        left = [i for i, done in enumerate(settled(inst, x)) if not done]
        assert 0 < len(left) < len(inst.demands)
        assert not check_feasibility(inst, x).feasible
        assert calls == [[f"f_{i}_{j}" for i in left
                          for j in range(len(inst.family_edges[i]))]]


def settled(instance, x):
    """Per demand, whether the certificate settles it without an LP: some
    allowed path has every x_e >= 1, or its paths share no edge."""
    return [any(all(x[e] >= 1 for e in path) for path in fam)
            or len({e for path in fam for e in path}) == sum(map(len, fam))
            for fam in instance.family_edges]


def per_demand_max_flow(instance, x):
    """Reference certificate: one max-flow LP per demand."""
    flows = []
    for fam_edges in instance.family_edges:
        k = len(fam_edges)
        problem = LpProblem([f"f_{j}" for j in range(k)], {j: -1.0 for j in range(k)})
        for e in sorted({e for path in fam_edges for e in path}):
            uses = {j: 1.0 for j, path in enumerate(fam_edges) if e in path}
            problem.add_row(uses, "<=", float(x[e]))
        problem.add_row({j: 1.0 for j in range(k)}, "<=", 1.0)
        flows.append(-solve_lp(problem).objective)
    return np.array(flows)


FEASIBILITY_INSTANCES = {
    "gnp-k2": lambda: build_spanner_instance(gen_gnp(12, 0.3, seed=17), 2),
    "gnp-k3": lambda: build_spanner_instance(gen_gnp(10, 0.3, seed=5), 3),
    "dsn": lambda: generate_instance(
        ExperimentConfig(problem="dsn", gen="gnp", n=14, p=0.35), seed=3)[1],
}


class TestBlockCertificate:
    """The block LP against one LP per demand, on shared-edge families."""

    @pytest.mark.parametrize("name", sorted(FEASIBILITY_INSTANCES))
    def test_matches_per_demand_reference(self, name):
        inst = FEASIBILITY_INSTANCES[name]()
        opt = solve_global_oracle(inst).x
        rng = np.random.default_rng(23)
        for x in (opt, 0.5 * opt, rng.random(inst.graph.m)):
            ref = per_demand_max_flow(inst, x)
            rep = check_feasibility(inst, x)
            assert rep.demand_flow.shape == ref.shape
            assert np.max(np.abs(rep.demand_flow - ref)) <= 1e-12
            assert rep.feasible == bool(np.all(ref >= 1 - 1e-9))
        assert check_feasibility(inst, opt).feasible
        assert not check_feasibility(inst, 0.5 * opt).feasible
        # the blocks couple through x: some edge caps paths of two demands
        users = [{e for path in fam for e in path} for fam in inst.family_edges]
        assert any(a & b for a, b in itertools.combinations(users, 2))

    def test_paths_share_edges_within_a_demand(self):
        inst = FEASIBILITY_INSTANCES["gnp-k3"]()
        assert any(set(p) & set(q) for fam in inst.family_edges
                   for p, q in itertools.combinations(fam, 2))


@st.composite
def certificate_cases(draw):
    """A spanner (k = 2 or 3) or dsn instance and an edge vector with exact
    1.0 entries, exact zeros and values on both sides of 1. Drawn values
    stay above 1e-6: `_solve_highs` snaps path flows below 1e-9 to zero, so
    the per-demand LP would read a flow of 1e-12 as 0."""
    g = gen_gnp(draw(st.integers(3, 9)), draw(st.sampled_from([0.3, 0.5])),
                seed=draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from([2, 3, "dsn"]))
    if kind == "dsn":
        try:
            inst = build_dsn_instance(g, sample_spanning_demands(g, draw(st.integers(0, 1000))))
        except HarnessError:  # some node reaches nothing
            inst = build_spanner_instance(g, 3)
    else:
        inst = build_spanner_instance(g, kind)
    value = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0]), st.floats(1e-6, 1.5))
    return inst, np.array(draw(st.lists(value, min_size=g.m, max_size=g.m)))


class TestScreenedCertificate:
    """The closed forms and the LP over the demands left, against one LP
    per demand, and planted defects that a screen settling the wrong
    demand would miss."""

    @settings(max_examples=60, deadline=None)
    @given(case=certificate_cases())
    def test_matches_per_demand_max_flow(self, case):
        inst, x = case
        ref = per_demand_max_flow(inst, x)
        rep = check_feasibility(inst, x)
        assert rep.demand_flow.shape == ref.shape
        assert np.max(np.abs(rep.demand_flow - ref), initial=0.0) <= 1e-12
        assert rep.feasible == bool(np.all(ref >= 1 - 1e-9))

    def test_planted_cut_on_the_only_saturated_path(self, monkeypatch):
        # x = 1 except 0 on the edges of demand i's other paths, so path p
        # is i's only saturated one; then one edge of p drops to 1 - delta
        inst, delta = FEASIBILITY_INSTANCES["dsn"](), 1e-3
        found = None
        for i, fam in enumerate(inst.family_edges):
            if not any(set(p) & set(q) for p, q in itertools.combinations(fam, 2)):
                continue
            for p in fam:
                x = np.ones(inst.graph.m)
                x[[e for q in fam for e in q if e not in p]] = 0.0
                x[p[0]] = 1 - delta
                ref = per_demand_max_flow(inst, x)
                others = np.delete(ref, i)
                if abs(ref[i] - (1 - delta)) <= 1e-12 and np.all(others >= 1 - 1e-9):
                    found = i, x, ref
                    break
            if found:
                break
        else:
            pytest.fail("no shared-edge demand whose one path can be cut alone")
        i, x, ref = found
        calls = []

        def counted(problem):
            calls.append(problem.var_names)
            return solve_lp(problem)

        monkeypatch.setattr(lp, "solve_lp", counted)
        rep = check_feasibility(inst, x)
        assert not rep.feasible
        assert np.max(np.abs(rep.demand_flow - ref)) <= 1e-12
        assert len(calls) == 1 and f"f_{i}_0" in calls[0]  # through the LP
        x[p[0]] = 1.0
        assert check_feasibility(inst, x).feasible

    def test_planted_bottlenecks_below_one(self, monkeypatch):
        # k = 2 families are parallel paths: the first edge of each of
        # demand i's paths gets (1 - delta) / paths, so the bottlenecks sum
        # to 1 - delta
        inst, delta = FEASIBILITY_INSTANCES["gnp-k2"](), 1e-3
        for i, fam in enumerate(inst.family_edges):
            x = np.ones(inst.graph.m)
            x[[p[0] for p in fam]] = (1 - delta) / len(fam)
            ref = per_demand_max_flow(inst, x)
            if len(fam) > 1 and np.all(np.delete(ref, i) >= 1 - 1e-9):
                break
        else:
            pytest.fail("no demand whose bottlenecks can be lowered alone")
        monkeypatch.setattr(lp, "solve_lp", None)  # closed forms only
        rep = check_feasibility(inst, x)
        assert not rep.feasible
        assert rep.demand_flow[i] == pytest.approx(1 - delta, abs=1e-12)
        assert np.max(np.abs(rep.demand_flow - ref)) <= 1e-12


class TestLpDump:
    def test_dump_format(self, tmp_path):
        g = Graph(3, [(0, 1), (0, 2), (2, 1)])
        inst = build_dsn_instance(g, [(0, 1, 2)])
        problem, _, _ = build_cluster_cp(inst, range(3))
        path = tmp_path / "prob.lp"
        dump_lp(problem, str(path))
        text = path.read_text()
        assert text.startswith("\\ padspan LP dump")
        assert "Minimize" in text and "Subject To" in text and "End" in text
        assert "x_0" in text and "f_0_0" in text


class TestLpProblemArrays:
    def test_rows_view_of_csr(self):
        p = LpProblem(["a", "b", "c"], {0: 1.0})
        p.add_row({2: 1.5, 0: -1.0}, "<=", 4)
        p.add_row({}, ">=", -1.0)
        p.add_row({1: 2.0}, ">=", 0.5)
        assert p.start.tolist() == [0, 2, 2, 3]
        assert p.index.tolist() == [2, 0, 1]
        assert p.value.tolist() == [1.5, -1.0, 2.0]
        assert p.row_lower.tolist() == [-np.inf, -1.0, 0.5]
        assert p.row_upper.tolist() == [4.0, np.inf, np.inf]
        assert p.start.dtype == p.index.dtype == np.int32
        assert p.num_rows == 3
        assert p.rows == (({2: 1.5, 0: -1.0}, "<=", 4.0), ({}, ">=", -1.0),
                          ({1: 2.0}, ">=", 0.5))
        assert list(p.rows[0][0]) == [2, 0]  # entry order kept

    def test_bad_sense_rejected(self):
        p = LpProblem(["a"], {})
        with pytest.raises(LpError, match="unsupported row sense"):
            p.add_row({0: 1.0}, "==", 1.0)
        assert p.num_rows == 0

    def test_demand_free_cluster_builds_no_lp(self, monkeypatch):
        g = Graph(3, [(0, 1), (0, 2), (2, 1)])

        def no_build(*args, **kwargs):
            raise AssertionError("built an LP for a cluster without demands")

        monkeypatch.setattr(lp, "build_cluster_cp", no_build)
        for obj in (None, p_norm(2)):
            inst = build_spanner_instance(g, 2, obj)
            for demands in ([], None):
                sol = solve_cluster_cp(inst, [1], demand_indices=demands)
                assert sol.value == 0.0 and sol.flows == {} and sol.demand_indices == ()
                assert sol.x.tolist() == [0.0] * g.m


@st.composite
def lp_cases(draw):
    """A small instance, objective and cluster, and an edge vector."""
    n = draw(st.integers(3, 8))
    g = gen_gnp(n, draw(st.sampled_from([0.3, 0.5])), seed=draw(st.integers(0, 10**6)),
                directed=draw(st.booleans()))
    obj = draw(st.sampled_from([None, max_degree("out"), max_degree("in"),
                                max_degree("inout"), p_norm(math.inf), p_norm(1)]))
    if draw(st.booleans()):
        inst = build_spanner_instance(g, draw(st.integers(1, 3)), obj)
    else:
        try:
            demands = sample_spanning_demands(g, draw(st.integers(0, 1000)))
            inst = build_dsn_instance(g, demands, obj)
        except HarnessError:  # some node reaches nothing
            inst = build_spanner_instance(g, 2, obj)
    cluster = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    x = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.5]),
                               min_size=g.m, max_size=g.m)))
    return inst, cluster, x


def rows_in_order(problem):
    return [(list(coeffs.items()), sense, rhs) for coeffs, sense, rhs in problem.rows]


def dumped(problem):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.lp"
        dump_lp(problem, str(path))
        return path.read_bytes()


class TestArrayRowsMatchDictReference:
    """The vectorised cluster and feasibility LPs against the row-by-row,
    dict-built reference: the same bytes from dump_lp, and the same rows in
    the same entry order."""

    @settings(max_examples=150, deadline=None)
    @given(case=lp_cases())
    def test_cluster_lp(self, case):
        inst, cluster, _ = case
        for demands in (None, list(range(len(inst.demands)))):
            try:
                want = dict_cluster_cp(inst, cluster, demands)
            except LpError as exc:
                with pytest.raises(LpError, match=re.escape(str(exc))):
                    build_cluster_cp(inst, cluster, demands)
                continue
            got = build_cluster_cp(inst, cluster, demands)
            assert got[1:] == want[1:]
            assert got[0].var_names == want[0].var_names
            assert got[0].objective == want[0].objective
            assert rows_in_order(got[0]) == rows_in_order(want[0])
            assert dumped(got[0]) == dumped(want[0])

    @settings(max_examples=100, deadline=None)
    @given(case=lp_cases())
    def test_feasibility_lp(self, case):
        inst, _, x = case
        seen = []

        def record(problem):
            seen.append(problem)
            return solve_lp(problem)

        with mock.patch.object(lp, "solve_lp", record):
            check_feasibility(inst, x)
        left = [i for i, done in enumerate(settled(inst, x)) if not done]
        if not left:
            assert seen == []
            return
        want = dict_feasibility_lp(inst, x, left)
        assert len(seen) == 1
        assert seen[0].var_names == want.var_names
        assert seen[0].objective == want.objective
        assert rows_in_order(seen[0]) == rows_in_order(want)
        assert dumped(seen[0]) == dumped(want)
