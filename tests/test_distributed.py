import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from padspan import distributed
from padspan.cp import build_spanner_instance, evaluate_objective
from padspan.decomposition import (
    PaddedParams, carve, draw_radii, padded_mask,
    sample_decomposition_centralized,
)
from padspan.distributed import (
    AssemblyError,
    ConfigError,
    NoCertificateError,
    SolverConfig,
    cached_global_oracle,
    concentration_report,
    implied_flow,
    round_bound,
    solve_distributed,
)
from padspan.graphs import Graph, restrict
from padspan.harness import (
    ExperimentConfig, HarnessError, gen_gnp, gen_grid, generate_instance,
)
from padspan.localsim import ProtocolError, ProtocolTimeout, RoundTranscript
from padspan.lp import CpSolution, check_feasibility, solve_global_oracle

import solver_reference


class TestConfig:
    def test_epsilon_open_interval(self):
        with pytest.raises(ConfigError):
            SolverConfig(epsilon=0.0, seed=1)
        with pytest.raises(ConfigError):
            SolverConfig(epsilon=1.0, seed=1)

    def test_lambda_formula(self):
        c = SolverConfig(epsilon=0.5, seed=0)
        e = 0.5
        assert c.lam == pytest.approx(e * (1 - e) / ((2 - e) * (1 + e)))
        assert 0 < c.lam < 1

    def test_iteration_formula(self):
        c = SolverConfig(epsilon=0.5, seed=0)
        e = 0.5
        expected = math.ceil(16 * (1 - e / 2) * (1 + e) * math.log(16) / e**2)
        assert c.iterations(16) == expected

    def test_override(self):
        assert SolverConfig(epsilon=0.5, seed=0, t_override=7).iterations(100) == 7

    @pytest.mark.parametrize("t", [0, -1])
    def test_override_below_one_rejected(self, t):
        with pytest.raises(ConfigError, match="t_override"):
            SolverConfig(epsilon=0.5, seed=0, t_override=t)

    def test_non_integer_override_rejected(self):
        # a float count reached `rng_uniforms` and failed there untyped
        with pytest.raises(ConfigError, match="t_override 2.5 is not an integer"):
            SolverConfig(epsilon=0.5, seed=1, t_override=2.5)


def small_run(seed=3, eps=0.5, n=12, t=40):
    g = gen_gnp(n, 0.3, seed=seed)
    inst = build_spanner_instance(g, 2)
    cfg = SolverConfig(epsilon=eps, seed=seed, t_override=t)
    return g, inst, cfg, solve_distributed(inst, cfg)


class TestSolveDistributed:
    def test_no_demands_yields_zero(self):
        g = Graph(3, [(0, 1), (1, 2)])
        from padspan.cp import linear_sum
        from paths_reference import instance_from_families
        inst0 = instance_from_families(graph=g, demands=(), families=(),
                                       objective=linear_sum())
        run = solve_distributed(inst0, SolverConfig(epsilon=0.5, seed=1))
        assert run.solution.value == 0.0
        assert np.all(run.solution.x == 0)
        assert run.records == []

    def test_upper_bound_and_feasibility(self):
        g, inst, cfg, run = small_run()
        oracle = solve_global_oracle(inst)
        assert run.solution.value <= (1 + cfg.epsilon) * oracle.value + 1e-6
        rep = concentration_report(run, inst)
        if rep.all_pass:
            assert check_feasibility(inst, run.solution.x, tol=1e-9).feasible

    def test_single_cluster_degenerate(self):
        # epsilon small enough that lambda makes every radius huge: every
        # iteration one cluster, so the solution is min(1, (1+eps) x*)
        g = gen_gnp(10, 0.4, seed=5)
        inst = build_spanner_instance(g, 2)
        cfg = SolverConfig(epsilon=0.05, seed=2, t_override=5)
        run = solve_distributed(inst, cfg)
        for rec in run.records:
            assert len(rec.clustering.centers) == 1
            assert rec.padded.all()
        oracle = solve_global_oracle(inst)
        expect = np.minimum(1.0, (1 + cfg.epsilon) * oracle.x)
        assert np.allclose(run.solution.x, expect, atol=1e-9)

    def test_determinism_bit_for_bit(self):
        _, _, _, run1 = small_run(seed=9, t=25)
        _, _, _, run2 = small_run(seed=9, t=25)
        assert np.array_equal(run1.solution.x, run2.solution.x)
        assert run1.transcript.phase_rounds == run2.transcript.phase_rounds
        assert run1.transcript.total_messages == run2.transcript.total_messages

    def test_round_bound(self):
        g, inst, cfg, run = small_run(seed=4, t=30)
        assert run.transcript.rounds_elapsed <= round_bound(cfg, g.n, inst.D)

    def test_records_match_centralized_sampler(self):
        # the bundled flood must reproduce the centralized carving per
        # iteration when the permutation is id order and seeds match
        g, inst, cfg, run = small_run(seed=6, t=12)
        params = PaddedParams(k=inst.D, epsilon=cfg.lam, n=g.n)
        for rec in run.records:
            ref = sample_decomposition_centralized(
                g, params, cfg.seed, iteration=rec.index, permutation="ids"
            )
            assert np.array_equal(rec.clustering.assignment, ref.assignment)

    def test_iteration_bookkeeping_subset(self):
        g, inst, cfg, run = small_run(seed=7, t=15)
        for rec in run.records:
            for e, (u, v) in enumerate(g.edges):
                if rec.padded[u]:
                    assert rec.edge_same[e]

    def test_per_iteration_domination(self):
        # cost of each iteration's cross-cluster-zeroed vector never beats
        # the global optimum (cluster optima vs restricted global pieces)
        g, inst, cfg, run = small_run(seed=8, t=10)
        opt = solve_global_oracle(inst)
        for rec in run.records:
            for center, members in rec.clustering.clusters().items():
                clu_val = rec.solutions[center].value
                bound = evaluate_objective(
                    inst.objective, restrict(opt.x, members, g), g
                )
                assert clu_val <= bound + 1e-9
            # full chain: the assembled per-iteration vector (cluster
            # solutions inside, zero across) costs at most the optimum
            x_iter = np.zeros(g.m)
            for e, (u, v) in enumerate(g.edges):
                if rec.edge_same[e]:
                    sol = rec.solutions[rec.clustering.cluster_of(u)]
                    x_iter[e] = sol.x[e]
            assert evaluate_objective(inst.objective, x_iter, g) <= (
                opt.value + 1e-9
            )

    def test_gathered_demands_match_ball_predicate(self):
        # the protocol's padded-source reports must reproduce the
        # centralized "ball inside cluster" demand selection exactly
        g, inst, cfg, run = small_run(seed=19, t=8)
        from padspan.lp import cluster_demands
        for rec in run.records:
            for center, members in rec.clustering.clusters().items():
                sol = rec.solutions[center]
                assert list(sol.demand_indices) == cluster_demands(inst, members)

    def test_cached_oracle_consistency(self):
        g = gen_gnp(10, 0.35, seed=10)
        inst = build_spanner_instance(g, 2)
        cfg = SolverConfig(epsilon=0.5, seed=3, t_override=20)
        cache = {}
        run = solve_distributed(inst, cfg, lp_cache=cache)
        cached = cached_global_oracle(inst, cache)
        fresh = solve_global_oracle(inst)
        assert cached.value == pytest.approx(fresh.value, abs=1e-9)


def random_run(problem, n, p, seed, t):
    """A small seeded instance as the harness builds it, solved with t
    iterations. A graph on which some node reaches nothing has no spanning
    DSN demands, and is drawn again."""
    config = ExperimentConfig(problem=problem, gen="gnp", n=n, p=p, k=2,
                              epsilon=0.5, seed=seed)
    try:
        g, inst = generate_instance(config, seed)
    except HarnessError:
        reject()
    run = solve_distributed(
        inst, SolverConfig(epsilon=0.5, seed=seed, t_override=t))
    return g, inst, run


RANDOM_RUNS = dict(
    problem=st.sampled_from(["directed-spanner", "low-degree-spanner", "dsn"]),
    n=st.integers(4, 10),
    p=st.sampled_from([0.25, 0.4, 0.6]),
    seed=st.integers(0, 2**16),
    t=st.integers(1, 12),
)


class TestProperties:
    """The solver's guarantees on small random instances, where the
    acceptance tests and `TestCertificates` check one fixed run each."""

    @settings(max_examples=25, deadline=None)
    @given(**RANDOM_RUNS)
    def test_cluster_optimum_at_most_restricted_global(self, problem, n, p,
                                                       seed, t):
        g, inst, run = random_run(problem, n, p, seed, t)
        opt = solve_global_oracle(inst)
        for rec in run.records:
            for center, members in rec.clustering.clusters().items():
                sol = rec.solutions.get(center)
                if sol is None:
                    continue
                bound = evaluate_objective(
                    inst.objective, restrict(opt.x, members, g), g)
                assert sol.value <= bound + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(**RANDOM_RUNS)
    def test_implied_flow_within_capped_average(self, problem, n, p, seed,
                                                t):
        g, inst, run = random_run(problem, n, p, seed, t)
        rep = concentration_report(run, inst)
        for di, d in enumerate(inst.demands):
            if not rep.passed[d.u]:
                continue
            flow = implied_flow(run, inst, di)
            assert flow.sum() >= 1 - 1e-9
            load = np.zeros(g.m)
            for j, edges in enumerate(inst.family_edges[di]):
                for e in edges:
                    load[e] += flow[j]
            assert np.all(load <= run.solution.x + 1e-9)


class TestCertificates:
    def test_implied_flow_ships_unit(self):
        g, inst, cfg, run = small_run(seed=11, t=30)
        rep = concentration_report(run, inst)
        for di in range(len(inst.demands)):
            d = inst.demands[di]
            if rep.counts[d.u] == 0:
                continue
            flow = implied_flow(run, inst, di)
            assert flow.sum() >= 1 - 1e-9

    def test_implied_flow_respects_capacities_under_concentration(self):
        g, inst, cfg, run = small_run(seed=12, t=40)
        rep = concentration_report(run, inst)
        t = len(run.records)
        for di, d in enumerate(inst.demands):
            if not rep.passed[d.u]:
                continue
            flow = implied_flow(run, inst, di)
            load = np.zeros(g.m)
            for j, edges in enumerate(inst.family_edges[di]):
                for e in edges:
                    load[e] += flow[j]
            assert np.all(load <= run.solution.x + 1e-9)

    def test_averaging_identical_flows(self):
        # single-cluster degenerate: every iteration stores the same flows,
        # so the certificate equals that common flow
        g = gen_gnp(8, 0.5, seed=13)
        inst = build_spanner_instance(g, 2)
        cfg = SolverConfig(epsilon=0.05, seed=4, t_override=4)
        run = solve_distributed(inst, cfg)
        base = run.records[0].solutions[run.records[0].clustering.cluster_of(0)]
        flow0 = implied_flow(run, inst, 0)
        assert np.allclose(flow0, base.flows[0])

    def test_t_equal_one(self):
        g = gen_gnp(8, 0.5, seed=14)
        inst = build_spanner_instance(g, 2)
        cfg = SolverConfig(epsilon=0.5, seed=5, t_override=1)
        run = solve_distributed(inst, cfg)
        assert len(run.records) == 1

    def test_no_certificate_error(self):
        g, inst, cfg, run = small_run(seed=15, t=5)
        # forge a run where node u was never padded
        for rec in run.records:
            rec.padded[:] = False
        with pytest.raises(NoCertificateError):
            implied_flow(run, inst, 0)

    def test_concentration_report_fields(self):
        g, inst, cfg, run = small_run(seed=16, t=20)
        rep = concentration_report(run, inst)
        assert rep.threshold == pytest.approx(20 / 1.5)
        assert set(rep.counts) == {d.u for d in inst.demands}
        assert rep.pass_fraction == pytest.approx(
            sum(rep.passed.values()) / len(rep.passed)
        )

    def test_concentration_counts_are_padded_iterations(self):
        g, inst, cfg, run = small_run(seed=16, t=20)
        rep = concentration_report(run, inst)
        assert rep.counts == {
            u: sum(int(rec.padded[u]) for rec in run.records)
            for u in sorted({d.u for d in inst.demands})}

    def test_radii_equal_per_iteration_draws(self):
        # the solver draws all t iterations' radii in one array pass; they
        # must equal one `draw_radii` call per iteration, stacked
        g, inst, cfg, run = small_run(seed=5, t=30)
        params = PaddedParams(k=inst.D, epsilon=cfg.lam, n=g.n)
        per_iteration = np.stack(
            [draw_radii(params, cfg.seed, i) for i in range(30)])
        got = np.stack([rec.clustering.radii for rec in run.records])
        assert np.array_equal(got, per_iteration)

    def test_all_pass_when_single_cluster(self):
        g = gen_gnp(8, 0.5, seed=17)
        inst = build_spanner_instance(g, 2)
        cfg = SolverConfig(epsilon=0.05, seed=6, t_override=3)
        run = solve_distributed(inst, cfg)
        rep = concentration_report(run, inst)
        assert rep.all_pass
        assert all(c == 3 for c in rep.counts.values())


def records_digest(run):
    """sha256 of canonical JSON of each record's assignment, padding and
    same-cluster edges, plus the transcript counters (integers and booleans
    only, so the digest is the same on every platform)."""
    doc = {
        "records": [
            [rec.clustering.assignment.tolist(), rec.padded.tolist(),
             rec.edge_same.tolist()]
            for rec in run.records
        ],
        "phase_rounds": run.transcript.phase_rounds,
        "total_messages": run.transcript.total_messages,
        "max_payload_scalars": run.transcript.max_payload_scalars,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# (graph, stretch, solver seed, iterations): a sparse directed gnp whose
# clusterings split into several clusters, an undirected grid, and t = 1
RECORD_CASES = {
    "gnp-k2": (lambda: gen_gnp(20, 0.1, seed=2), 2, 2, 12),
    "grid": (lambda: gen_grid(6, 6), 3, 5, 12),
    "t1": (lambda: gen_grid(6, 6), 3, 2, 1),
}

RECORD_PINS = {
    "gnp-k2": "60012acde1d2589b895e3921df0ced8763aa1fdd024a27dc84ca5d533d607b30",
    "grid": "404587a528ac8b4a66003ace4d276684bb7fde95ae035a6b3518b14148535f7d",
    # depends on which optimal vertex the LP kernel returns: HiGHS' vertex of
    # the t1 cluster LP sets max_payload_scalars to 157
    "t1": "9175baac8ee59393acfc784a616d50a9089b88117c49a801d135a3aa6ac45c27",
}


class TestRecords:
    @pytest.fixture(scope="class", params=sorted(RECORD_CASES))
    def case(self, request):
        make, k, seed, t = RECORD_CASES[request.param]
        g = make()
        inst = build_spanner_instance(g, k)
        run = solve_distributed(
            inst, SolverConfig(epsilon=0.5, seed=seed, t_override=t))
        return request.param, g, inst, run

    def test_padding_matches_central_test(self, case):
        # the padding the nodes decided is exactly the central ball test
        _, g, inst, run = case
        for rec in run.records:
            ref = padded_mask(g, rec.clustering.assignment[None], inst.D)[0]
            assert np.array_equal(rec.padded, ref)

    def test_average_matches_edge_loop(self, case):
        # reference: per edge, sum x_e over the shared iterations in order
        _, g, _, run = case
        t = len(run.records)
        for e, (u, v) in enumerate(g.edges):
            total = 0.0
            for rec in run.records:
                if rec.edge_same[e]:
                    total += rec.solutions[rec.clustering.cluster_of(u)].x[e]
            expect = min(1.0, (1 + run.config.epsilon) / t * total)
            assert run.solution.x[e] == expect

    def test_records_pinned(self, case):
        name, _, _, run = case
        assert records_digest(run) == RECORD_PINS[name]


def run_both(array_call, reference_call):
    """Run an array phase and its reference. Both must return, or both time
    out with the same message; returns the two results, or None."""
    out = []
    for call in (array_call, reference_call):
        try:
            out.append(call())
        except ProtocolTimeout as exc:
            out.append(exc)
    got, want = out
    if isinstance(got, ProtocolTimeout) or isinstance(want, ProtocolTimeout):
        assert type(got) is type(want) and str(got) == str(want)
        return None
    return got, want


def stand_in_solutions(gathered, n, t):
    """One solution per gathered cluster, of sizes that vary with the
    cluster, keyed the way `_solve_clusters` keys them."""
    sols, per_iteration = [], [dict() for _ in range(t)]
    for k, key in enumerate(gathered.key.tolist()):
        x = np.zeros(4)
        x[:k % 4] = 1.0
        flows = {d: np.ones(k % 3 + 1) for d in range(k % 2 + 1)}
        sols.append(CpSolution(x, flows, 0.0, 0.0, ()))
        i, c = divmod(key, n)
        per_iteration[i][c] = sols[-1]
    return sols, per_iteration


def assert_phases_match_reference(g, params, radii, sources, phase_params=None):
    """Probe, gather and broadcast against the per-node reference on the
    engine, each phase from a fresh transcript: rounds, messages, payload,
    padding, gathered members and demands, deliveries and timeouts.
    `phase_params` (default `params`) sets gather's and broadcast's
    decide_round, so a smaller one forces their timeouts. Returns the phase
    that timed out, or None."""
    phase_params = phase_params or params
    t, n = radii.shape
    D = params.k
    floods, centers = carve(g, params, radii, RoundTranscript())
    assign = np.ascontiguousarray(centers.T)
    states = solver_reference.node_states(floods, centers)
    demands_at = {}
    for di, u in enumerate(sources.tolist()):
        demands_at.setdefault(u, []).append(di)

    got_t, want_t = RoundTranscript(), RoundTranscript()
    padded = distributed._phase_probe(g, assign, D, got_t)
    solver_reference._phase_probe(g, states, D, t, want_t)
    assert got_t == want_t

    got_t, want_t = RoundTranscript(), RoundTranscript()
    both = run_both(
        lambda: distributed._phase_gather(
            phase_params, floods, assign, padded, sources, got_t),
        lambda: solver_reference._phase_gather(
            g, phase_params, states, t, demands_at, want_t))
    assert got_t == want_t
    assert np.array_equal(padded, np.stack([st.padded for st in states], axis=1))
    if both is None:
        return "gather"
    gathered, want = both
    got = [dict() for _ in range(t)]
    for k, key in enumerate(gathered.key.tolist()):
        i, c = divmod(key, n)
        members = gathered.members[gathered.member_ptr[k]:gathered.member_ptr[k + 1]]
        dids = gathered.demands[gathered.demand_ptr[k]:gathered.demand_ptr[k + 1]]
        got[i][c] = (members.tolist(), dids.tolist())
    assert got == [
        {c: (sorted(b["members"]), sorted(b["demands"])) for c, b in it.items()}
        for it in want]

    sols, per_iteration = stand_in_solutions(gathered, n, t)
    payload = np.array([distributed._solution_size(sol) for sol in sols])
    got_t, want_t = RoundTranscript(), RoundTranscript()
    both = run_both(
        lambda: distributed._phase_broadcast(
            phase_params, assign, gathered, payload, got_t),
        lambda: solver_reference._phase_broadcast(
            g, phase_params, states, t, per_iteration, want_t))
    assert got_t == want_t
    if both is None:
        return "solve-broadcast"
    delivered = both[0]
    for u, st_u in enumerate(states):
        for i in range(t):
            k = int(delivered[i, u])
            assert (sols[k] if k >= 0 else None) is st_u.solutions.get(i)
    return None


class TestArrayPhases:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        grid=st.booleans(),
        directed=st.booleans(),
        k=st.sampled_from([0, 1, 2, 3]),
        epsilon=st.sampled_from([0.25, 0.5, 1.0]),
        t=st.integers(min_value=1, max_value=5),
        phase_k=st.sampled_from([None, 0, 1]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_match_reference(self, data, grid, directed, k, epsilon, t,
                             phase_k, seed):
        if grid:
            g = gen_grid(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
        else:
            g = gen_gnp(data.draw(st.integers(1, 16)),
                        data.draw(st.sampled_from([0.1, 0.25, 0.5])),
                        seed=seed, directed=directed)
        n = g.n
        params = PaddedParams(k=k, epsilon=epsilon, n=n)
        radii = np.stack([draw_radii(params, seed, i) for i in range(t)])
        sources = np.array(data.draw(st.lists(
            st.integers(0, n - 1), max_size=2 * n)), dtype=np.int64)
        phase_params = None if phase_k is None else PaddedParams(
            k=phase_k, epsilon=1.0, n=n)
        assert_phases_match_reference(g, params, radii, sources, phase_params)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        grid=st.booleans(),
        k=st.sampled_from([1, 2, 3]),
        t=st.integers(min_value=1, max_value=9),
        cells=st.sampled_from([1, 7, 40]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_probe_blocks_match_one_block(self, data, grid, k, t, cells, seed):
        # blocks of a few pairs, down to one node's pairs, decide the same
        # padding as one block of every pair
        if grid:
            g = gen_grid(data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)))
        else:
            g = gen_gnp(data.draw(st.integers(1, 20)),
                        data.draw(st.sampled_from([0.1, 0.25, 0.5])), seed=seed)
        params = PaddedParams(k=k, epsilon=0.5, n=g.n)
        radii = np.stack([draw_radii(params, seed, i) for i in range(t)])
        assign = np.ascontiguousarray(carve(g, params, radii, RoundTranscript())[1].T)
        whole = distributed._phase_probe(g, assign, k, RoundTranscript())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distributed, "_PROBE_CELLS", cells)
            blocked = distributed._phase_probe(g, assign, k, RoundTranscript())
        assert np.array_equal(blocked, whole)
        assert np.array_equal(whole, padded_mask(g, assign, k))

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        grid=st.booleans(),
        k=st.sampled_from([0, 1, 2, 3]),
        epsilon=st.sampled_from([0.25, 0.5, 1.0]),
        t=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_gather_trees_are_whole(self, data, grid, k, epsilon, t, seed):
        # what lets the broadcast walk the trees as recorded: every tree
        # edge's parent is the center, at depth 1, or the child of another
        # edge of the same cluster one level up, and no depth passes the
        # rounds the gather charged
        if grid:
            g = gen_grid(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
        else:
            g = gen_gnp(data.draw(st.integers(1, 16)),
                        data.draw(st.sampled_from([0.1, 0.25, 0.5])), seed=seed)
        n = g.n
        params = PaddedParams(k=k, epsilon=epsilon, n=n)
        radii = np.stack([draw_radii(params, seed, i) for i in range(t)])
        floods, centers = carve(g, params, radii, RoundTranscript())
        assign = np.ascontiguousarray(centers.T)
        padded = distributed._phase_probe(g, assign, k, RoundTranscript())
        transcript = RoundTranscript()
        gathered = distributed._phase_gather(
            params, floods, assign, padded, np.arange(n), transcript)
        tree = gathered.cluster.tolist(), gathered.child.tolist()
        depth_of = dict(zip(zip(*tree), gathered.depth.tolist()))
        assert len(depth_of) == len(gathered.child)  # one parent per child
        for c, child, parent, depth in zip(*tree, gathered.parent.tolist(),
                                           gathered.depth.tolist()):
            center = int(gathered.key[c]) % n
            assert child != center
            assert (parent == center and depth == 1
                    or depth_of.get((c, parent)) == depth - 1)
        assert gathered.depth.max(initial=0) <= transcript.phase_rounds["gather"]

    def test_dsn_shape_matches_reference(self):
        # the dsn-gnp shape: n=16 at the paper's t=200, the solver's padding
        # parameter for epsilon=0.5, a length bound of 4 and n/2 demands
        g = gen_gnp(16, 0.35, seed=5)
        params = PaddedParams(k=4, epsilon=SolverConfig(0.5, seed=3).lam, n=16)
        radii = np.stack([draw_radii(params, 3, i) for i in range(200)])
        sources = np.array([0, 2, 3, 5, 8, 8, 11, 14], dtype=np.int64)
        assert_phases_match_reference(g, params, radii, sources)

    def test_gather_timeout_matches_reference(self):
        # a path flooded from node 0 with a cap of 0 at gather: the report
        # of node 5 needs 5 rounds, past max_rounds = 2
        g = Graph(6, [(u, u + 1) for u in range(5)], directed=False)
        params = PaddedParams(k=3, epsilon=1.0, n=6)
        radii = np.zeros((1, 6))
        radii[0, 0] = 5.0
        assert assert_phases_match_reference(
            g, params, radii, np.array([5]),
            PaddedParams(k=0, epsilon=1.0, n=6)) == "gather"

    def test_assemble_reads_the_delivery(self, monkeypatch):
        # drop one tree edge into a node that shares a cluster with a
        # neighbor: that node never gets its solution, and _assemble must
        # notice instead of reading the solution off the centers
        g, inst, cfg, _ = small_run(seed=6, t=6)
        broadcast = distributed._phase_broadcast

        def drop_one_edge(params, assign, gathered, payload, transcript):
            n = g.n
            us = np.array([u for u, _ in g.edges])
            vs = np.array([v for _, v in g.edges])
            for j, (k, w) in enumerate(zip(gathered.cluster.tolist(),
                                           gathered.child.tolist())):
                i, c = divmod(int(gathered.key[k]), n)
                if assign[i, w] == c and (
                        (assign[i, vs[us == w]] == c).any()
                        or (assign[i, us[vs == w]] == c).any()):
                    break
            else:
                pytest.fail("no tree edge into a node with a cluster neighbor")
            keep = np.arange(len(gathered.child)) != j
            pruned = distributed.Gathered(
                gathered.key, gathered.member_ptr, gathered.members,
                gathered.demand_ptr, gathered.demands, gathered.cluster[keep],
                gathered.child[keep], gathered.parent[keep],
                gathered.depth[keep])
            return broadcast(params, assign, pruned, payload, transcript)

        monkeypatch.setattr(distributed, "_phase_broadcast", drop_one_edge)
        with pytest.raises(AssemblyError, match="missing broadcast solution"):
            solve_distributed(inst, cfg)

    def test_endpoint_disagreement_raises(self, monkeypatch):
        # hand one endpoint of an edge inside a cluster another cluster's
        # solution, which differs on that edge: the two ends' averages part
        g, inst, cfg, _ = small_run(seed=6, t=6)
        assemble = distributed._assemble

        def swap_one(instance, config, assign, padded, delivered, solved,
                     radii, transcript):
            sols, sol_of, _ = solved
            x = np.stack([sols[j].x for j in sol_of])  # by cluster
            for i, e in zip(*np.nonzero(assign[:, g.tail] == assign[:, g.head])):
                u = g.tail[e]
                other = np.flatnonzero(x[:, e] != x[delivered[i, u], e])
                if delivered[i, u] >= 0 and len(other):
                    delivered = delivered.copy()
                    delivered[i, u] = other[0]
                    break
            else:
                pytest.fail("no edge whose clusters' solutions differ")
            return assemble(instance, config, assign, padded, delivered,
                            solved, radii, transcript)

        monkeypatch.setattr(distributed, "_assemble", swap_one)
        with pytest.raises(AssemblyError, match="endpoint disagreement"):
            solve_distributed(inst, cfg)

    def test_padding_bookkeeping_raises(self, monkeypatch):
        # call every node padded, while some edge leaves its cluster
        g, inst, cfg, _ = small_run(seed=6, t=6)
        assemble = distributed._assemble

        def all_padded(instance, config, assign, padded, *rest):
            return assemble(instance, config, assign, np.ones_like(padded),
                            *rest)

        monkeypatch.setattr(distributed, "_assemble", all_padded)
        with pytest.raises(AssemblyError, match="padding bookkeeping"):
            solve_distributed(inst, cfg)

    def test_assembly_error_is_a_protocol_error(self):
        # callers that catch RuntimeError or ProtocolError still catch it
        assert issubclass(AssemblyError, ProtocolError)
        assert issubclass(AssemblyError, RuntimeError)
