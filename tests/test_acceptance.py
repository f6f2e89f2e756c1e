"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 runs the full distributed pipeline and stashes its runs so the
round-bound and cluster-inequality criteria can audit the same transcripts
and records. Run order within this file matters for the stash but every test
can also rebuild a minimal fallback when executed alone.
"""

import itertools
import math

import numpy as np
import pytest

from padspan.cp import build_spanner_instance, evaluate_objective, linear_sum, max_degree, p_norm
from padspan.decomposition import (
    PaddedParams,
    padded_frequencies,
    sample_assignments_batch,
    sample_decomposition_centralized,
    sample_decomposition_distributed,
)
from padspan.distributed import (
    SolverConfig,
    cached_global_oracle,
    concentration_report,
    round_bound,
    solve_distributed,
)
from padspan.graphs import restrict
from padspan.harness import (
    ExperimentConfig,
    gen_cycle,
    gen_gnp,
    gen_grid,
    generate_instance,
    report_files,
    run_experiment,
)
from padspan.lp import check_feasibility, solve_lp
from padspan.rounding import round_spanner_distributed, verify_stretch

from lp_reference import le_problem, vertex_enum_min

_STASH: dict = {}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def _padding_graphs():
    return [
        ("cycle32", gen_cycle(32, directed=False)),
        ("grid6x6", gen_grid(6, 6)),
        ("gnp32", gen_gnp(32, 0.2, seed=104729, directed=False)),
    ]


def test_criterion_1_padding_probability():
    samples = 2000
    worst = []
    ok_all = True
    assignments_store = {}
    for name, g in _padding_graphs():
        for k, eps in ((1, 0.5), (2, 0.25)):
            params = PaddedParams(k=k, epsilon=eps, n=g.n)
            assignments = sample_assignments_batch(
                g, params, seed=2024, count=samples
            )
            assignments_store[(name, k, eps)] = (g, params, assignments)
            freqs = padded_frequencies(g, assignments, k)
            threshold = 1 - eps - 3 * math.sqrt(eps / samples)
            ok = bool(np.all(freqs >= threshold))
            ok_all = ok_all and ok
            worst.append(f"{name}/k={k}: min {freqs.min():.4f} >= {threshold:.4f}")
    _STASH["padding_samples"] = assignments_store
    _report("criterion 1 (padding probability)", ok_all, "; ".join(worst))
    assert ok_all


def test_criterion_2_diameter_bound():
    store = _STASH.get("padding_samples")
    if store is None:  # standalone fallback
        g = gen_cycle(32, directed=False)
        params = PaddedParams(k=1, epsilon=0.5, n=32)
        store = {("cycle32", 1, 0.5): (
            g, params, sample_assignments_batch(g, params, seed=2024, count=200)
        )}
    worst_ratio = 0.0
    checked = 0
    for (name, k, eps), (g, params, assignments) in store.items():
        dist = np.asarray(g.distance_matrix(), dtype=np.float64)
        finite = dist < g.n
        cap2 = 2 * ((2 * k / eps) * math.log(g.n) + k)
        for s in range(assignments.shape[0]):
            a = assignments[s]
            same = a[:, None] == a[None, :]
            diam = float((dist * (same & finite)).max())
            worst_ratio = max(worst_ratio, diam / cap2)
            assert diam <= cap2, f"{name} sample {s}: {diam} > {cap2}"
            checked += 1
    ok = worst_ratio <= 1.0
    _report("criterion 2 (diameter bound)", ok,
            f"{checked} clusterings, worst diam/cap ratio {worst_ratio:.3f}")
    assert ok


def test_criterion_3_distributed_centralized_equivalence():
    cases = []
    for n in (8, 12, 16, 24, 32, 48, 64):
        cases.append(gen_cycle(n, directed=False))
    for side in (4, 6, 8):
        cases.append(gen_grid(side, side))
    rng_seeds = itertools.count(7)
    for n, p in ((12, 0.3), (16, 0.25), (24, 0.2), (32, 0.15), (48, 0.1),
                 (64, 0.1)):
        cases.append(gen_gnp(n, p, seed=next(rng_seeds), directed=True))
    runs = 0
    mismatches = 0
    seed = 0
    while runs < 100:
        g = cases[runs % len(cases)]
        params = PaddedParams(k=1 + runs % 2, epsilon=0.5 if runs % 3 else 0.25,
                              n=g.n)
        central = sample_decomposition_centralized(
            g, params, seed, permutation="ids"
        )
        dist, _ = sample_decomposition_distributed(g, params, seed)
        if not (np.array_equal(central.assignment, dist.assignment)
                and np.array_equal(central.radii, dist.radii)):
            mismatches += 1
        runs += 1
        seed += 1
    ok = mismatches == 0
    _report("criterion 3 (distributed/centralized equivalence)", ok,
            f"{runs} runs on graphs up to n=64, {mismatches} mismatches")
    assert ok


def _criterion4_cases():
    cases = []
    for i in range(6):
        cases.append(("spanner", 16, 0.5, 1000 + i))
    for i in range(6):
        cases.append(("spanner", 16, 0.25, 2000 + i))
    for i in range(8):
        cases.append(("spanner", 24, 0.5, 3000 + i))
    for i in range(5):
        cases.append(("dsn", 12, 0.5, 4000 + i))
    for i in range(5):
        cases.append(("dsn", 12, 0.25, 5000 + i))
    return cases


def _run_case(kind, n, eps, seed):
    if kind == "spanner":
        cfg = ExperimentConfig(problem="directed-spanner", gen="gnp", n=n,
                               p=0.3, k=2, epsilon=eps, seed=seed)
    else:
        cfg = ExperimentConfig(problem="dsn", gen="gnp", n=n, p=0.35,
                               epsilon=eps, seed=seed)
    g, instance = generate_instance(cfg, seed)
    solver_cfg = SolverConfig(epsilon=eps, seed=seed)
    run = solve_distributed(instance, solver_cfg)
    oracle = cached_global_oracle(instance, run)
    return g, instance, solver_cfg, run, oracle


def test_criterion_4_theorem_approximation():
    results = []
    for kind, n, eps, seed in _criterion4_cases():
        g, instance, solver_cfg, run, oracle = _run_case(kind, n, eps, seed)
        rep = concentration_report(run, instance)
        feas = check_feasibility(instance, run.solution.x, tol=1e-9)
        upper_ok = run.solution.value <= (1 + eps) * oracle.value + 1e-6
        results.append({
            "kind": kind, "n": n, "eps": eps, "seed": seed,
            "upper_ok": upper_ok, "conc_all": rep.all_pass,
            "feasible": feas.feasible,
            "ratio": run.solution.value / oracle.value if oracle.value else 1.0,
            "run": run, "instance": instance, "oracle": oracle,
            "config": solver_cfg,
        })
    _STASH["crit4"] = results
    frac_upper = sum(r["upper_ok"] for r in results) / len(results)
    conc_runs = [r for r in results if r["conc_all"]]
    upper_under_conc = all(r["upper_ok"] for r in conc_runs)
    feas_under_conc = all(r["feasible"] for r in conc_runs)
    ok = frac_upper >= 0.95 and upper_under_conc and feas_under_conc
    _report(
        "criterion 4 (solver approximation)", ok,
        f"{len(results)} runs (20 spanner + 10 dsn); upper bound in "
        f"{frac_upper:.0%}; {len(conc_runs)} concentration-clean runs all "
        f"bounded and feasible; max ratio {max(r['ratio'] for r in results):.4f}",
    )
    assert frac_upper >= 0.95
    assert upper_under_conc
    assert feas_under_conc


def test_criterion_5_concentration():
    n = 64
    runs = 100
    eps = 0.5
    D = 2
    g = gen_gnp(n, 0.2, seed=424242, directed=True)
    cfg = SolverConfig(epsilon=eps, seed=0)
    t = cfg.iterations(n)
    params = PaddedParams(k=D, epsilon=cfg.lam, n=n)
    dist = g.distance_matrix()
    ball_mask = dist <= D
    big = np.int64(2**62)
    threshold = t / (1 + eps)
    fails = 0
    clean_runs = 0
    for run_idx in range(runs):
        assignments = sample_assignments_batch(
            g, params, seed=5000 + run_idx, count=t, permutation="ids"
        )
        counts = np.zeros(n)
        for s in range(t):
            a = assignments[s]
            lo = np.where(ball_mask, a[None, :], big).min(axis=1)
            hi = np.where(ball_mask, a[None, :], -1).max(axis=1)
            counts += lo == hi
        run_fails = int(np.sum(counts <= threshold))
        fails += run_fails
        clean_runs += run_fails == 0
    frac = 1 - fails / (runs * n)
    p0 = 2 / n**2
    sigma = math.sqrt(p0 * (1 - p0) / (runs * n))
    bound = 1 - p0 - 3 * sigma
    ok = frac >= bound and clean_runs / runs >= 0.95
    _report("criterion 5 (concentration)", ok,
            f"pass fraction {frac:.6f} >= {bound:.6f} over {runs} runs x {n} "
            f"nodes (t={t}); {clean_runs}/{runs} runs clean everywhere")
    assert ok


def test_criterion_6_round_complexity():
    results = _STASH.get("crit4")
    if results is None:
        g, instance, solver_cfg, run, oracle = _run_case("spanner", 16, 0.5, 1000)
        results = [{"run": run, "instance": instance, "config": solver_cfg,
                    "n": 16}]
    worst_slack = math.inf
    for r in results:
        bound = round_bound(r["config"], r["instance"].graph.n,
                            r["instance"].D)
        rounds = r["run"].transcript.rounds_elapsed
        assert rounds <= bound, f"{rounds} > {bound}"
        worst_slack = min(worst_slack, bound - rounds)
    rounding_checked = 0
    for k in (1, 2, 3):
        for seed in range(4):
            g = gen_gnp(12 + 2 * k, 0.3, seed=600 + 10 * k + seed)
            x = np.full(g.m, 0.5)
            _, tr = round_spanner_distributed(g, x, k, seed=seed)
            assert tr.phase_rounds.get("rounding", 0) <= 2 * k + 5
            rounding_checked += 1
    ok = True
    _report("criterion 6 (round complexity)", ok,
            f"{len(results)} solver transcripts within bound (min slack "
            f"{worst_slack:.0f} rounds); {rounding_checked} rounding "
            f"transcripts within 2k+5")
    assert ok


def test_criterion_7_rounding_size_and_validity():
    sizes = [(16, 0.3, 17), (32, 0.15, 17), (64, 0.08, 16)]
    k = 2
    stretch_pass = 0
    total = 0
    ratios = {}
    transcripts = []
    for n, p, repeats in sizes:
        g = gen_gnp(n, p, seed=31337 + n, directed=True)
        instance = build_spanner_instance(g, k)
        from padspan.lp import solve_global_oracle
        lp = solve_global_oracle(instance)
        denom = math.sqrt(n) * math.log(n) * (n + lp.value)
        worst = 0.0
        for rep in range(repeats):
            out, tr = round_spanner_distributed(
                g, lp.x, k, seed=900 + rep
            )
            assert tr.phase_rounds.get("rounding", 0) <= 2 * k + 5
            transcripts.append((k, tr))
            ok, _ = verify_stretch(instance, out.edges)
            stretch_pass += ok
            total += 1
            worst = max(worst, len(out.edges) / denom)
        ratios[n] = worst
    frac = stretch_pass / total
    size_ok = all(v <= 2.0 for v in ratios.values())
    ok = frac >= 0.95 and size_ok
    _report("criterion 7 (rounding size/validity)", ok,
            f"stretch pass {frac:.0%} over {total} runs; size ratios "
            + ", ".join(f"n={n}: {v:.3f}" for n, v in ratios.items()))
    assert frac >= 0.95
    assert size_ok


def test_criterion_8_objective_algebra():
    rng = np.random.default_rng(271828)
    objectives = [
        linear_sum(), max_degree("inout"), p_norm(1), p_norm(2),
        p_norm(math.inf),
    ]
    checks = 200
    for obj in objectives:
        for _ in range(checks):
            n = int(rng.integers(6, 12))
            g = gen_gnp(n, 0.4, seed=int(rng.integers(10**6)), directed=True)
            if g.m == 0:
                continue
            parts = int(rng.integers(2, 5))
            assignment = rng.integers(0, parts, size=n)
            x = rng.random(g.m)
            for i, (u, v) in enumerate(g.edges):
                if assignment[u] != assignment[v]:
                    x[i] = 0.0
            whole = evaluate_objective(obj, x, g)
            vals = [
                evaluate_objective(
                    obj, restrict(x, np.nonzero(assignment == c)[0], g), g
                )
                for c in range(parts)
            ]
            from padspan.cp import combiner_value
            combined = combiner_value(obj, vals)
            assert combined == pytest.approx(whole, rel=1e-12, abs=1e-12)
        # monotonicity and zero at zero
        g = gen_gnp(10, 0.4, seed=99, directed=True)
        assert evaluate_objective(obj, np.zeros(g.m), g) == 0.0
        for _ in range(checks):
            x = rng.random(g.m)
            y = x + rng.random(g.m)
            assert evaluate_objective(obj, x, g) <= evaluate_objective(
                obj, y, g) + 1e-12
    _report("criterion 8 (objective algebra)", True,
            f"{checks} partition-identity + {checks} monotonicity checks per "
            f"objective kind at 1e-12")


def test_criterion_9_lp_kernel_oracle():
    rng = np.random.default_rng(161803)
    solved = 0
    worst_gap = 0.0
    while solved < 100:
        nv = int(rng.integers(2, 13))
        nr = int(rng.integers(1, 5))
        A_rows = [rng.normal(size=nv).round(3) for _ in range(nr)]
        b_vals = [round(rng.uniform(0.2, 2.0), 3) for _ in range(nr)]
        # one global budget row keeps the polytope bounded without blowing
        # up the enumeration pool; small instances also get per-var boxes
        A_rows.append(np.ones(nv))
        b_vals.append(round(rng.uniform(1.0, 4.0), 3))
        if nv <= 6:
            for j in range(nv):
                row = np.zeros(nv)
                row[j] = 1.0
                A_rows.append(row)
                b_vals.append(round(rng.uniform(0.5, 3.0), 3))
        A = np.array(A_rows)
        b = np.array(b_vals)
        c = rng.uniform(-1.0, 1.0, size=nv).round(3)
        ref = vertex_enum_min(c, A, b)
        if ref is None:
            continue
        sol = solve_lp(le_problem(c, A, b))
        gap = abs(sol.objective - ref)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-9, f"simplex {sol.objective} vs enumeration {ref}"
        solved += 1

    results = _STASH.get("crit4")
    if results is None:
        g, instance, solver_cfg, run, oracle = _run_case("spanner", 16, 0.5, 1000)
        results = [{"run": run, "instance": instance, "oracle": oracle}]
    clusters_checked = 0
    for r in results:
        instance = r["instance"]
        opt = r["oracle"]
        g = instance.graph
        seen = set()
        for rec in r["run"].records:
            for center, members in rec.clustering.clusters().items():
                members = frozenset(members)
                if members in seen:
                    continue
                seen.add(members)
                cluster_val = rec.solutions[center].value
                bound = evaluate_objective(
                    instance.objective, restrict(opt.x, members, g), g
                )
                assert cluster_val <= bound + 1e-9, (
                    f"cluster optimum {cluster_val} exceeds restricted global "
                    f"{bound}"
                )
                clusters_checked += 1
    _report("criterion 9 (LP kernel oracle)", True,
            f"100 random LPs matched enumeration (worst gap {worst_gap:.2e}); "
            f"{clusters_checked} distinct clusters satisfy the restriction "
            f"inequality")


def test_criterion_10_determinism():
    def config(out):
        return ExperimentConfig(
            problem="directed-spanner", gen="gnp", n=10, p=0.35, k=2,
            epsilon=0.5, trials=2, seed=77, out=out,
        )

    import tempfile
    with tempfile.TemporaryDirectory() as td:
        out1, out2 = f"{td}/a", f"{td}/b"
        run_experiment(config(out1))
        run_experiment(config(out2))
        files1, files2 = report_files(out1), report_files(out2)
        import os
        names1 = [os.path.basename(f) for f in files1]
        names2 = [os.path.basename(f) for f in files2]
        assert names1 == names2 and names1
        identical = all(
            open(f1, "rb").read() == open(f2, "rb").read()
            for f1, f2 in zip(files1, files2)
        )
    _report("criterion 10 (determinism)", identical,
            f"two reruns produced byte-identical {names1}")
    assert identical
