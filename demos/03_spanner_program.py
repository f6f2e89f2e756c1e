#!/usr/bin/env python3
"""Solving the stretch-k spanner relaxation, centrally and distributed.

The relaxation puts one demand on every edge, allows detours of up to k hops,
and couples per-demand path flows to shared edge capacities. The distributed
solver runs many padded decompositions in parallel, solves the program inside
every cluster, and averages; the result provably costs at most (1 + eps)
times the true optimum and is feasible when concentration holds.
"""

import os
import tempfile

from padspan import SolverConfig, build_spanner_instance, check_feasibility, concentration_report, implied_flow, round_bound, solve_distributed, solve_global_oracle
from padspan.harness import gen_gnp
from padspan.lp import build_cluster_cp, dump_lp

g = gen_gnp(16, 0.3, seed=5)
instance = build_spanner_instance(g, k=2)
print(f"random digraph: n={g.n}, m={g.m}")
print(f"demands: {len(instance.demands)}, allowed paths: "
      f"{sum(len(f) for f in instance.families)}, longest path D={instance.D}")

oracle = solve_global_oracle(instance)
print(f"\nglobal optimum: {oracle.value:.4f}")

eps = 0.5
cfg = SolverConfig(epsilon=eps, seed=11)
run = solve_distributed(instance, cfg)
rep = concentration_report(run, instance)
feas = check_feasibility(instance, run.solution.x)

print(f"\ndistributed solve with eps={eps} "
      f"({cfg.iterations(g.n)} parallel decompositions):")
print(f"  value {run.solution.value:.4f} "
      f"= {run.solution.value / oracle.value:.4f} x optimum "
      f"(guarantee: <= {1 + eps})")
print(f"  rounds {run.transcript.rounds_elapsed} "
      f"(bound {round_bound(cfg, g.n, instance.D):.0f})")
print(f"  concentration: {rep.pass_fraction:.0%} of demand sources, "
      f"feasible: {feas.feasible}")

# the averaged flows certify feasibility demand by demand
flow0 = implied_flow(run, instance, 0)
print(f"  demand 0 certificate ships {flow0.sum():.3f} units over "
      f"{len(flow0)} allowed paths")

# the underlying linear program can be dumped for external solvers
problem, _, _ = build_cluster_cp(instance, range(g.n))
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "spanner_program.lp")
    dump_lp(problem, path)
    with open(path) as f:
        lines = f.read().splitlines()
print(f"\nLP dump: {len(lines)} lines "
      f"({problem.num_vars} variables, {len(problem.rows)} rows)")
