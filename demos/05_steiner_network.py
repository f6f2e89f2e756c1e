#!/usr/bin/env python3
"""Distance-constrained Steiner networks with spanning demand sets.

Each demand (u, v, L) asks for a directed path of at most L hops; when every
node is a demand endpoint the rounded solution carries the same approximation
guarantee as the spanner case, with the longest bound taking the role of k.
Distance preservers (L = dist) and uniform-bound networks are special cases.
"""

import os
import tempfile

from padspan import SolverConfig, build_dsn_instance, check_feasibility, concentration_report, read_instance, round_spanner, solve_distributed, solve_global_oracle, verify_stretch, write_instance
from padspan.harness import gen_gnp, sample_spanning_demands

g = gen_gnp(12, 0.35, seed=8)
demands = sample_spanning_demands(g, seed=8, slack=1)
instance = build_dsn_instance(g, demands)
print(f"n={g.n}, m={g.m}; {len(demands)} demands touching every node "
      f"(spanning: {instance.spanning}), D = {instance.D}")
for u, v, L in demands[:4]:
    print(f"  demand {u} -> {v} within {L} hops")

oracle = solve_global_oracle(instance)
cfg = SolverConfig(epsilon=0.5, seed=2)
run = solve_distributed(instance, cfg)
rep = concentration_report(run, instance)
print(f"\noptimum {oracle.value:.3f}, distributed value "
      f"{run.solution.value:.3f} (ratio "
      f"{run.solution.value / oracle.value:.3f}, guarantee <= 1.5)")
print(f"feasible: {check_feasibility(instance, run.solution.x).feasible}, "
      f"concentration: {rep.pass_fraction:.0%}")

out = round_spanner(g, run.solution.x, depth=instance.D, seed=2)
ok, violations = verify_stretch(instance, out.edges)
print(f"\nrounded network: {len(out.edges)} edges, all bounds met: {ok}")

# instances round-trip through a canonical text format
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "dsn_instance.txt")
    write_instance(instance, path)
    back = read_instance(path)
    print(f"\ninstance file round-trip OK: {back.demands == instance.demands}")
    with open(path) as f:
        print(f.read().splitlines()[0:5])
