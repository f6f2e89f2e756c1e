#!/usr/bin/env python3
"""Rounding fractional solutions into actual subgraphs.

Two local schemes: inflated per-edge coins plus sampled shortest-path trees
(for edge-count objectives), and the power rounding x ** (1/k) (for the
lowest-degree variant). Both run in O(k) rounds. Edge e's coin is position
e of one stream per iteration, which its smaller-ID endpoint computes alone,
so the distributed run equals the centralized draw.
"""

import numpy as np

from padspan import build_spanner_instance, classify_edges, round_low_degree, round_spanner, round_spanner_distributed, solve_global_oracle, verify_stretch
from padspan.cp import max_degree
from padspan.harness import gen_gnp
from padspan.lp import solve_cluster_cp
from padspan.rounding import expected_sampled_size, output_csv

g = gen_gnp(16, 0.3, seed=21)
instance = build_spanner_instance(g, k=2)
lp = solve_global_oracle(instance)
print(f"n={g.n}, m={g.m}, fractional optimum {lp.value:.2f}")

labels = classify_edges(instance)
print(f"demands: {labels.count('thick')} thick, {labels.count('thin')} thin "
      f"(threshold sqrt(n) = {np.sqrt(g.n):.1f} path nodes)")

out, transcript = round_spanner_distributed(g, lp.x, depth=2, seed=3)
ok, violations = verify_stretch(instance, out.edges)
print(f"\nrounded output: {len(out.edges)} edges "
      f"({len(out.sampled)} coin-sampled, {len(out.tree_edges)} from "
      f"{len(out.roots)} sampled roots)")
print(f"expected coin-sampled size: {expected_sampled_size(g, lp.x):.1f}")
print(f"stretch valid: {ok} ({len(violations)} violated demands)")
print(f"rounding rounds: {transcript.phase_rounds['rounding']} (<= 2k+5)")

same = round_spanner(g, lp.x, 2, seed=3)
print(f"distributed == centralized draw: "
      f"{same.edges == out.edges and same.roots == out.roots}")

print("\nprovenance CSV head:")
print("\n".join(output_csv(g, out).splitlines()[:5]))

# -- lowest-degree variant ----------------------------------------------------
deg_instance = build_spanner_instance(g, k=2, objective=max_degree("inout"))
deg_lp = solve_cluster_cp(deg_instance, range(g.n))
chosen = round_low_degree(g, np.minimum(deg_lp.x, 1.0), k=2, seed=4)
degs = np.zeros(g.n)
for e in chosen:
    u, v = g.edges[e]
    degs[u] += 1
    degs[v] += 1
ok2, missed = verify_stretch(deg_instance, chosen)
print(f"\nlowest-degree rounding: fractional degree optimum {deg_lp.value:.2f}, "
      f"rounded max degree {int(degs.max())}")
print(f"demands satisfied in this draw: "
      f"{len(deg_instance.demands) - len(missed)}/{len(deg_instance.demands)} "
      f"(power rounding trades per-draw coverage for low degree)")
