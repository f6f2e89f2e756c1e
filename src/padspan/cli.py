"""Command-line front end.

Subcommands: decompose, solve-cp, round, experiment, verify. Exit codes:
0 all checks pass, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .cp import InstanceError, build_spanner_instance
from .decomposition import (
    DecompositionError,
    PaddedParams,
    clustering_csv,
    sample_decomposition_centralized,
    sample_decomposition_distributed,
    validate_clustering,
)
from .graphs import read_graph, write_text
from .harness import (
    GENERATORS,
    PROBLEMS,
    ExperimentConfig,
    generate_graph,
    generate_instance,
    run_experiment,
    run_trial,
    trial_seed,
)
from .rounding import verify_stretch


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="graph file (overrides --gen)")
    p.add_argument("--gen", default="gnp", choices=GENERATORS)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="output directory or file")
    p.add_argument("--problem", default="directed-spanner", choices=PROBLEMS)
    p.add_argument("--objective", help="linear-sum | max-degree[:mode] | p-norm:<p>")


def _config(args) -> ExperimentConfig:
    gen = "file" if args.graph else args.gen
    return ExperimentConfig(
        problem=args.problem, gen=gen, n=args.n, p=args.p, k=args.k,
        epsilon=args.epsilon, trials=args.trials, seed=args.seed,
        out=args.out, graph_path=args.graph, objective=args.objective,
    )


def cmd_decompose(args) -> int:
    g = generate_graph(_config(args), args.seed)
    params = PaddedParams(k=args.k, epsilon=args.epsilon, n=g.n)
    failures = 0
    for trial in range(max(1, args.trials)):
        seed = trial_seed(args.seed, trial, 0)
        central = sample_decomposition_centralized(g, params, seed, permutation="ids")
        dist, transcript = sample_decomposition_distributed(g, params, seed)
        try:
            validate_clustering(g, params, dist)
        except DecompositionError as exc:
            print(f"trial {trial}: invariant violation: {exc}")
            failures += 1
            continue
        if not np.array_equal(central.assignment, dist.assignment):
            print(f"trial {trial}: distributed != centralized assignment")
            failures += 1
            continue
        print(f"trial {trial}: clusters={len(dist.centers)} "
              f"rounds={transcript.rounds_elapsed}")
        if args.out:
            path = args.out if args.trials <= 1 else f"{args.out}.{trial}"
            write_text(path, clustering_csv(dist))
    return 1 if failures else 0


def cmd_solve_cp(args) -> int:
    config = _config(args)
    row, manifest, _, _ = run_trial(config, 0, 0)
    print(f"n={row.n} m={row.m} D={row.D} t={manifest['t']}")
    print(f"CP*={row.cp_star:.6f} g(x~)={row.g_tilde:.6f} ratio={row.ratio:.6f}")
    print(f"rounds={row.rounds} "
          f"concentration={row.concentration_rate:.3f} feasible={row.feasible}")
    ok = row.ratio <= 1 + args.epsilon + 1e-6 and (
        not row.concentration_all or row.feasible)
    return 0 if ok else 1


def cmd_round(args) -> int:
    config = _config(args)
    if config.problem not in ("directed-spanner", "dsn"):
        print(f"error: round has no spanner rounding for {config.problem}",
              file=sys.stderr)
        return 2
    row, _, _, artifacts = run_trial(config, 0, 0)
    print(f"|E_out|={row.e_out} stretch_ok={row.stretch_ok}")
    if args.out:
        write_text(args.out, artifacts["provenance"])
    return 0 if row.stretch_ok else 1


def cmd_experiment(args) -> int:
    config = _config(args)
    report = run_experiment(config)
    agg = report.aggregates()
    for key in sorted(agg):
        print(f"{key}: {agg[key]}")
    bad = [r for r in report.final_rows()
           if r.ratio > 1 + config.epsilon + 1e-6]
    return 1 if bad else 0


def cmd_verify(args) -> int:
    if not args.graph:
        print("error: verify needs --graph", file=sys.stderr)
        return 2
    if args.problem == "directed-spanner":
        instance = build_spanner_instance(read_graph(args.graph), args.k)
    else:  # the instance of trial 0, which `round` rounds
        _, instance = generate_instance(_config(args), trial_seed(args.seed, 0, 0))
    g = instance.graph
    with open(args.edges, "r", encoding="ascii") as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    # accept either the graph file format (with header) or bare `u v` pairs
    if lines and len(lines[0]) == 3 and lines[0][2] in ("directed", "undirected"):
        lines = lines[1:]
    # an unknown pair raises InstanceError; undirected pairs match either way
    pairs = [(int(a), int(b)) for a, b, *_ in lines]
    # a node id past n is no edge's end, however large
    ends = np.array([[w if 0 <= w < g.n else -1 for w in p] for p in pairs],
                    dtype=np.int64).reshape(-1, 2)
    chosen = g.edge_ids(ends[:, 0], ends[:, 1])
    missing = np.flatnonzero(chosen < 0)
    if len(missing):
        a, b = pairs[missing[0]]
        raise InstanceError(f"{args.edges}: ({a},{b}) is not a graph edge")
    ok, violated = verify_stretch(instance, chosen)
    print(f"checked {len(instance.demands)} demands; "
          f"{'all satisfied' if ok else f'{len(violated)} violated'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="padspan",
        description="Padded decompositions, distributed network-design CP "
                    "solving, and spanner rounding at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("decompose", cmd_decompose),
        ("solve-cp", cmd_solve_cp),
        ("round", cmd_round),
        ("experiment", cmd_experiment),
        ("verify", cmd_verify),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "verify":
            p.add_argument("--edges", required=True, help="edge list file to verify")
        p.set_defaults(fn=fn)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
