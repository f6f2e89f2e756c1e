"""Command-line front end.

Subcommands: decompose, solve-cp, round, experiment, verify. Each takes only
the options it reads (`COMMANDS`); any other flag is a usage error. Exit
codes: 0 all checks pass, 1 a check failed, 2 usage error.
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
    broken_guarantees,
    generate_graph,
    generate_instance,
    run_experiment,
    run_trial,
    trial_seed,
)
from .rounding import verify_stretch

#: argparse keywords of every option. None has a default: an option not
#: given leaves its `ExperimentConfig` field at the dataclass default.
OPTIONS = {
    "graph": {"dest": "graph_path", "metavar": "GRAPH",
              "help": "graph file (overrides --gen)"},
    "gen": {"choices": GENERATORS},
    "n": {"type": int},
    "p": {"type": float},
    "k": {"type": int},
    "epsilon": {"type": float},
    "trials": {"type": int},
    "seed": {"type": int, "required": True},
    "out": {"help": "output directory or file"},
    "problem": {"choices": PROBLEMS},
    "objective": {"help": "linear-sum | max-degree[:mode] | p-norm:<p>"},
    "edges": {"required": True, "help": "edge list file to verify"},
}
_INSTANCE = ("graph", "gen", "n", "p", "k", "epsilon")


def _config(args) -> ExperimentConfig:
    """The config of the options given; every other field keeps its default."""
    opts = {name: value for name, value in vars(args).items()
            if name in ExperimentConfig.__dataclass_fields__}
    if opts.get("graph_path"):
        opts["gen"] = "file"
    return ExperimentConfig(**opts)


def cmd_decompose(args) -> int:
    config = _config(args)
    g = generate_graph(config, config.seed)
    params = PaddedParams(k=config.k, epsilon=config.epsilon, n=g.n)
    failures = 0
    for trial in range(config.trials):
        seed = trial_seed(config.seed, trial, 0)
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
        if config.out:
            path = config.out if config.trials <= 1 else f"{config.out}.{trial}"
            write_text(path, clustering_csv(dist))
    return 1 if failures else 0


def cmd_solve_cp(args) -> int:
    row, manifest, _, _ = run_trial(_config(args), 0, 0)
    print(f"n={row.n} m={row.m} D={row.D} t={manifest['t']}")
    print(f"CP*={row.cp_star:.6f} g(x~)={row.g_tilde:.6f} ratio={row.ratio:.6f}")
    print(f"rounds={row.rounds} "
          f"concentration={row.concentration_rate:.3f} feasible={row.feasible}")
    return 1 if broken_guarantees(row) else 0


def cmd_round(args) -> int:
    config = _config(args)
    if config.problem not in ("directed-spanner", "dsn"):
        print(f"error: round has no spanner rounding for {config.problem}",
              file=sys.stderr)
        return 2
    row, _, _, artifacts = run_trial(config, 0, 0)
    print(f"|E_out|={row.e_out} stretch_ok={row.stretch_ok}")
    if config.out:
        write_text(config.out, artifacts["provenance"])
    return 1 if broken_guarantees(row) else 0


def cmd_experiment(args) -> int:
    report = run_experiment(_config(args))
    agg = report.aggregates()
    for key in sorted(agg):
        print(f"{key}: {agg[key]}")
    return 1 if any(map(broken_guarantees, report.final_rows())) else 0


def cmd_verify(args) -> int:
    config = _config(args)
    if not config.graph_path:
        print("error: verify needs --graph", file=sys.stderr)
        return 2
    if config.problem == "directed-spanner":
        instance = build_spanner_instance(read_graph(config.graph_path), config.k)
    else:  # the instance of trial 0, which `round` rounds
        _, instance = generate_instance(config, trial_seed(config.seed, 0, 0))
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


#: Each subcommand's handler and the options it reads, in help order.
COMMANDS = {
    "decompose": (cmd_decompose, _INSTANCE + ("trials", "seed", "out")),
    "solve-cp": (cmd_solve_cp, _INSTANCE + ("seed", "problem", "objective")),
    "round": (cmd_round, _INSTANCE + ("seed", "problem", "objective", "out")),
    "experiment": (cmd_experiment, _INSTANCE + (
        "trials", "seed", "out", "problem", "objective")),
    "verify": (cmd_verify, ("graph", "edges", "k", "seed", "problem")),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="padspan",
        description="Padded decompositions, distributed network-design CP "
                    "solving, and spanner rounding at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, options) in COMMANDS.items():
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for option in options:
            p.add_argument(f"--{option}", **OPTIONS[option])
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
