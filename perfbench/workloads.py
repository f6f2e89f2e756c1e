"""The benchmark's workloads: seeded inputs, one trial, and its guarantees.

A workload's `setup(seed)` builds everything its trials share; `trial(state,
i)` runs trial i and returns an Outcome. Trial seeds come from the workload
seed through `harness.trial_seed`, so a workload seed fixes every input.
The library functions are called through their modules, so that the
wrappers in spans.py see the calls.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

import padspan.decomposition as decomposition
import padspan.harness as harness
from padspan.localsim import TRANSCRIPT_CSV_HEADER

#: Failure kinds a trial can report, besides "exception" and "timeout".
GUARANTEES = ("ratio", "infeasible", "stretch", "equivalence", "clustering")


@dataclass
class Outcome:
    """What one trial produced.

    `failures` names the guarantees the trial broke. `rounds` and `messages`
    are the simulated LOCAL costs. `digest` hashes every output the trial
    returns, for the check that tracing leaves outputs unchanged. `quality`
    holds the approximation ratio (solver workloads) or the padded fraction
    (carve-grid).
    """

    failures: list[str]
    rounds: int
    messages: int
    digest: str
    quality: dict = field(default_factory=dict)


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()
    ).hexdigest()


@dataclass(frozen=True)
class SolverWorkload:
    """One `harness.run_trial` per trial: generate, solve, certify, round."""

    name: str
    config: dict

    def setup(self, seed: int) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(seed=seed, **self.config)

    def trial(self, config: harness.ExperimentConfig, i: int) -> Outcome:
        row, manifest, tr_row, artifacts = harness.run_trial(config, i, 0)
        failures = []
        if row.ratio > 1 + config.epsilon + 1e-6:
            failures.append("ratio")
        if row.concentration_all and not row.feasible:
            failures.append("infeasible")
        if not row.stretch_ok:
            failures.append("stretch")
        transcript = dict(zip(TRANSCRIPT_CSV_HEADER.split(","), tr_row.split(",")))
        return Outcome(
            failures=failures,
            # the solver transcript holds every phase but rounding, which
            # run_trial reports on its own
            rounds=row.rounds + row.rounding_rounds,
            messages=int(transcript["messages"]),
            digest=_digest([harness.trial_csv_row(row), manifest, tr_row,
                            artifacts]),
            quality={"approx_ratio": row.ratio},
        )


@dataclass
class CarveState:
    seed: int
    graph: object
    params: decomposition.PaddedParams


@dataclass(frozen=True)
class CarveWorkload:
    """The `padspan decompose` path: both samplers, checked against each
    other, on one large grid whose distance matrix set-up builds."""

    name: str
    side: int
    k: int
    epsilon: float

    def setup(self, seed: int) -> CarveState:
        g = harness.gen_grid(self.side, self.side)
        g.distance_matrix()
        params = decomposition.PaddedParams(k=self.k, epsilon=self.epsilon, n=g.n)
        return CarveState(seed, g, params)

    def trial(self, state: CarveState, i: int) -> Outcome:
        g, params = state.graph, state.params
        seed = harness.trial_seed(state.seed, i, 0)
        central = decomposition.sample_decomposition_centralized(
            g, params, seed, permutation="ids")
        sampled, transcript = decomposition.sample_decomposition_distributed(
            g, params, seed)
        failures = []
        try:
            decomposition.validate_clustering(g, params, sampled)
        except decomposition.DecompositionError:
            failures.append("clustering")
        if not np.array_equal(central.assignment, sampled.assignment):
            failures.append("equivalence")
        padded = decomposition.padded_nodes(g, sampled, params.k)
        return Outcome(
            failures=failures,
            rounds=transcript.rounds_elapsed,
            messages=transcript.total_messages,
            digest=_digest([sampled.assignment.tolist(), padded.tolist(),
                            transcript.phase_rounds, transcript.total_messages,
                            transcript.max_payload_scalars]),
            quality={"padded_fraction": float(padded.mean())},
        )


WORKLOADS = {
    w.name: w
    for w in (
        SolverWorkload(
            "spanner-gnp",
            dict(problem="directed-spanner", gen="gnp", n=14, p=0.3, k=2,
                 epsilon=0.5, t_override=48),
        ),
        SolverWorkload(
            "dsn-gnp",
            dict(problem="dsn", gen="gnp", n=16, p=0.35, epsilon=0.5,
                 dsn_slack=1),
        ),
        CarveWorkload(
            "carve-grid",
            side=32, k=2, epsilon=0.5,
        ),
    )
}
