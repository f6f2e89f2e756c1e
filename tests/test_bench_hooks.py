"""Smoke test of the benchmark's trace hooks: `perfbench/spans.py` wraps
library functions by name, so each of those names must still exist, and
tracing a trial must leave its outputs unchanged. The layer counts of trial
0 at seed 1 are pinned: they read the instance's path families and the
LPs' rows through `CpInstance.families` and `LpProblem.rows`. So are the
digests of trials 0-2 at seed 1 on every workload."""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

#: Layer counts of a traced trial 0 at seed 1.
PINNED_COUNTS = {
    "spanner-gnp": {"cp.paths": 93, "lp.simplex_calls": 2, "lp.simplex_iterations": 222,
                    "lp.rows_max": 186, "lp.cols_max": 142, "lp.nnz_sum": 597},
    "dsn-gnp": {"cp.paths": 31, "lp.simplex_calls": 2, "lp.simplex_iterations": 69,
                "lp.rows_max": 65, "lp.cols_max": 112, "lp.nnz_sum": 277},
}

#: `Outcome.digest` of trials 0-2 at seed 1: every output of a trial, so a
#: change that keeps the bench's outputs byte-identical keeps these. One that
#: changes them on purpose re-pins them and says why in CHANGES.md.
PINNED_DIGESTS = {
    "carve-grid": [
        "ac125e070770525be1dce2ac790661872bcd1dc37e759f3d94eeaad64c51fb3f",
        "d54add801d41ec3e376e25432bb17183080bc9a67655240d8e80bde5cbc4397b",
        "570b1cb9c11f3467f71994d5aabf7b9610b897917e3dafab737faf0ef779b22c",
    ],
    "dsn-gnp": [
        "8f3b2625eb3541aaea05d6b9b0de2e3afea6bec34dc268e76f7bc6c135f6e0d3",
        "4be817272aa5f49a513e253dc9e61e4ea2931761de7f1ea556b983cdd65aa343",
        "451a1410c451554fcd9e43fd89f1339da54313a7c7794ed26e295935fee64ad6",
    ],
    "spanner-gnp": [
        "9195f3239d8140618f5672813b39fe1f2b7e0d3562acd391aa35d019f450ffc5",
        "7fde29eeb7ff7ce9342336d66c0a7d6bb58277f0397c16a13a980e084f988b08",
        "b28ec67900ef9f7e41c1882a46a0e5834d2cc62b582f97b4d08a1f44848b890d",
    ],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_trial_digests_pinned(name):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(1)
    digests = [workload.trial(state, i).digest for i in range(3)]
    assert digests == PINNED_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_trial_matches_untraced(name):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(1)
    untraced = workload.trial(state, 0)
    tracer = spans.Tracer()
    with spans.installed(tracer), tracer.span("harness.trial"):
        traced = workload.trial(state, 0)
    assert traced.digest == untraced.digest
    totals = spans.layer_totals(tracer.take())
    assert totals["harness.trial_s"] > 0
    pinned = PINNED_COUNTS.get(name, {})
    assert {key: totals.get(key) for key in pinned} == pinned
