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
    "spanner-gnp": {"cp.paths": 93, "lp.simplex_calls": 1, "lp.simplex_iterations": 141,
                    "lp.rows_max": 186, "lp.cols_max": 142, "lp.nnz_sum": 367},
    "dsn-gnp": {"cp.paths": 31, "lp.simplex_calls": 1, "lp.simplex_iterations": 49,
                "lp.rows_max": 65, "lp.cols_max": 112, "lp.nnz_sum": 167},
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
        "c91db409846da2e539e86898e9075fe42405d5f18eaa4b95d533bdc090994680",
        "5eb92b1a1afaf9636e09b016ab8c978bd16810f3fd1ee3d74ce57a87bde13a62",
        "501635798d833dc64bbc6f17847a1f4d957f0b1cd3b343b63b66d0193317015f",
    ],
    "spanner-gnp": [
        "7c9ed36cb0396f8b169b86d785b1711ef8ac9b142090c1476e4c715666429d79",
        "85599f0cb46e11a13e6804cd7a50c275f4f5e584fdaf6a6d32ab30b39da26877",
        "2f03e17063a70ec77831dd946b7abf0c25dfa3d14add1dce89324ad33638584b",
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
