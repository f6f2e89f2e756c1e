"""Smoke test of the benchmark's trace hooks: `perfbench/spans.py` wraps
library functions by name, so each of those names must still exist, and
tracing a trial must leave its outputs unchanged. The layer counts of trial
0 at seed 1 are pinned: they read the instance's path families and the
LPs' rows through `CpInstance.families` and `LpProblem.rows`."""

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
