"""Smoke test of the benchmark's trace hooks: `perfbench/spans.py` wraps
library functions by name, so each of those names must still exist, and
tracing a trial must leave its outputs unchanged."""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_trial_matches_untraced(name):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(1)
    untraced = workload.trial(state, 0)
    tracer = spans.Tracer()
    with spans.installed(tracer), tracer.span("harness.trial"):
        traced = workload.trial(state, 0)
    assert traced.digest == untraced.digest
    assert spans.layer_totals(tracer.take())["harness.trial_s"] > 0
