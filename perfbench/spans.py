"""Timing spans around the calls one padspan layer makes into another.

The benchmark traces the library from outside: `installed(tracer)` replaces
public functions at the names their callers look up (module attributes, and
`Graph.distance_matrix` on the class) with wrappers that time the call, and
puts the originals back on exit. Nothing in the package changes.

A span records its name, start and end (perf_counter seconds), its parent
span and a few counts read from the call's arguments and result. Node steps
are too many to record one by one (over 20k in one carve-grid trial), so
each `run_protocol` span gets one child span that stands for all of its
`step` calls: it starts where the engine span starts and lasts as long as
the summed step time.

`layer_totals` folds the spans of one trial into per-layer numbers. A span's
self time is its duration minus that of its children. An `lp.simplex` span
charges its self time to the LP span that called it, so `lp.cluster_s`,
`lp.oracle_s` and `lp.feasibility_s` include their simplex calls, and
`lp.simplex_s` is the kernel's share of all three.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field

import padspan.decomposition as decomposition
import padspan.distributed as distributed
import padspan.harness as harness
import padspan.lp as lp
import padspan.rounding as rounding
from padspan.graphs import Graph

#: Span that the step time of each protocol phase is charged to.
STEP_SPANS = {
    "decomposition": "decomposition.flood",
    "gather": "distributed.gather",
    "solve-broadcast": "distributed.broadcast",
    "rounding": "rounding.protocol",
}

#: Self-time metric of each span name.
SELF_METRIC = {
    "harness.trial": "harness.self_s",
    "harness.manifest": "harness.manifest_s",
    "cp.build": "cp.build_s",
    "graphs.distance_matrix": "graphs.distance_matrix_s",
    "localsim.engine": "localsim.engine_s",
    "decomposition.flood": "decomposition.flood_s",
    "decomposition.sample": "decomposition.sampler_s",
    "decomposition.central": "decomposition.central_s",
    "decomposition.check": "decomposition.check_s",
    "distributed.solve": "distributed.self_s",
    "distributed.gather": "distributed.gather_s",
    "distributed.broadcast": "distributed.broadcast_s",
    "distributed.certify": "distributed.certify_s",
    "lp.cluster": "lp.cluster_s",
    "lp.oracle": "lp.oracle_s",
    "lp.feasibility": "lp.feasibility_s",
    "rounding.round": "rounding.protocol_s",
    "rounding.protocol": "rounding.protocol_s",
    "rounding.verify": "rounding.verify_s",
}

#: Metrics that are maxima over a run; every other total is a sum.
MAXIMA = ("graphs.distance_matrix_bytes", "localsim.max_payload_bytes",
          "lp.rows_max", "lp.cols_max")


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; `take` hands the finished spans over."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def close(self, idx: int) -> Span:
        sp = self.spans[idx]
        sp.end = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {sp.name} closed out of order")
        return sp

    def add(self, name: str, parent: int, start: float, end: float) -> None:
        """Record an already finished span under `parent`."""
        self.spans.append(Span(name, parent, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def take(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("take() while spans are open")
        out, self.spans = self.spans, []
        return out


def _timed(tracer: Tracer, name: str, fn, after=None):
    """Wrap `fn` in a span; `after(span, args, result)` adds counts
    once the span is closed, so their cost lands in the caller's span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            sp = tracer.close(idx)
        if after is not None:
            after(sp, args, result)
        return result

    return wrapper


def _engine(tracer: Tracer, fn):
    """Wrap `run_protocol`: time the engine and, apart, its `step` calls,
    and read rounds and messages off the transcript before and after."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        phase = bound.arguments["phase"]
        given = bound.arguments["transcript"]
        rounds0 = given.phase_rounds.get(phase, 0) if given else 0
        messages0 = given.total_messages if given else 0
        step = bound.arguments["step"]
        acc = [0.0, 0]

        def timed_step(u, state, inbox, rnd):
            t0 = time.perf_counter()
            try:
                return step(u, state, inbox, rnd)
            finally:
                acc[0] += time.perf_counter() - t0
                acc[1] += 1

        bound.arguments["step"] = timed_step
        idx = tracer.open("localsim.engine")
        try:
            states, tr = fn(*bound.args, **bound.kwargs)
        finally:
            sp = tracer.close(idx)
            if phase in STEP_SPANS:
                tracer.add(STEP_SPANS[phase], idx, sp.start, sp.start + acc[0])
        sp.attrs.update(
            phase=phase, steps=acc[1],
            rounds=tr.phase_rounds.get(phase, 0) - rounds0,
            messages=tr.total_messages - messages0,
            max_payload_bytes=tr.max_payload_bytes,
        )
        return states, tr

    return wrapper


def _cluster_solve(tracer: Tracer, fn):
    """Cluster solves; a solve made for the oracle stays in the oracle span."""
    timed = _timed(tracer, "lp.cluster", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.parent_name() == "lp.oracle":
            return fn(*args, **kwargs)
        return timed(*args, **kwargs)

    return wrapper


def _distance_matrix(tracer: Tracer, fn):
    """Graph.distance_matrix caches per graph; the first call computes."""
    computed: weakref.WeakSet = weakref.WeakSet()

    def after(sp, args, result):
        g = args[0]
        sp.attrs["bytes"] = 0 if g in computed else int(result.nbytes)
        computed.add(g)

    return _timed(tracer, "graphs.distance_matrix", fn, after)


def _simplex_size(sp, args, result):
    problem = args[0]
    sp.attrs.update(
        rows=len(problem.rows), cols=problem.num_vars,
        nnz=sum(len(coeffs) for coeffs, _, _ in problem.rows),
        iterations=result.iterations,
    )


def _paths(sp, args, result):
    sp.attrs["paths"] = sum(len(fam) for fam in result.families)


def _solve_counts(sp, args, run):
    sp.attrs.update(
        iterations=len(run.records),
        clusters=sum(len(rec.clustering.centers) for rec in run.records),
        padded=int(sum(int(rec.padded.sum()) for rec in run.records)),
        padded_slots=sum(len(rec.padded) for rec in run.records),
    )


def _oracle(tracer: Tracer, fn):
    """The oracle is a cache hit when it made no simplex call."""
    timed = _timed(tracer, "lp.oracle", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        first = len(tracer.spans)
        result = timed(*args, **kwargs)
        tracer.spans[first].attrs["hit"] = not any(
            s.name == "lp.simplex" for s in tracer.spans[first + 1:]
        )
        return result

    return wrapper


def _misses(sp, args, report):
    sp.attrs["misses"] = sum(not ok for ok in report.passed.values())


def _rounded(sp, args, result):
    out, _ = result
    sp.attrs.update(edges_out=len(out.edges), roots=len(out.roots))


def _sampled(sp, args, result):
    sp.attrs["clusters"] = len(result[0].centers)


def _targets(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every traced call site."""
    t = tracer
    return [
        (harness, "build_spanner_instance",
         _timed(t, "cp.build", harness.build_spanner_instance, _paths)),
        (harness, "build_dsn_instance",
         _timed(t, "cp.build", harness.build_dsn_instance, _paths)),
        (harness, "solve_distributed",
         _timed(t, "distributed.solve", harness.solve_distributed,
                _solve_counts)),
        (harness, "cached_global_oracle",
         _oracle(t, harness.cached_global_oracle)),
        (harness, "concentration_report",
         _timed(t, "distributed.certify", harness.concentration_report,
                _misses)),
        (harness, "check_feasibility",
         _timed(t, "lp.feasibility", harness.check_feasibility)),
        (harness, "round_spanner_distributed",
         _timed(t, "rounding.round", harness.round_spanner_distributed,
                _rounded)),
        (harness, "verify_stretch",
         _timed(t, "rounding.verify", harness.verify_stretch)),
        (harness, "run_manifest",
         _timed(t, "harness.manifest", harness.run_manifest)),
        (distributed, "solve_cluster_cp",
         _cluster_solve(t, distributed.solve_cluster_cp)),
        (lp, "solve_lp", _timed(t, "lp.simplex", lp.solve_lp, _simplex_size)),
        (distributed, "run_protocol", _engine(t, distributed.run_protocol)),
        (rounding, "run_protocol", _engine(t, rounding.run_protocol)),
        (decomposition, "run_protocol", _engine(t, decomposition.run_protocol)),
        (decomposition, "sample_decomposition_centralized",
         _timed(t, "decomposition.central",
                decomposition.sample_decomposition_centralized)),
        (decomposition, "sample_decomposition_distributed",
         _timed(t, "decomposition.sample",
                decomposition.sample_decomposition_distributed, _sampled)),
        (decomposition, "validate_clustering",
         _timed(t, "decomposition.check", decomposition.validate_clustering)),
        (decomposition, "padded_nodes",
         _timed(t, "decomposition.check", decomposition.padded_nodes)),
        (Graph, "distance_matrix",
         _distance_matrix(t, Graph.distance_matrix)),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace padspan's layer boundaries into `tracer` inside the block."""
    targets = _targets(tracer)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, wrapper in targets:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per-layer sums (maxima for MAXIMA) over the spans of one trial."""
    out: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child_time[sp.parent] += sp.duration
    for i, sp in enumerate(spans):
        self_s = sp.duration - child_time[i]
        owner = i
        while spans[owner].name == "lp.simplex" and spans[owner].parent >= 0:
            owner = spans[owner].parent
        metric = SELF_METRIC.get(spans[owner].name)
        if metric is not None:
            out[metric] += self_s
        parent = spans[sp.parent].name if sp.parent >= 0 else None
        if sp.name == "harness.trial":
            out["harness.trial_s"] += sp.duration
        elif sp.name == "distributed.solve":
            out["distributed.solve_s"] += sp.duration
        elif sp.name == "lp.cluster":
            out["lp.cluster_solves"] += 1
        elif sp.name == "lp.simplex":
            out["lp.simplex_s"] += self_s
            if parent == "lp.simplex":
                out["lp.exact_fallbacks"] += 1
            else:
                out["lp.simplex_calls"] += 1
        a = sp.attrs
        if not a:
            continue  # no counts: none taken, or the trial budget cut the call short
        if sp.name == "graphs.distance_matrix":
            out["graphs.distance_matrix_bytes"] = max(
                out["graphs.distance_matrix_bytes"], a["bytes"])
        elif sp.name == "cp.build":
            out["cp.paths"] += a["paths"]
        elif sp.name == "localsim.engine":
            out["localsim.node_steps"] += a["steps"]
            out[f"localsim.rounds.{a['phase']}"] += a["rounds"]
            out[f"localsim.messages.{a['phase']}"] += a["messages"]
            out["localsim.max_payload_bytes"] = max(
                out["localsim.max_payload_bytes"], a["max_payload_bytes"])
        elif sp.name == "decomposition.sample":
            out["decomposition.clusters"] += a["clusters"]
        elif sp.name == "distributed.solve":
            out["distributed.iterations"] += a["iterations"]
            out["decomposition.clusters"] += a["clusters"]
            out["lp.cluster_base"] += a["clusters"]
            out["decomposition.padded"] += a["padded"]
            out["decomposition.padded_slots"] += a["padded_slots"]
        elif sp.name == "distributed.certify" and parent == "harness.trial":
            out["distributed.concentration_miss"] += a["misses"]
        elif sp.name == "lp.oracle":
            out["lp.oracle_hits"] += a["hit"]
        elif sp.name == "lp.simplex" and parent != "lp.simplex":
            out["lp.simplex_iterations"] += a["iterations"]
            out["lp.nnz_sum"] += a["nnz"]
            out["lp.rows_max"] = max(out["lp.rows_max"], a["rows"])
            out["lp.cols_max"] = max(out["lp.cols_max"], a["cols"])
        elif sp.name == "rounding.round":
            out["rounding.edges_out"] += a["edges_out"]
            out["rounding.roots"] += a["roots"]
    return out


def merge_totals(into: dict[str, float], more: dict[str, float]) -> None:
    for key, value in more.items():
        if key in MAXIMA:
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


def span_records(spans: list[Span]) -> list[dict]:
    """JSON-ready spans, times relative to the first span's start."""
    t0 = spans[0].start if spans else 0.0
    return [
        {"name": sp.name, "parent": sp.parent,
         "start": round(sp.start - t0, 9), "end": round(sp.end - t0, 9),
         **sp.attrs}
        for sp in spans
    ]
