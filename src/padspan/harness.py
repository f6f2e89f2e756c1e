"""Experiment orchestration: seeded generators, full solve/round/verify runs,
and deterministic report files.

Every run is a pure function of its config (seed mandatory); reports are
byte-stable across reruns. Wall-clock timings go to a separate sidecar file
that is excluded from determinism comparisons.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .cp import (
    CpInstance,
    build_dsn_instance,
    build_spanner_instance,
    fractional_degrees,
    linear_sum,
    max_degree,
    objective_from_label,
)
from .decomposition import cluster_diameters_batch
from .distributed import (
    ConcentrationReport,
    DistributedRun,
    SolverConfig,
    cached_global_oracle,
    concentration_report,
    round_bound,
    solve_distributed,
)
from .graphs import UNREACHABLE, Graph, _hop_table, as_index, graph_text, read_graph
from .localsim import TRANSCRIPT_CSV_HEADER, rng_stream, transcript_csv_row
from .lp import check_feasibility
from .rounding import output_csv, round_low_degree, round_spanner_distributed, verify_stretch

PROBLEMS = ("directed-spanner", "low-degree-spanner", "dsn", "raw-cp")
GENERATORS = ("gnp", "cycle", "grid", "file")
RETRY_CAP = 3


class HarnessError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    problem: str = "directed-spanner"
    gen: str = "gnp"
    n: int = 16
    p: float = 0.3
    k: int = 2
    epsilon: float = 0.5
    trials: int = 1
    seed: int = 0
    out: str | None = None
    graph_path: str | None = None
    objective: str | None = None
    dsn_slack: int = 1
    t_override: int | None = None

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise HarnessError(f"unknown problem {self.problem!r}")
        if self.gen not in GENERATORS:
            raise HarnessError(f"unknown generator {self.gen!r}")
        if self.gen == "file" and not self.graph_path:
            raise HarnessError("generator 'file' needs a graph path")
        if self.seed is None:
            raise HarnessError("seed is mandatory; wall-clock seeding is not allowed")
        for name in ("n", "k", "trials", "seed", "dsn_slack"):
            as_index(getattr(self, name), name, HarnessError)
        if self.n < 2 and self.gen != "file":
            raise HarnessError(f"n must be >= 2, got {self.n}")
        if not (0 <= self.p <= 1):
            raise HarnessError(f"p must be in [0, 1], got {self.p}")
        if self.k < 1:
            raise HarnessError(f"k must be >= 1, got {self.k}")
        if not (0 < self.epsilon < 1):
            raise HarnessError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.trials < 0:
            raise HarnessError(f"trials must be >= 0, got {self.trials}")
        if self.dsn_slack < 0:
            raise HarnessError(f"dsn_slack must be >= 0, got {self.dsn_slack}")
        if self.t_override is not None and self.t_override < 1:
            raise HarnessError(
                f"t_override must be at least 1, got {self.t_override}"
            )


# -- seeded generators -----------------------------------------------------


#: Coins `gen_gnp` draws at once, in whole rows (at least one): a few MB.
_COIN_BLOCK = 1 << 18


def gen_gnp(n: int, p: float, seed: int, directed: bool = True) -> Graph:
    """Random (di)graph: every ordered (or unordered) pair kept with prob p.

    The pairs take one stream's uniforms in row-major order, drawn a block of
    rows at a time: sequential draws continue the stream, so the edges are
    those of one draw."""
    if as_index(n, "n", HarnessError) < 1:
        raise HarnessError(f"gen_gnp needs n >= 1, got {n}")
    if not 0 <= p <= 1:
        raise HarnessError(f"p must be in [0, 1], got {p}")
    rng = rng_stream(seed, "gen-gnp")
    cols = np.arange(n)
    tails, heads = [], []
    step = max(1, _COIN_BLOCK // n)
    for a in range(0, n, step):
        rows = np.arange(a, min(a + step, n))[:, None]
        u, v = np.nonzero(cols != rows if directed else cols > rows)
        keep = np.flatnonzero(rng.random(len(u)) < p)
        tails.append(u[keep] + a)
        heads.append(v[keep])
    u, v = np.concatenate(tails), np.concatenate(heads)
    return Graph(n, zip(u.tolist(), v.tolist()), directed=directed)


def gen_cycle(n: int, directed: bool = True) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], directed=directed)


def gen_grid(rows: int, cols: int) -> Graph:
    """Undirected rows x cols grid."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return Graph(rows * cols, edges, directed=False)


def generate_graph(config: ExperimentConfig, seed: int) -> Graph:
    if config.gen == "gnp":
        return gen_gnp(config.n, config.p, seed, directed=True)
    if config.gen == "cycle":
        return gen_cycle(config.n, directed=True)
    if config.gen == "grid":
        side = round(math.sqrt(config.n))
        if side * side != config.n:
            raise HarnessError(f"grid generator needs a square n, got {config.n}")
        return gen_grid(side, side)
    return read_graph(config.graph_path)


def sample_spanning_demands(
    g: Graph, seed: int, slack: int = 1
) -> list[tuple[int, int, int]]:
    """Demand list touching every node, with feasible length bounds.

    Nodes are paired off a seeded permutation; a pair whose source cannot
    reach its sink is re-drawn against the reachable set (so generation fails
    only on graphs with an unreachable node, reported after the retry cap).
    """
    rng = rng_stream(seed, "gen-demands")
    n = g.n
    demands = []
    perm = list(rng.permutation(n))
    pairs = [(perm[2 * i], perm[2 * i + 1]) for i in range(n // 2)]
    if n % 2:
        pairs.append((perm[-1], perm[0]))
    indptr, heads, _ = g.arc_csr("out")
    table = _hop_table(indptr, heads, [u for u, _ in pairs], n)
    hops = table(np.arange(len(pairs)), [v for _, v in pairs])

    def reach(hops_from, i, u):
        # hop distances from the table's root i, and the other nodes they reach
        dist = hops_from(np.full(n, i), np.arange(n))
        return dist, [w for w in np.flatnonzero(dist < UNREACHABLE).tolist() if w != u]

    for i, ((u, v), d) in enumerate(zip(pairs, hops.tolist())):
        u, v = int(u), int(v)
        if d >= UNREACHABLE:
            dist, reachable = reach(table, i, u)
            retry = 0
            while not reachable and retry < RETRY_CAP:
                retry += 1
                u = int(rng.integers(n))
                dist, reachable = reach(_hop_table(indptr, heads, [u], n), 0, u)
            if not reachable:
                raise HarnessError(
                    f"node {u} reaches nothing; cannot build spanning demands"
                )
            v = reachable[int(rng.integers(len(reachable)))]
            d = int(dist[v])
        extra = int(rng.integers(0, slack + 1))
        demands.append((u, v, d + extra))
    return demands


def generate_instance(
    config: ExperimentConfig, seed: int
) -> tuple[Graph, CpInstance]:
    """Seeded instance for one trial; retries generation when a spanner
    graph comes out without edges."""
    for attempt in range(RETRY_CAP + 1):
        g = generate_graph(config, seed + 7919 * attempt)
        if config.problem in ("directed-spanner", "raw-cp", "low-degree-spanner"):
            if g.m == 0:
                continue
            if config.problem == "low-degree-spanner":
                obj = max_degree("inout")
            elif config.objective:
                obj = objective_from_label(config.objective)
            else:
                obj = linear_sum()
            return g, build_spanner_instance(g, config.k, obj)
        demands = sample_spanning_demands(g, seed, slack=config.dsn_slack)
        obj = objective_from_label(config.objective) if config.objective else linear_sum()
        return g, build_dsn_instance(g, demands, obj)
    raise HarnessError("generator kept producing empty graphs; check n and p")


# -- experiment runs --------------------------------------------------------


@dataclass
class TrialRow:
    trial: int
    retry: int
    seed: int
    n: int
    m: int
    D: int
    epsilon: float
    cp_star: float
    g_tilde: float
    ratio: float
    rounds: int
    round_bound: float
    concentration_rate: float
    concentration_all: bool
    feasible: bool
    e_out: int | None = None
    stretch_ok: bool | None = None
    rounding_rounds: int | None = None
    max_degree: float | None = None


REPORT_CSV_HEADER = ",".join(TrialRow.__dataclass_fields__)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def trial_csv_row(row: TrialRow) -> str:
    return ",".join(
        _fmt(getattr(row, name)) for name in TrialRow.__dataclass_fields__
    )


@dataclass
class RunReport:
    config: ExperimentConfig
    rows: list[TrialRow] = field(default_factory=list)
    manifests: list[dict] = field(default_factory=list)
    transcript_rows: list[str] = field(default_factory=list)

    def final_rows(self) -> list[TrialRow]:
        """Last attempt of each trial."""
        best: dict[int, TrialRow] = {}
        for row in self.rows:
            best[row.trial] = row
        return [best[t] for t in sorted(best)]

    def aggregates(self) -> dict:
        """Statistics of each trial's last attempt, then of every attempt: a
        retry replaces a trial whose concentration failed, so the last
        attempts alone hide how often concentration fails and how the first
        attempts did."""
        rows = self.final_rows()
        if not rows:
            return {"trials": 0}
        ratios = [r.ratio for r in rows]
        first = [r.ratio for r in self.rows if r.retry == 0]
        return {
            "trials": len(rows),
            "mean_ratio": sum(ratios) / len(ratios),
            "max_ratio": max(ratios),
            "concentration_all_fraction": sum(r.concentration_all for r in rows) / len(rows),
            "feasible_fraction": sum(r.feasible for r in rows) / len(rows),
            "stretch_pass_fraction": (
                sum(bool(r.stretch_ok) for r in rows) / len(rows)
                if rows[0].stretch_ok is not None else None
            ),
            "attempts": len(self.rows),
            "attempt_concentration_all_fraction": (
                sum(r.concentration_all for r in self.rows) / len(self.rows)),
            "first_attempt_mean_ratio": sum(first) / len(first),
            "first_attempt_max_ratio": max(first),
        }


def run_manifest(run: DistributedRun, instance: CpInstance, cp_star: float,
                 rep: ConcentrationReport) -> dict:
    """Per-run manifest: config echo, per-iteration shape, and headline
    numbers; `rep` is the run's `concentration_report`."""
    g = instance.graph
    per_iter = []
    if run.records:
        assignments = np.stack([rec.clustering.assignment for rec in run.records])
        for diams in cluster_diameters_batch(g, assignments):
            per_iter.append({
                "clusters": len(diams),
                "max_diameter": max(diams.values()),
            })
    ratio = run.solution.value / cp_star if cp_star > 0 else 1.0
    return {
        "epsilon": run.config.epsilon,
        "seed": run.config.seed,
        "n": g.n,
        "m": g.m,
        "D": instance.D,
        "t": len(run.records),
        # the rounded-size guarantee needs every node to be a demand
        # endpoint; runs without that still execute but are flagged
        "spanning_demands": instance.spanning,
        "size_guarantee_applies": instance.spanning,
        "iterations": per_iter,
        "concentration": {
            "threshold": rep.threshold,
            "pass_fraction": rep.pass_fraction,
            "all_pass": rep.all_pass,
        },
        "objective_value": run.solution.value,
        "cp_star": cp_star,
        "ratio": ratio,
        "rounds": run.transcript.rounds_elapsed,
    }


def run_trial(
    config: ExperimentConfig, trial: int, retry: int
) -> tuple[TrialRow, dict, str, dict]:
    """One full pipeline pass: generate, solve, certify, round, verify."""
    seed = trial_seed(config.seed, trial, retry)
    g, instance = generate_instance(config, seed)
    solver_cfg = SolverConfig(
        epsilon=config.epsilon, seed=seed, t_override=config.t_override
    )
    lp_cache: dict = {}
    run = solve_distributed(instance, solver_cfg, lp_cache=lp_cache)
    oracle = cached_global_oracle(instance, lp_cache)
    rep = concentration_report(run, instance)
    feas = check_feasibility(instance, run.solution.x, tol=1e-9)
    cp_star = oracle.value
    ratio = run.solution.value / cp_star if cp_star > 0 else 1.0
    if feas.feasible and ratio < 1 - 1e-6:
        raise HarnessError(
            f"trial {trial}: feasible solution beats the optimum (ratio {ratio})"
        )
    row = TrialRow(
        trial=trial, retry=retry, seed=seed, n=g.n, m=g.m, D=instance.D,
        epsilon=config.epsilon, cp_star=cp_star, g_tilde=run.solution.value,
        ratio=ratio, rounds=run.transcript.rounds_elapsed,
        round_bound=round_bound(solver_cfg, g.n, instance.D),
        concentration_rate=rep.pass_fraction, concentration_all=rep.all_pass,
        feasible=feas.feasible,
    )
    artifacts: dict[str, str] = {}
    if config.problem in ("directed-spanner", "dsn"):
        depth = config.k if config.problem == "directed-spanner" else instance.D
        out, rt = round_spanner_distributed(g, run.solution.x, depth, seed)
        ok, _ = verify_stretch(instance, out.edges)
        row.e_out = len(out.edges)
        row.stretch_ok = ok
        row.rounding_rounds = rt.phase_rounds.get("rounding", 0)
        artifacts["edges"] = graph_text(g, sorted(out.edges))
        artifacts["provenance"] = output_csv(g, out)
    elif config.problem == "low-degree-spanner":
        capped = np.minimum(run.solution.x, 1.0)
        chosen = round_low_degree(g, capped, config.k, seed)
        ok, _ = verify_stretch(instance, chosen)
        picked = np.zeros(g.m)
        picked[list(chosen)] = 1.0
        degs = fractional_degrees(g, picked)
        row.e_out = len(chosen)
        row.stretch_ok = ok
        row.max_degree = float(degs.max()) if g.n else 0.0
    manifest = run_manifest(run, instance, cp_star, rep)
    tr_row = transcript_csv_row(
        run.transcript, seed=seed, n=g.n, m=g.m, epsilon=config.epsilon,
        D=instance.D,
    )
    manifest["trial"] = trial
    manifest["retry"] = retry
    manifest["artifacts"] = sorted(artifacts)
    return row, manifest, tr_row, artifacts


def trial_seed(base: int, trial: int, retry: int) -> int:
    return base * 1_000_003 + trial * 101 + retry


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run all trials, retrying failed-concentration runs up to the cap.

    Every attempt is recorded; the report keeps all rows plus per-run
    manifests and transcript CSV rows.
    """
    report = RunReport(config=config)
    started = time.perf_counter()
    try:
        for trial in range(config.trials):
            for retry in range(RETRY_CAP + 1):
                row, manifest, tr_row, artifacts = run_trial(config, trial, retry)
                report.rows.append(row)
                report.manifests.append(manifest)
                report.transcript_rows.append(tr_row)
                if config.out:
                    _write_artifacts(config.out, trial, retry, artifacts)
                if row.concentration_all:
                    break
    except Exception as exc:
        if config.out:  # flush whatever completed before reporting the failure
            write_report(config.out, report,
                         elapsed=time.perf_counter() - started)
        raise HarnessError(f"trial {trial} retry {retry} failed: {exc}") from exc
    if config.out:
        write_report(config.out, report, elapsed=time.perf_counter() - started)
    return report


def _write_artifacts(out_dir: str, trial: int, retry: int, artifacts: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for kind, body in artifacts.items():
        ext = "edges" if kind == "edges" else "csv"
        path = os.path.join(out_dir, f"rounded_{trial}_{retry}.{ext}")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(body + ("\n" if not body.endswith("\n") else ""))


def write_report(out_dir: str, report: RunReport, elapsed: float | None = None) -> None:
    """Write report.csv, transcripts.csv, manifest.json (all deterministic)
    and timing.txt (not deterministic, excluded from comparisons)."""
    os.makedirs(out_dir, exist_ok=True)
    lines = [REPORT_CSV_HEADER] + [trial_csv_row(r) for r in report.rows]
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="ascii",
              newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    tlines = [TRANSCRIPT_CSV_HEADER] + report.transcript_rows
    with open(os.path.join(out_dir, "transcripts.csv"), "w", encoding="ascii",
              newline="\n") as fh:
        fh.write("\n".join(tlines) + "\n")
    config_echo = asdict(report.config)
    config_echo.pop("out", None)  # filesystem detail, not an experiment input
    manifest = {
        "config": config_echo,
        "aggregates": report.aggregates(),
        "runs": report.manifests,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="ascii",
              newline="\n") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if elapsed is not None:
        with open(os.path.join(out_dir, "timing.txt"), "w", encoding="ascii",
                  newline="\n") as fh:
            fh.write(f"wall_clock_seconds {elapsed:.3f}\n")


def report_files(out_dir: str) -> list[str]:
    """Deterministic report files (timing sidecar excluded)."""
    skip = {"timing.txt"}
    out = []
    for name in sorted(os.listdir(out_dir)):
        if name not in skip and os.path.isfile(os.path.join(out_dir, name)):
            out.append(os.path.join(out_dir, name))
    return out
