"""Distributed approximate solving of network-design programs.

The solver samples many padded decompositions in parallel (all bundled into
one message stream), has every cluster center solve its restricted program,
broadcasts the solutions back, and caps a scaled per-edge average at one. The
averaged vector costs at most (1 + epsilon) times the global optimum, and it
is feasible whenever every demand source was padded often enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cp import CpInstance, evaluate_objective
from .decomposition import (
    Clustering, PaddedParams, carve, decide_round, draw_radii,
)
from .localsim import NodeStep, RoundTranscript, run_protocol
from .lp import CpSolution, solve_cluster_cp, solve_global_oracle


class ConfigError(ValueError):
    pass


class NoCertificateError(RuntimeError):
    """A demand source was never padded, so no averaged flow exists."""


@dataclass(frozen=True)
class SolverConfig:
    """Accuracy and iteration parameters of the distributed solver.

    `lam` is the padding parameter carved out of epsilon so the per-iteration
    padding probability covers the averaging loss; iterations(n) is the number
    of parallel decompositions. t_override pins the iteration count for
    small-scale experiments and tests.
    """

    epsilon: float
    seed: int
    t_override: int | None = None

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise ConfigError(
                f"epsilon must be in the open interval (0, 1), got {self.epsilon}"
            )
        if self.t_override is not None and self.t_override < 1:
            raise ConfigError(
                f"t_override must be at least 1, got {self.t_override}"
            )

    @property
    def lam(self) -> float:
        e = self.epsilon
        return e * (1 - e) / ((2 - e) * (1 + e))

    def iterations(self, n: int) -> int:
        if self.t_override is not None:
            return self.t_override
        e = self.epsilon
        return max(1, math.ceil(16 * (1 - e / 2) * (1 + e) * math.log(n) / e**2))


def round_bound(config: SolverConfig, n: int, D: int) -> float:
    """Deterministic ceiling on the rounds any solver run may consume."""
    return 5 * ((2 * D / config.lam) * math.log(n) + D) + 10


@dataclass
class IterationRecord:
    """One decomposition iteration: partition, cluster solutions, bookkeeping.

    `padded[u]` says B(u, D) stayed inside u's cluster, as node u decided
    from its probe; `edge_same[e]` says both endpoints of e shared a
    cluster. padded[u] implies edge_same on every edge at u.
    """

    index: int
    clustering: Clustering
    solutions: dict[int, CpSolution]
    cluster_keys: dict[int, frozenset[int]]
    padded: np.ndarray
    edge_same: np.ndarray


@dataclass
class DistributedRun:
    solution: CpSolution
    transcript: RoundTranscript
    records: list[IterationRecord]
    config: SolverConfig


class _A2State:
    """Mutable per-node state threaded through all solver phases."""

    __slots__ = (
        "flood_key", "flood_via", "centers", "known", "padded", "downstream",
        "solutions",
    )

    def __init__(self, flood_key: np.ndarray, flood_via: np.ndarray,
                 centers: np.ndarray):
        # this node's accepted floods, keyed iteration * n + origin and
        # sorted, with the neighbor that delivered each
        self.flood_key = flood_key
        self.flood_via = flood_via
        self.centers = centers
        # probe: node within D hops -> its per-iteration cluster vector
        self.known: dict[int, np.ndarray] = {}
        # gather: per iteration, did B(u, D) stay inside u's cluster
        self.padded: np.ndarray | None = None
        # gather: (iteration, center) -> neighbors that route through us
        self.downstream: dict[tuple[int, int], list[int]] = {}
        # broadcast: iteration -> this node's cluster solution
        self.solutions: dict[int, CpSolution] = {}


def solve_distributed(
    instance: CpInstance,
    config: SolverConfig,
    transcript: RoundTranscript | None = None,
    lp_cache: dict | None = None,
) -> DistributedRun:
    """Run the full distributed solver on the LOCAL engine.

    Returns the capped averaged solution, the round transcript (phases:
    decomposition, gather incl. the padding probe, solve-broadcast), and one
    record per iteration for certificates and audits.

    `lp_cache` maps (member frozenset, demand tuple) to cluster solutions;
    passing a dict shares solves across iterations and with the caller (the
    whole-graph entry doubles as the oracle optimum). Caching only skips
    repeated node computation, which the model charges zero rounds anyway.
    """
    g = instance.graph
    n = g.n
    if transcript is None:
        transcript = RoundTranscript()
    if not instance.demands:
        return DistributedRun(
            CpSolution(np.zeros(g.m), {}, 0.0, 0.0, ()),
            transcript, [], config,
        )
    D = instance.D
    t = config.iterations(n)
    params = PaddedParams(k=D, epsilon=config.lam, n=n)
    radii = np.stack([draw_radii(params, config.seed, i, n) for i in range(t)])
    floods, centers = carve(g, params, radii, transcript)
    flood_key = floods.iteration * n + floods.origin
    rows = np.searchsorted(floods.node, np.arange(n + 1))
    states = [
        _A2State(flood_key[a:b], floods.via[a:b], centers[u])
        for u, (a, b) in enumerate(zip(rows[:-1], rows[1:]))
    ]
    _phase_probe(g, states, D, t, transcript)
    demands_at: dict[int, list[int]] = {}
    for di, d in enumerate(instance.demands):
        demands_at.setdefault(d.u, []).append(di)
    gathered = _phase_gather(g, params, states, t, demands_at, transcript)
    solutions, keys = _solve_clusters(instance, gathered, t, lp_cache)
    _phase_broadcast(g, params, states, t, solutions, transcript)
    return _assemble(instance, config, states, solutions, keys, radii, transcript)


def _phase_probe(g, states, D, t, transcript) -> None:
    """Every node learns the cluster vector of everyone within D hops."""

    def step(u: int, st: _A2State, inbox, rnd: int) -> NodeStep:
        forward: list[tuple[int, np.ndarray, int]] = []
        if rnd == 0:
            st.known[u] = st.centers
            if D >= 1:
                forward.append((u, st.centers, D - 1))
        else:
            for _, entries in inbox:
                for origin, vec, rem in entries:
                    if origin not in st.known:
                        st.known[origin] = vec
                        if rem >= 1:
                            forward.append((origin, vec, rem - 1))
        outbox = []
        if forward:
            size = sum(2 + len(v) for _, v, _ in forward)
            outbox = [(w, forward, size) for w in g.shadow_adj[u]]
        return NodeStep(st, outbox, done=True)

    run_protocol(g, step, states, max_rounds=D + 1,
                 transcript=transcript, phase="gather")


def _phase_gather(g, params, states, t, demands_at, transcript):
    """Route per-iteration node reports to cluster centers along flood trees.

    Each node first decides, for all iterations at once, whether its D-ball
    stayed inside its cluster: every probed cluster vector equals its own.
    A report names the node and, when padded, its resident demands.
    Intermediate nodes remember who routed through them so the broadcast can
    retrace the tree. Returns per (iteration, center) the member set and
    padded demand indices.
    """
    n = g.n
    r_gather = decide_round(params, n)
    gathered: list[dict[int, dict]] = [dict() for _ in range(t)]

    def accept(center: int, i: int, report) -> None:
        node, padded, dids = report
        bucket = gathered[i].setdefault(center, {"members": set(), "demands": []})
        bucket["members"].add(node)
        if padded:
            bucket["demands"].extend(dids)

    def step(u: int, st: _A2State, inbox, rnd: int) -> NodeStep:
        routed: list[tuple[int, int, tuple]] = []
        if rnd == 0:
            st.padded = (np.stack(list(st.known.values())) == st.centers).all(axis=0)
            for i, (c, padded) in enumerate(
                    zip(st.centers.tolist(), st.padded.tolist())):
                report = (u, padded,
                          tuple(demands_at.get(u, ())) if padded else ())
                if c == u:
                    accept(c, i, report)
                else:
                    routed.append((i, c, report))
        else:
            for src, entries in inbox:
                for i, c, report in entries:
                    key = (i, c)
                    children = st.downstream.setdefault(key, [])
                    if src not in children:
                        children.append(src)
                    if c == u:
                        accept(c, i, report)
                    else:
                        routed.append((i, c, report))
        # each report goes on to the neighbor that delivered c's flood here
        per_nbr: dict[int, list] = {}
        if routed:
            keys = [i * n + c for i, c, _ in routed]
            vias = st.flood_via[np.searchsorted(st.flood_key, keys)].tolist()
            for nxt, item in zip(vias, routed):
                per_nbr.setdefault(nxt, []).append(item)
        outbox = [
            (w, entries, sum(5 + len(r[2]) for _, _, r in entries))
            for w, entries in per_nbr.items()
        ]
        return NodeStep(st, outbox, done=True)

    run_protocol(g, step, states, max_rounds=r_gather + 2,
                 transcript=transcript, phase="gather")
    return gathered


def _solve_clusters(instance, gathered, t, lp_cache=None):
    """Centers solve their cluster programs; identical member sets share one solve."""
    cache: dict[tuple, CpSolution] = {} if lp_cache is None else lp_cache
    solutions: list[dict[int, CpSolution]] = [dict() for _ in range(t)]
    keys: list[dict[int, frozenset[int]]] = [dict() for _ in range(t)]
    for i in range(t):
        for center, bucket in gathered[i].items():
            members = frozenset(bucket["members"])
            dids = tuple(sorted(set(bucket["demands"])))
            key = (members, dids)
            sol = cache.get(key)
            if sol is None:
                sol = solve_cluster_cp(instance, members, demand_indices=list(dids))
                cache[key] = sol
            solutions[i][center] = sol
            keys[i][center] = members
    return solutions, keys


def _phase_broadcast(g, params, states, t, solutions, transcript) -> None:
    """Send each cluster solution back down the recorded gather tree."""
    r_bcast = decide_round(params, g.n)
    size_cache: dict[int, int] = {}

    def sol_size(sol: CpSolution) -> int:
        key = id(sol)
        if key not in size_cache:
            size_cache[key] = (
                int(np.count_nonzero(sol.x))
                + sum(len(f) for f in sol.flows.values()) + 2
            )
        return size_cache[key]

    def step(u: int, st: _A2State, inbox, rnd: int) -> NodeStep:
        per_nbr: dict[int, list] = {}
        if rnd == 0:
            # a center may itself belong to a smaller-id cluster, so it
            # broadcasts whatever it solved regardless of its own membership
            for i in range(t):
                if u in solutions[i]:
                    sol = solutions[i][u]
                    if int(st.centers[i]) == u:
                        st.solutions[i] = sol
                    for child in st.downstream.get((i, u), ()):
                        per_nbr.setdefault(child, []).append((i, u, sol))
        else:
            for _, entries in inbox:
                for i, c, sol in entries:
                    if int(st.centers[i]) == c:
                        st.solutions[i] = sol
                    for child in st.downstream.get((i, c), ()):
                        per_nbr.setdefault(child, []).append((i, c, sol))
        outbox = [
            (w, entries, sum(3 + sol_size(s) for _, _, s in entries))
            for w, entries in per_nbr.items()
        ]
        return NodeStep(st, outbox, done=True)

    run_protocol(g, step, states, max_rounds=r_bcast + 2,
                 transcript=transcript, phase="solve-broadcast")


def _assemble(instance, config, states, solutions, keys, radii,
              transcript) -> DistributedRun:
    """Cap-averaged edge vector, endpoint consistency check, and records."""
    g = instance.graph
    t = len(radii)
    eps = config.epsilon
    us = np.array([u for u, _ in g.edges], dtype=np.int64)
    vs = np.array([v for _, v in g.edges], dtype=np.int64)
    centers = np.stack([st.centers for st in states], axis=1)  # (t, n)
    padded = np.stack([st.padded for st in states], axis=1)  # (t, n)
    same = centers[:, us] == centers[:, vs]  # (t, m)

    received = np.array([[i in st.solutions for st in states] for i in range(t)])
    missing = same & ~(received[:, us] & received[:, vs])
    if missing.any():
        e = int(np.nonzero(missing.any(axis=0))[0][0])
        raise RuntimeError(f"missing broadcast solution at edge {e}")
    # each endpoint sums, in iteration order, the x_e of its own received
    # solutions over the iterations it shares a cluster with the other end
    zero = np.zeros(g.m)
    total_u = np.zeros(g.m)
    total_v = np.zeros(g.m)
    edge_ids = np.arange(g.m)
    for i in range(t):
        x_i = np.stack([
            st.solutions[i].x if i in st.solutions else zero for st in states
        ])  # (n, m): each node's received solution
        total_u += np.where(same[i], x_i[us, edge_ids], 0.0)
        total_v += np.where(same[i], x_i[vs, edge_ids], 0.0)
    val_u = np.minimum(1.0, (1 + eps) / t * total_u)
    val_v = np.minimum(1.0, (1 + eps) / t * total_v)
    off = np.abs(val_u - val_v) > 1e-12
    if off.any():
        e = int(np.nonzero(off)[0][0])
        raise RuntimeError(
            f"endpoint disagreement on edge {e}: {val_u[e]} vs {val_v[e]}"
        )
    broken = np.argwhere(padded[:, us] & ~same)
    if broken.size:
        raise RuntimeError(f"padding bookkeeping violated at edge {broken[0, 1]}")

    records = [
        IterationRecord(
            index=i,
            clustering=Clustering(assignment=centers[i], radii=radii[i]),
            solutions=solutions[i], cluster_keys=keys[i],
            padded=padded[i], edge_same=same[i],
        )
        for i in range(t)
    ]
    value = evaluate_objective(instance.objective, val_u, g)
    solution = CpSolution(
        x=val_u, flows={}, value=value, residual=0.0,
        demand_indices=tuple(range(len(instance.demands))),
    )
    return DistributedRun(solution, transcript, records, config)


def cached_global_oracle(instance: CpInstance, lp_cache: dict) -> CpSolution:
    """Whole-graph optimum, reusing the solver's cache entry when present."""
    key = (
        frozenset(range(instance.graph.n)),
        tuple(range(len(instance.demands))),
    )
    sol = lp_cache.get(key)
    if sol is None:
        sol = solve_global_oracle(instance)
        lp_cache[key] = sol
    return sol


# -- certificates ----------------------------------------------------------


def implied_flow(run: DistributedRun, instance: CpInstance,
                 demand_index: int) -> np.ndarray:
    """Averaged path-flow certificate for one demand.

    Averages the demand's cluster flows over the iterations where the source
    ball was padded; the total is always at least one unit, and the vector
    respects the capped averaged capacities whenever the padded-iteration
    count clears t/(1+epsilon).
    """
    d = instance.demands[demand_index]
    contributions = []
    for rec in run.records:
        if not rec.padded[d.u]:
            continue
        sol = rec.solutions.get(rec.clustering.cluster_of(d.u))
        if sol is None or demand_index not in sol.flows:
            raise NoCertificateError(
                f"iteration {rec.index} padded node {d.u} but carries no flow "
                f"for demand {demand_index}"
            )
        contributions.append(sol.flows[demand_index])
    if not contributions:
        raise NoCertificateError(
            f"demand {demand_index}: source {d.u} was never padded"
        )
    return np.mean(np.stack(contributions), axis=0)


@dataclass
class ConcentrationReport:
    counts: dict[int, int]
    threshold: float
    passed: dict[int, bool]

    @property
    def all_pass(self) -> bool:
        return all(self.passed.values())

    @property
    def pass_fraction(self) -> float:
        if not self.passed:
            return 1.0
        return sum(self.passed.values()) / len(self.passed)


def concentration_report(run: DistributedRun,
                         instance: CpInstance) -> ConcentrationReport:
    """Per demand source: padded in more than t/(1+epsilon) iterations?"""
    t = len(run.records)
    threshold = t / (1 + run.config.epsilon)
    sources = sorted({d.u for d in instance.demands})
    counts = {u: int(sum(rec.padded[u] for rec in run.records)) for u in sources}
    passed = {u: counts[u] > threshold for u in sources}
    return ConcentrationReport(counts=counts, threshold=threshold, passed=passed)
