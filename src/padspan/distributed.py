"""Distributed approximate solving of network-design programs.

The solver samples many padded decompositions in parallel (all bundled into
one message stream), has every cluster center solve its restricted program,
broadcasts the solutions back, and caps a scaled per-edge average at one. The
averaged vector costs at most (1 + epsilon) times the global optimum, and it
is feasible whenever every demand source was padded often enough.

Like `carve`, the probe, gather and broadcast simulate each LOCAL round as a
few array operations over every (iteration, node) at once, and charge the
transcript's ledger (`send`, `check_rounds`) as the engine would charge the
per-node protocols that `tests/solver_reference.py` keeps and the tests hold
them to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cp import CpInstance, evaluate_objective
from .decomposition import (
    Clustering, PaddedParams, carve, decide_round, draw_radii,
)
from .graphs import _frontier_bfs, as_index, run_slots
from .localsim import ProtocolError, RoundTranscript, check_rounds
# perfbench/spans.py wraps distributed.run_protocol by name (ROADMAP item 2)
from .localsim import run_protocol  # noqa: F401
from .lp import CpSolution, solve_cluster_cp, solve_global_oracle


#: Pairs times iterations whose center vectors `_phase_probe` compares at
#: once, so its temporaries stay bounded at the paper's t.
_PROBE_CELLS = 1 << 18


class ConfigError(ValueError):
    pass


class NoCertificateError(RuntimeError):
    """A demand source was never padded, so no averaged flow exists."""


class AssemblyError(ProtocolError):
    """The delivered cluster solutions do not fit together: a node lacks its
    cluster's solution, an edge's endpoints average differently, or a padded
    node's edge leaves its cluster."""


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
        if self.t_override is not None and as_index(
                self.t_override, "t_override", ConfigError) < 1:
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
    padded: np.ndarray
    edge_same: np.ndarray


@dataclass
class DistributedRun:
    solution: CpSolution
    transcript: RoundTranscript
    records: list[IterationRecord]
    config: SolverConfig


@dataclass(frozen=True)
class Gathered:
    """What the gather brought to the centers, and the trees it used.

    Clusters are keyed i * n + c, for iteration i and center c, ascending.
    Cluster k's members are members[member_ptr[k]:member_ptr[k + 1]] and its
    padded members' demand indices demands[demand_ptr[k]:demand_ptr[k + 1]],
    both ascending. Tree edge j says some report of cluster `cluster[j]` went
    from `child[j]` to `parent[j]`; `depth[j]` is the child's hop distance
    from the center along the tree, the round its center's flood reached it.
    """

    key: np.ndarray
    member_ptr: np.ndarray
    members: np.ndarray
    demand_ptr: np.ndarray
    demands: np.ndarray
    cluster: np.ndarray
    child: np.ndarray
    parent: np.ndarray
    depth: np.ndarray


def solve_distributed(
    instance: CpInstance,
    config: SolverConfig,
    lp_cache: dict | None = None,
) -> DistributedRun:
    """Run the full distributed solver on the LOCAL model.

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
    transcript = RoundTranscript()
    if not instance.demands:
        return DistributedRun(
            CpSolution(np.zeros(g.m), {}, 0.0, 0.0, ()),
            transcript, [], config,
        )
    D = instance.D
    t = config.iterations(n)
    params = PaddedParams(k=D, epsilon=config.lam, n=n)
    radii = draw_radii(params, config.seed, np.arange(t))
    floods, centers = carve(g, params, radii, transcript)
    assign = np.ascontiguousarray(centers.T)  # (t, n): node u's center in iteration i
    padded = _phase_probe(g, assign, D, transcript)
    sources = np.array([d.u for d in instance.demands], dtype=np.int64)
    gathered = _phase_gather(params, floods, assign, padded, sources, transcript)
    solved = _solve_clusters(instance, gathered, t, lp_cache)
    sols, sol_of = solved[:2]
    sizes = np.array([_solution_size(sol) for sol in sols], dtype=np.int64)
    delivered = _phase_broadcast(params, assign, gathered, sizes[sol_of], transcript)
    return _assemble(instance, config, assign, padded, delivered, solved,
                     radii, transcript)


def _phase_probe(g, assign, D, transcript) -> np.ndarray:
    """Every node learns the cluster vector of everyone within D hops, and
    decides for all iterations at once whether its D-ball stayed inside its
    cluster: every vector it learned names its own center.

    Node u learns the origins at hop distance r in round r and, while r < D,
    forwards them to every neighbor: one message of 2 + t scalars per
    origin. One `_frontier_bfs` from every node over the shadow CSR, cut at
    D, gives each (origin, node) pair's round. Returns padded, (t, n).
    """
    t, n = assign.shape
    indptr, indices = g.shadow_csr()
    origin, node, _, _, level = _frontier_bfs(indptr, indices, np.arange(n), D)
    # round r < D runs if some node learned an origin at hop r and has a neighbour
    rounds = min(D, int(level.max()) + 1) if len(indices) else 0
    sends = level < rounds
    at, learned = np.unique(level[sends] * n + node[sends], return_counts=True)
    transcript.send(np.repeat((2 + t) * learned, np.diff(indptr)[at % n]))
    transcript.charge("gather", rounds)
    vectors = assign.T  # row v: node v's center in every iteration
    order = np.argsort(node, kind="stable")
    node, origin = node[order], origin[order]
    # every node learned itself, so each has a nonempty run of pairs
    start = np.searchsorted(node, np.arange(n + 1))
    unpadded = np.empty((n, t), dtype=bool)
    # blocks of whole runs of at most _PROBE_CELLS pairs times iterations
    # (at least one run) bound the comparison's temporaries
    per_block = max(1, _PROBE_CELLS // t)
    u = 0
    while u < n:
        v = max(u + 1, int(np.searchsorted(start, start[u] + per_block, "right")) - 1)
        p, q = start[u], start[v]
        unpadded[u:v] = np.logical_or.reduceat(
            vectors[node[p:q]] != vectors[origin[p:q]], start[u:v] - p)
        u = v
    return np.ascontiguousarray(~unpadded.T)


def _phase_gather(params, floods, assign, padded, sources, transcript):
    """Route per-iteration node reports to cluster centers along flood trees.

    Report (i, u) names node u and, when u is padded in iteration i, the
    demands whose source it is: 5 scalars plus one per demand. In each round
    every report not yet at its center c moves one hop, to the neighbor that
    delivered c's flood to the node holding it, read with one searchsorted
    in `floods.key`, whose own integer type the queries take so that no
    search converts the table. A node sends each neighbor one
    message holding every report it forwards there that round. The rounds
    are the longest path, and `check_rounds` times out past decide_round +
    2, as on the engine. Returns the `Gathered` clusters and trees.
    """
    t, n = assign.shape
    max_rounds = decide_round(params) + 2
    it, node = np.divmod(np.arange(t * n), n)
    center = assign.ravel()
    key, cluster = np.unique(it * n + center, return_inverse=True)
    by_cluster = np.argsort(cluster, kind="stable")
    member_ptr = np.searchsorted(cluster[by_cluster], np.arange(len(key) + 1))
    # demand indices by source: resident[res_ptr[u]:res_ptr[u + 1]]
    resident = np.argsort(sources, kind="stable")
    res_ptr = np.searchsorted(sources[resident], np.arange(n + 1))
    held = np.diff(res_ptr)[node] * padded.ravel()
    dem = resident[run_slots(res_ptr[node], held)]
    dem_cluster = np.repeat(cluster, held)
    by_demand = np.lexsort((dem, dem_cluster))
    demand_ptr = np.searchsorted(dem_cluster[by_demand], np.arange(len(key) + 1))

    size = 5 + held
    walk = np.flatnonzero(center != node)
    at = node[walk]
    none = np.zeros(0, dtype=np.int64)
    hops = [(none, none, none)]
    r = 0
    while len(walk):
        want = (at * t + it[walk]) * n + center[walk]
        row = np.searchsorted(floods.key, want.astype(floods.key.dtype))
        nxt = floods.via[row]
        per_link = np.unique(at * n + nxt, return_inverse=True)[1]
        transcript.send(np.bincount(per_link, size[walk]))
        hops.append((cluster[walk] * n + at, nxt, floods.hop[row]))
        r += 1
        check_rounds(r, max_rounds)
        home = nxt == center[walk]
        walk, at = walk[~home], nxt[~home]
    transcript.charge("gather", r)

    edge, parent, depth = map(np.concatenate, zip(*hops))
    edge, first = np.unique(edge, return_index=True)
    tree_cluster, child = np.divmod(edge, n)
    return Gathered(key, member_ptr, node[by_cluster], demand_ptr,
                    dem[by_demand], tree_cluster, child, parent[first],
                    depth[first])


def _solve_clusters(instance, gathered, t, lp_cache=None):
    """Centers solve their cluster programs; clusters with the same members
    and demands share one solve.

    Returns the distinct solutions, each gathered cluster's index into them,
    and per iteration the dict center -> solution.
    """
    cache: dict[tuple, CpSolution] = {} if lp_cache is None else lp_cache
    n = instance.graph.n
    solutions: list[dict[int, CpSolution]] = [dict() for _ in range(t)]
    members, mptr = gathered.members.tolist(), gathered.member_ptr.tolist()
    demands, dptr = gathered.demands.tolist(), gathered.demand_ptr.tolist()
    distinct: list[CpSolution] = []
    index: dict[tuple, int] = {}
    of = np.empty(len(gathered.key), dtype=np.int64)
    for k, ic in enumerate(gathered.key.tolist()):
        sig = (tuple(members[mptr[k]:mptr[k + 1]]),
               tuple(demands[dptr[k]:dptr[k + 1]]))
        j = index.get(sig)
        if j is None:
            cluster = frozenset(sig[0])
            sol = cache.get((cluster, sig[1]))
            if sol is None:
                sol = solve_cluster_cp(instance, cluster,
                                       demand_indices=list(sig[1]))
                cache[cluster, sig[1]] = sol
            j = index[sig] = len(distinct)
            distinct.append(sol)
        of[k] = j
        i, c = divmod(ic, n)
        solutions[i][c] = distinct[j]
    return distinct, of, solutions


def _solution_size(sol: CpSolution) -> int:
    """Scalars a solution takes in a message: its nonzero x, its flows and
    two more."""
    return int(np.count_nonzero(sol.x)) + sum(len(f) for f in sol.flows.values()) + 2


def _phase_broadcast(params, assign, gathered, payload, transcript) -> np.ndarray:
    """Send each cluster solution back down the tree its gather used.

    A center holds its solution from round 0 and a tree node at depth h gets
    it in round h, from its parent, and passes it on to its own children.
    The gather's trees are whole (each parent is the center or a tree node
    one level up) and no deeper than its rounds, so every tree edge carries.
    A node sends each child one message holding every solution it passes
    there that round, 3 scalars plus the solution's size each. The rounds
    are the deepest tree node, and `check_rounds` times out past
    decide_round + 2, as on the engine. `payload[k]` is the size of cluster
    k's solution.

    Returns delivered, (t, n): the cluster whose solution reached node u for
    its own cluster in iteration i, or -1.
    """
    t, n = assign.shape
    max_rounds = decide_round(params) + 2
    k, child, parent, depth = (gathered.cluster, gathered.child,
                               gathered.parent, gathered.depth)
    it, center = np.divmod(gathered.key, n)
    rnd = depth - 1  # a parent at depth h sends in round h
    per_link = np.unique((rnd * n + parent) * n + child, return_inverse=True)[1]
    transcript.send(np.bincount(per_link, (3 + payload)[k]))
    rounds = int(depth.max(initial=0))
    check_rounds(rounds, max_rounds)
    transcript.charge("solve-broadcast", rounds)

    delivered = np.full((t, n), -1, dtype=np.int64)
    own = np.flatnonzero(assign[it, center] == center)
    delivered[it[own], center[own]] = own
    mine = np.flatnonzero(assign[it[k], child] == center[k])
    delivered[it[k[mine]], child[mine]] = k[mine]
    return delivered


def _assemble(instance, config, assign, padded, delivered, solved, radii,
              transcript) -> DistributedRun:
    """Cap-averaged edge vector, endpoint consistency check, and records."""
    g = instance.graph
    t = len(radii)
    eps = config.epsilon
    sols, sol_of, solutions = solved
    us, vs = g.tail, g.head
    same = assign[:, us] == assign[:, vs]  # (t, m)

    missing = same & ((delivered[:, us] < 0) | (delivered[:, vs] < 0))
    if missing.any():
        e = int(np.nonzero(missing.any(axis=0))[0][0])
        raise AssemblyError(f"missing broadcast solution at edge {e}")
    # the x vectors of the distinct solutions, then a zero row that a
    # delivery of -1 picks
    xs = np.stack([sol.x for sol in sols] + [np.zeros(g.m)])
    held = np.append(sol_of, len(sols))[delivered]  # (t, n): row of xs
    edge_ids = np.arange(g.m)

    def average(ends):
        # each endpoint sums, in iteration order, the x_e of its own
        # delivered solutions over the iterations it shares a cluster with
        # the other end; the sums start from +0.0, as a running total does
        x = np.where(same, xs[held[:, ends], edge_ids], 0.0)
        total = np.add.accumulate(x, axis=0)[-1] + 0.0
        return np.minimum(1.0, (1 + eps) / t * total)

    val_u, val_v = average(us), average(vs)
    off = np.abs(val_u - val_v) > 1e-12
    if off.any():
        e = int(np.nonzero(off)[0][0])
        raise AssemblyError(
            f"endpoint disagreement on edge {e}: {val_u[e]} vs {val_v[e]}"
        )
    broken = np.argwhere(padded[:, us] & ~same)
    if broken.size:
        raise AssemblyError(f"padding bookkeeping violated at edge {broken[0, 1]}")

    records = [
        IterationRecord(
            index=i,
            clustering=Clustering(assignment=assign[i], radii=radii[i]),
            solutions=solutions[i], padded=padded[i], edge_same=same[i],
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
    counts = {}
    if sources:  # a run with demands has t >= 1 records
        padded_count = np.stack([rec.padded for rec in run.records]).sum(axis=0)
        counts = {u: int(padded_count[u]) for u in sources}
    passed = {u: counts[u] > threshold for u in sources}
    return ConcentrationReport(counts=counts, threshold=threshold, passed=passed)
