"""Local randomized rounding of fractional solutions.

Thin demands are covered by inflating each edge value into an independent
inclusion probability; thick demands are covered by sampling shortest-path
in/out-arborescences from random roots, truncated at the distance bound. A
power rounding (x ** (1/k)) targets the lowest-degree variant. Edge e's
coin and node v's root coin are positions e and v of two counter-based
streams per iteration, which the edge's smaller-ID endpoint and v compute
alone, so the distributed protocol and the centralized sampler draw
identical outputs from one seed. Both grow their trees with
`graphs.arborescences`; the distributed one also charges the transcript's
ledger, one `send` of every message's size, as its per-node protocol on the
engine would, which `tests/rounding_reference.py` keeps and the tests hold
it to.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .cp import CpInstance, _simple_bound
from .graphs import Graph, GraphError, _hop_table, arborescences, as_edge_vector, as_index
from .localsim import RoundTranscript, rng_stream
# perfbench/spans.py wraps rounding.run_protocol by name (ROADMAP item 2)
from .localsim import run_protocol  # noqa: F401


class RoundingError(ValueError):
    pass


@dataclass
class SpannerOutput:
    """Rounded edge set with provenance.

    `sampled` holds indices drawn by the per-edge coins, `tree_edges` those
    contributed by sampled arborescences, `roots` the arborescence roots.
    """

    sampled: frozenset[int]
    tree_edges: frozenset[int]
    roots: tuple[int, ...]

    @property
    def edges(self) -> frozenset[int]:
        return self.sampled | self.tree_edges

    def provenance(self, e: int) -> str:
        in_s = e in self.sampled
        in_t = e in self.tree_edges
        if in_s and in_t:
            return "both"
        if in_s:
            return "sampled-thin"
        if in_t:
            return "arborescence"
        raise RoundingError(f"edge {e} not in output")


def edge_probability(n: int, x_e: float | np.ndarray) -> float | np.ndarray:
    """min(sqrt(n)*ln(n)*x_e, 1) of an edge value or an array of them."""
    return np.minimum(math.sqrt(n) * math.log(n) * x_e, 1.0)


def root_probability(n: int) -> float:
    return min(3 * math.log(n) / math.sqrt(n), 1.0)


def _edge_coins(g: Graph, seed: int, iteration: int) -> np.ndarray:
    """One uniform coin per edge: edge e's is the e-th uniform of the
    iteration's edge stream.

    The smaller-ID endpoint owns the edge and computes coin e alone, from a
    fresh stream with the same key advanced to block e // 4; both the
    centralized and the distributed rounding consume the same draws. A seed
    or iteration that is not a nonnegative integer raises RoundingError.
    """
    for name, value in (("seed", seed), ("iteration", iteration)):
        if as_index(value, name, RoundingError) < 0:
            raise RoundingError(f"{name} must be nonnegative, got {value}")
    return rng_stream(seed, "round-edge", iteration).random(g.m)


def _draw(
    g: Graph, x, depth: int, seed: int, iteration: int
) -> tuple[SpannerOutput, np.ndarray, np.ndarray]:
    """One rounding draw, and the node and level of every non-root node of
    its in- and out-arborescences, as `arborescences` returns them."""
    x = as_edge_vector(g, x)
    n = g.n
    sampled = _edge_coins(g, seed, iteration) < edge_probability(n, x)
    root_coins = rng_stream(seed, "round-root", iteration).random(n)
    roots = np.flatnonzero(root_coins < root_probability(n))
    _, node, _, edge, level = map(np.concatenate, zip(
        *(arborescences(g, roots, depth, o) for o in ("out", "in"))))
    out = SpannerOutput(
        sampled=frozenset(np.flatnonzero(sampled).tolist()),
        tree_edges=frozenset(edge.tolist()), roots=tuple(roots.tolist()),
    )
    return out, node, level


def round_spanner(
    g: Graph, x, depth: int, seed: int, iteration: int = 0
) -> SpannerOutput:
    """One rounding draw: inflated edge sampling plus random arborescences.

    Each edge joins independently with probability min(sqrt(n)*ln(n)*x_e, 1);
    each node becomes a root with probability 3*ln(n)/sqrt(n) and contributes
    its in- and out-arborescences truncated at `depth`.
    """
    return _draw(g, x, depth, seed, iteration)[0]


def round_spanner_distributed(
    g: Graph, x, depth: int, seed: int, iteration: int = 0,
) -> tuple[SpannerOutput, RoundTranscript]:
    """LOCAL protocol for the same rounding distribution.

    Round 0 sends each edge's coin from its owner, the smaller endpoint, to
    the other one; level announcements then grow every sampled root's in-
    and out-arborescence one hop per round, so the whole rounding costs
    depth + O(1) rounds. The output is `round_spanner`'s for the same seed;
    the transcript is charged as the per-node protocol in
    `tests/rounding_reference.py` charges it on the engine.
    """
    out, node, level = _draw(g, x, depth, seed, iteration)
    transcript = RoundTranscript()
    n = g.n
    # round 0: one message per (owner, other endpoint) pair, 3 scalars per
    # coin, plus a root's two level-0 announcements when trees grow at all;
    # a root's smaller neighbours get the announcements alone
    lo, hi = np.minimum(g.tail, g.head), np.maximum(g.tail, g.head)
    pair, coins = np.unique(lo * n + hi, return_counts=True)
    owner, other = np.divmod(pair, n)
    announces = np.zeros(n, dtype=bool)
    announces[list(out.roots)] = depth > 0
    below = int(np.bincount(other, minlength=n)[announces].sum())
    # round r, 0 < r < depth: a node that joined j trees at level r sends
    # each neighbour one message holding the j announcements
    sends = level < depth
    at, joins = np.unique(level[sends] * n + node[sends], return_counts=True)
    degree = np.diff(g.shadow_csr()[0])
    transcript.send(np.concatenate([
        3 * (coins + 2 * announces[owner]), np.full(below, 6),
        np.repeat(3 * joins, degree[at % n])]))
    # the engine stops after the first round that sends nothing
    last = int(level[sends].max(initial=0))
    transcript.charge("rounding", last + 1 if g.m else 0)
    return out, transcript


def round_low_degree(g: Graph, x, k: int, seed: int, iteration: int = 0) -> frozenset[int]:
    """Independent inclusion with probability x_e ** (1/k)."""
    x = as_edge_vector(g, x)
    if as_index(k, "stretch", RoundingError) < 1:
        raise RoundingError(f"stretch must be >= 1, got {k}")
    if np.any(x > 1 + 1e-12):
        raise RoundingError("edge values must lie in [0, 1]; cap upstream")
    coins = _edge_coins(g, seed, iteration)
    probs = np.minimum(x, 1.0) ** (1.0 / k)
    return frozenset(np.flatnonzero(coins < probs).tolist())


def verify_stretch(instance: CpInstance, out_edges) -> tuple[bool, list[int]]:
    """Check every demand's distance bound inside the rounded subgraph.

    Returns (all satisfied, indices of violated demands, ascending). A
    demand with a wholly kept allowed path is met, since every allowed path
    is simple and within its bound. The others are searched: distances are
    hops along the output edges' arcs in `instance.graph.arc_csr("out")`,
    from one search of their sources, with each bound cut to n - 1, which
    no hop distance exceeds. Edge indices outside 0..m-1 raise GraphError.
    """
    g = instance.graph
    chosen = np.fromiter(map(operator.index, out_edges), dtype=np.int64)
    bad = chosen[(chosen < 0) | (chosen >= g.m)]
    if len(bad):
        raise GraphError(f"edge {bad[0]} out of range for m={g.m}")
    kept_edge = np.zeros(g.m, dtype=bool)
    kept_edge[chosen] = True
    # every path has a hop, so no reduceat slice is empty
    whole = np.logical_and.reduceat(kept_edge[instance.hop_edge], instance.hop_ptr[:-1])
    met = np.zeros(len(instance.demands), dtype=bool)
    met[instance.path_owner[whole]] = True
    left = np.flatnonzero(~met)
    if not len(left):
        return (True, [])
    indptr, heads, ids = g.arc_csr("out")
    kept = kept_edge[ids]
    demands = [instance.demands[i] for i in left.tolist()]
    u, v, bound = np.array([(d.u, d.v, _simple_bound(g, d.bound)) for d in demands],
                           dtype=np.int64).T
    hops = _hop_table(np.r_[0, np.cumsum(kept)][indptr], heads[kept], u,
                      int(bound.max()))(np.arange(len(u)), v)
    violations = left[hops > bound].tolist()
    return (not violations, violations)


def classify_edges(instance: CpInstance) -> list[str]:
    """Label each demand thick or thin by its allowed-path node count.

    A demand is thick when the union of nodes on its allowed paths has at
    least sqrt(n) members of the instance's n nodes (boundary inclusive);
    arborescence sampling covers thick demands, edge sampling the thin ones.
    """
    threshold = math.sqrt(instance.graph.n)
    labels = []
    for fam in instance.families:
        nodes: set[int] = set()
        for p in fam:
            nodes.update(p)
        labels.append("thick" if len(nodes) >= threshold else "thin")
    return labels


def expected_sampled_size(g: Graph, x) -> float:
    """Mean number of coin-sampled edges (arborescences excluded)."""
    x = as_edge_vector(g, x)
    return float(sum(edge_probability(g.n, v) for v in x))


OUTPUT_CSV_HEADER = "edge,u,v,provenance"


def output_csv(g: Graph, out: SpannerOutput) -> str:
    """Provenance CSV for a rounded output."""
    lines = [OUTPUT_CSV_HEADER]
    for e in sorted(out.edges):
        u, v = g.edges[e]
        lines.append(f"{e},{u},{v},{out.provenance(e)}")
    return "\n".join(lines) + "\n"
