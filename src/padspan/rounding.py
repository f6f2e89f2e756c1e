"""Local randomized rounding of fractional solutions.

Thin demands are covered by inflating each edge value into an independent
inclusion probability; thick demands are covered by sampling shortest-path
in/out-arborescences from random roots, truncated at the distance bound. A
power rounding (x ** (1/k)) targets the lowest-degree variant. Edge e's
coin and node v's root coin are positions e and v of two counter-based
streams per iteration, which the edge's smaller-ID endpoint and v compute
alone, so the distributed protocol and the centralized sampler draw
identical outputs from one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cp import CpInstance
from .graphs import Graph, UNREACHABLE, as_edge_vector, directed_distances_from, truncated_arborescence
from .localsim import NodeStep, RoundTranscript, rng_stream, run_protocol


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
        raise KeyError(f"edge {e} not in output")


def edge_probability(n: int, x_e: float) -> float:
    return min(math.sqrt(n) * math.log(n) * x_e, 1.0)


def root_probability(n: int) -> float:
    return min(3 * math.log(n) / math.sqrt(n), 1.0)


def _edge_coins(g: Graph, seed: int, iteration: int) -> np.ndarray:
    """One uniform coin per edge: edge e's is the e-th uniform of the
    iteration's edge stream.

    The smaller-ID endpoint owns the edge and computes coin e alone, from a
    fresh stream with the same key advanced to block e // 4; both the
    centralized and the distributed rounding consume the same draws.
    """
    return rng_stream(seed, "round-edge", iteration).random(g.m)


def round_spanner(
    g: Graph, x, depth: int, seed: int, iteration: int = 0
) -> SpannerOutput:
    """One rounding draw: inflated edge sampling plus random arborescences.

    Each edge joins independently with probability min(sqrt(n)*ln(n)*x_e, 1);
    each node becomes a root with probability 3*ln(n)/sqrt(n) and contributes
    its in- and out-arborescences truncated at `depth`.
    """
    x = as_edge_vector(g, x)
    n = g.n
    coins = _edge_coins(g, seed, iteration)
    sampled = frozenset(
        e for e in range(g.m) if coins[e] < edge_probability(n, x[e])
    )
    root_coins = rng_stream(seed, "round-root", iteration).random(n)
    p_root = root_probability(n)
    roots = [v for v in range(n) if root_coins[v] < p_root]
    tree_edges: set[int] = set()
    for v in roots:
        for orientation in ("in", "out"):
            arb = truncated_arborescence(g, v, depth, orientation)
            tree_edges.update(g.edge_index[e] for e in arb.edges)
    return SpannerOutput(
        sampled=sampled, tree_edges=frozenset(tree_edges), roots=tuple(roots)
    )


def round_spanner_distributed(
    g: Graph, x, depth: int, seed: int, iteration: int = 0,
    transcript: RoundTranscript | None = None,
) -> tuple[SpannerOutput, RoundTranscript]:
    """LOCAL protocol for the same rounding distribution.

    Round 0 exchanges owned-edge coin outcomes; level announcements then grow
    every sampled root's in- and out-arborescence one hop per round, so the
    whole rounding costs depth + O(1) rounds. Output equals round_spanner for
    the same seed.
    """
    x = as_edge_vector(g, x)
    n = g.n
    coins = _edge_coins(g, seed, iteration)
    root_coins = rng_stream(seed, "round-root", iteration).random(n)
    p_root = root_probability(n)

    class _RState:
        __slots__ = ("sampled", "is_root", "levels", "parents")

        def __init__(self):
            self.sampled: set[int] = set()
            self.is_root = False
            # (root, kind) -> level joined / parent node
            self.levels: dict[tuple[int, str], int] = {}
            self.parents: dict[tuple[int, str], int] = {}

    states = [_RState() for _ in range(n)]

    def step(u: int, st: _RState, inbox, rnd: int) -> NodeStep:
        per_nbr: dict[int, list] = {}
        announce: list[tuple[int, str, int]] = []
        if rnd == 0:
            for e, (a, b) in enumerate(g.edges):
                if min(a, b) != u:
                    continue
                hit = bool(coins[e] < edge_probability(n, x[e]))
                if hit:
                    st.sampled.add(e)
                other = b if a == u else a
                per_nbr.setdefault(other, []).append(("coin", e, hit))
            if root_coins[u] < p_root:
                st.is_root = True
                st.levels[(u, "out")] = 0
                st.levels[(u, "in")] = 0
                announce = [(u, "out", 0), (u, "in", 0)]
        else:
            joins: dict[tuple[int, str], list[int]] = {}
            for src, entries in inbox:
                for item in entries:
                    if item[0] == "coin":
                        _, e, hit = item
                        if hit:
                            st.sampled.add(e)
                        continue
                    _, root, kind, level = item
                    key = (root, kind)
                    if key in st.levels:
                        continue
                    # out-trees grow along edge direction, in-trees against it
                    fwd = (src, u) if kind == "out" else (u, src)
                    if fwd in g.edge_index or (not g.directed and (fwd[1], fwd[0]) in g.edge_index):
                        joins.setdefault(key, []).append(src)
            for key, candidates in joins.items():
                root, kind = key
                level = rnd
                if level > depth:
                    continue
                st.levels[key] = level
                st.parents[key] = min(candidates)
                announce.append((root, kind, level))
        if announce and rnd < depth:
            for w in g.shadow_adj[u]:
                per_nbr.setdefault(w, []).extend(
                    ("tree", root, kind, level) for root, kind, level in announce
                )
        outbox = [(w, entries, 3 * len(entries)) for w, entries in per_nbr.items()]
        return NodeStep(st, outbox, done=True)

    if transcript is None:
        transcript = RoundTranscript()
    final, transcript = run_protocol(
        g, step, states, max_rounds=depth + 2,
        transcript=transcript, phase="rounding",
    )
    sampled: set[int] = set()
    tree_edges: set[int] = set()
    roots = []
    for u, st in enumerate(final):
        sampled |= st.sampled
        if st.is_root:
            roots.append(u)
        for (root, kind), parent in st.parents.items():
            e = (parent, u) if kind == "out" else (u, parent)
            idx = g.edge_index.get(e)
            if idx is None and not g.directed:
                idx = g.edge_index[(e[1], e[0])]
            tree_edges.add(idx)
    out = SpannerOutput(
        sampled=frozenset(sampled), tree_edges=frozenset(tree_edges),
        roots=tuple(roots),
    )
    return out, transcript


def round_low_degree(g: Graph, x, k: int, seed: int, iteration: int = 0) -> frozenset[int]:
    """Independent inclusion with probability x_e ** (1/k)."""
    x = as_edge_vector(g, x)
    if k < 1:
        raise RoundingError(f"stretch must be >= 1, got {k}")
    if np.any(x > 1 + 1e-12):
        raise RoundingError("edge values must lie in [0, 1]; cap upstream")
    coins = _edge_coins(g, seed, iteration)
    probs = np.minimum(x, 1.0) ** (1.0 / k)
    return frozenset(e for e in range(g.m) if coins[e] < probs[e])


def verify_stretch(
    g: Graph, out_edges, instance: CpInstance
) -> tuple[bool, list[int]]:
    """Check every demand's distance bound inside the rounded subgraph.

    Returns (all satisfied, indices of violated demands); distances are
    directed BFS hops restricted to the output edges.
    """
    edge_pairs = [g.edges[e] for e in sorted(out_edges)]
    violations = []
    by_source: dict[int, list[int]] = {}
    for i, d in enumerate(instance.demands):
        by_source.setdefault(d.u, []).append(i)
    for u, dids in sorted(by_source.items()):
        dist = directed_distances_from(g, u, allowed_edges=edge_pairs)
        for i in dids:
            d = instance.demands[i]
            if dist[d.v] == UNREACHABLE or dist[d.v] > d.bound:
                violations.append(i)
    return (not violations, sorted(violations))


def classify_edges(g: Graph, instance: CpInstance) -> list[str]:
    """Label each demand thick or thin by its allowed-path node count.

    A demand is thick when the union of nodes on its allowed paths has at
    least sqrt(n) members (boundary inclusive); arborescence sampling covers
    thick demands, edge sampling the thin ones.
    """
    threshold = math.sqrt(g.n)
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
