"""The per-node spanner rounding on the LOCAL engine, the reference that
`round_spanner_distributed` and `round_spanner` are tested against: one
`step` per node and round on `run_protocol`, each node holding its own
`_RState`. Not collected by pytest."""

import padspan.rounding as rounding
from padspan.graphs import Graph, as_edge_vector
from padspan.localsim import NodeStep, RoundTranscript, rng_stream, run_protocol
from padspan.rounding import SpannerOutput, _edge_coins, edge_probability


def round_spanner_reference(
    g: Graph, x, depth: int, seed: int, iteration: int = 0,
    transcript: RoundTranscript | None = None,
) -> tuple[SpannerOutput, RoundTranscript]:
    """Round 0 exchanges owned-edge coin outcomes; level announcements then
    grow every sampled root's in- and out-arborescence one hop per round, so
    the whole rounding costs depth + O(1) rounds."""
    x = as_edge_vector(g, x)
    n = g.n
    coins = _edge_coins(g, seed, iteration)
    root_coins = rng_stream(seed, "round-root", iteration).random(n)
    p_root = rounding.root_probability(n)

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
