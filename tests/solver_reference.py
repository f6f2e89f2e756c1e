"""The solver's per-node probe, gather and broadcast on the LOCAL engine, the
reference the array phases in `padspan.distributed` are tested against: one
`step` per node and round on `run_protocol`, each node holding its own
`_A2State`. Not collected by pytest."""

import numpy as np

from padspan.decomposition import decide_round
from padspan.localsim import NodeStep, run_protocol


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
        self.solutions: dict[int, object] = {}


def node_states(floods, centers):
    """One `_A2State` per node from `carve`'s floods and (n, t) centers."""
    n, t = centers.shape
    node, flood_key = np.divmod(floods.key, t * n)
    rows = np.searchsorted(node, np.arange(n + 1))
    return [
        _A2State(flood_key[a:b], floods.via[a:b], centers[u])
        for u, (a, b) in enumerate(zip(rows[:-1], rows[1:]))
    ]


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
            outbox = [(w, forward, size) for w in g.neighbors(u)]
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
    r_gather = decide_round(params)
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


def _phase_broadcast(g, params, states, t, solutions, transcript) -> None:
    """Send each cluster solution back down the recorded gather tree."""
    r_bcast = decide_round(params)
    size_cache: dict[int, int] = {}

    def sol_size(sol) -> int:
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
