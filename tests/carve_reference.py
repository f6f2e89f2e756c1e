"""The per-node carving flood on the LOCAL engine, the reference the array
`carve` is tested against: one `step` per node and round on `run_protocol`,
each node keeping per iteration a dict of accepted floods and a domination
staircase (`_admit`). Not collected by pytest."""

from bisect import bisect_left, bisect_right

import numpy as np

from padspan.decomposition import decide_round
from padspan.localsim import NodeStep, run_protocol


def _admit(stair: tuple[list[int], list[int]], origin: int, budget: int) -> bool:
    """Add (origin, budget) to a domination staircase unless it is dominated.

    An entry is dominated when an accepted smaller-id origin has at least as
    much budget left. The staircase `(origins, rems)` keeps only the
    undominated accepted entries: origins ascending with remaining budget
    strictly increasing, so the best budget among smaller ids is the one just
    left of `origin`'s insertion point, and the entries the new one dominates
    are a contiguous run right of it. Returns whether the entry was added.
    """
    origins, rems = stair
    j = bisect_left(origins, origin)
    if j and rems[j - 1] >= budget:
        return False
    end = bisect_right(rems, budget, j)
    origins[j:end] = (origin,)
    rems[j:end] = (budget,)
    return True


def carve_reference(g, params, radii, transcript):
    """Run t carving floods at once, bundled into one message stream.

    `radii` is (t, n): node u floods (iteration i, id u, remaining budget)
    with budget floor(radii[i, u]). A node accepts the first arrival of each
    origin unless a smaller-id origin with at least as much budget left was
    accepted already, and forwards what it accepts while budget remains. It
    then joins, per iteration, the smallest accepted id.

    Each node keeps, per iteration, a domination staircase next to its
    accepted floods (see `_admit`), so testing an arrival costs a bisection
    rather than a scan of everything accepted.

    Returns, per node and iteration, the accepted floods (origin -> (hop
    distance, remaining budget, delivering neighbor)), and the (n, t) center
    matrix.
    """
    t, n = radii.shape
    r_decide = decide_round(params)
    budgets = np.floor(radii).astype(np.int64).tolist()
    init = [
        ([{u: (0, budgets[i][u], u)} for i in range(t)],
         [([u], [budgets[i][u]]) for i in range(t)])
        for u in range(n)
    ]
    adj = [g.neighbors(u) for u in range(n)]

    def step(u: int, state, inbox, rnd: int) -> NodeStep:
        accepted, stairs = state
        # what this step accepted with budget left, and who delivered it
        fresh: list[tuple[int, int, int]] = []
        froms: list[int] = []
        if rnd == 0:
            for i, acc in enumerate(accepted):
                if acc[u][1] >= 1:
                    fresh.append((i, u, acc[u][1] - 1))
                    froms.append(u)
        else:
            arrivals = [
                (i, origin, rem, src)
                for src, entries in inbox for i, origin, rem in entries
            ]
            arrivals.sort()
            for i, origin, rem, src in arrivals:
                acc = accepted[i]
                if origin in acc or not _admit(stairs[i], origin, rem):
                    continue
                acc[origin] = (rnd, rem, src)
                if rem >= 1:
                    fresh.append((i, origin, rem - 1))
                    froms.append(src)
        # a neighbor gets every fresh entry it did not deliver itself
        outbox = []
        if fresh:
            for w in adj[u]:
                e = fresh if w not in froms else [
                    entry for entry, src in zip(fresh, froms) if src != w
                ]
                if e:
                    outbox.append((w, e, 3 * len(e)))
        return NodeStep(state, outbox, done=rnd >= r_decide, wake=r_decide)

    final, _ = run_protocol(
        g, step, init, max_rounds=r_decide + 2,
        transcript=transcript, phase="decomposition",
    )
    accepted = [acc for acc, _ in final]
    centers = np.array(
        [[min(acc) for acc in node] for node in accepted], dtype=np.int64
    )
    return accepted, centers
