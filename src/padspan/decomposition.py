"""Sampling padded decompositions: ball-carving partitions whose clusters have
bounded diameter and which keep each radius-k ball intact with probability at
least 1 - epsilon.

Every sampler takes its radii from `draw_radii`, one stream per iteration.
The vectorized centralized sampler is the reference, and the batch sampler
runs it once per iteration. `carve` is the one message-passing flood on the
LOCAL engine: it runs t carvings bundled into one message stream, and in each
one every node joins the smallest id whose flood reached it. The distributed
sampler is its t=1 case and matches the centralized sampler exactly when the
permutation is node-ID order and the seed and iteration are the same; the
distributed solver runs all its iterations as one `carve`. `padded_mask` is
the one central padding test, is B(u, k) inside u's cluster; the solver's
nodes decide the same fact locally from what they probed.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .localsim import NodeStep, RoundTranscript, rng_stream, run_protocol


class DecompositionError(ValueError):
    """Invalid parameters or a clustering violating its invariants."""


@dataclass(frozen=True)
class PaddedParams:
    """Parameters of a (k, epsilon)-padded decomposition on an n-node graph.

    The carving radius is r = 2k/epsilon. Every drawn radius is below
    r*ln(n), so `radius_cap` = r*ln(n) + k bounds it, loosely by k.
    """

    k: float
    epsilon: float
    n: int

    def __post_init__(self):
        if self.k < 0:
            raise DecompositionError(f"k must be nonnegative, got {self.k}")
        if not (0 < self.epsilon <= 1):
            raise DecompositionError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.n < 1:
            raise DecompositionError(f"n must be positive, got {self.n}")

    @property
    def r(self) -> float:
        return (2.0 / self.epsilon) * self.k

    @property
    def radius_cap(self) -> float:
        return self.r * math.log(self.n) + self.k


def sample_radius(
    params: PaddedParams, u: float | np.ndarray, n: int | None = None
) -> float | np.ndarray:
    """Carving radii by inverse CDF of uniforms `u` in [0, 1) (a float or an
    array; the result has its shape).

    The density (n/(n-1)) * exp(-z/r) / r on [0, r ln n] inverts to
    z = -r * ln(1 - u*(n-1)/n). As u < 1, z stays below r ln n, so no clamp
    is needed and `radius_cap` bounds every radius, loosely by k.
    """
    if n is None:
        n = params.n
    if n < 2:
        raise DecompositionError(f"radius sampling needs n >= 2, got {n}")
    u = np.asarray(u, dtype=float)
    if params.k == 0:
        return np.zeros(u.shape)[()]
    return (-params.r * np.log1p(-u * (n - 1) / n))[()]


def draw_radii(params: PaddedParams, seed: int, iteration: int, n: int) -> np.ndarray:
    """The n carving radii of one iteration, from the iteration's one stream
    keyed by (seed, iteration): node v's radius comes from the stream's v-th
    uniform, so every sampler draws the same radii.

    The draw stays node-local: Philox is counter-based, so node v computes its
    own uniform alone, from a fresh stream with the same key advanced to block
    v // 4. A single node has nothing to carve: its radius is 0.
    """
    if n == 1:
        return np.zeros(1)
    return sample_radius(
        params, rng_stream(seed, "decomp-radius", iteration).random(n), n)


@dataclass
class Clustering:
    """A partition of nodes with per-node carving radii.

    Cluster ids are the center node indices: `assignment[u]` is the center
    of u's cluster.
    """

    assignment: np.ndarray
    radii: np.ndarray

    @property
    def centers(self) -> dict[int, int]:
        """Cluster id -> its center (the same node)."""
        return {int(c): int(c) for c in np.unique(self.assignment)}

    def clusters(self) -> dict[int, list[int]]:
        """Cluster id -> sorted member list."""
        out: dict[int, list[int]] = {}
        for u, c in enumerate(self.assignment):
            out.setdefault(int(c), []).append(u)
        return out

    def cluster_of(self, u: int) -> int:
        return int(self.assignment[u])


def _assign(g: Graph, radii: np.ndarray, pi_order: np.ndarray) -> np.ndarray:
    """Each node joins the permutation-earliest center whose radius reaches it."""
    dist = g.distance_matrix()
    # eligible[v, u]: node u is within v's carving radius
    eligible = dist <= radii[:, None]
    ordered = eligible[pi_order]
    first_rank = np.argmax(ordered, axis=0)
    return pi_order[first_rank].astype(np.int64)


def sample_decomposition_centralized(
    g: Graph,
    params: PaddedParams,
    seed: int,
    iteration: int = 0,
    permutation: str = "random",
) -> Clustering:
    """Sample one padded decomposition with the centralized reference sampler.

    `permutation` is either "random" (seeded Fisher-Yates) or "ids"
    (ascending node index, matching the distributed protocol). Radii come
    from `draw_radii`, identical to the draws the distributed protocol makes.
    """
    n = g.n
    radii = draw_radii(params, seed, iteration, n)
    if permutation == "random":
        pi_order = rng_stream(seed, "decomp-perm", iteration).permutation(n)
    elif permutation == "ids":
        pi_order = np.arange(n)
    else:
        raise DecompositionError(f"unknown permutation source {permutation!r}")
    return Clustering(assignment=_assign(g, radii, pi_order), radii=radii)


# -- the carving flood ------------------------------------------------------


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


def decide_round(params: PaddedParams, n: int) -> int:
    """Round at which every flood has certainly arrived.

    Budgets never exceed the radius cap and hop distances never exceed n-1;
    nodes know n, so they can decide at the smaller of the two.
    """
    return min(math.ceil(params.radius_cap), n - 1)


def carve(
    g: Graph, params: PaddedParams, radii: np.ndarray, transcript: RoundTranscript
) -> tuple[list[list[dict[int, tuple[int, int, int]]]], np.ndarray]:
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
    r_decide = decide_round(params, n)
    budgets = np.floor(radii).astype(np.int64).tolist()
    init = [
        ([{u: (0, budgets[i][u], u)} for i in range(t)],
         [([u], [budgets[i][u]]) for i in range(t)])
        for u in range(n)
    ]
    adj = g.shadow_adj

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


def sample_decomposition_distributed(
    g: Graph,
    params: PaddedParams,
    seed: int,
    iteration: int = 0,
    transcript: RoundTranscript | None = None,
) -> tuple[Clustering, RoundTranscript]:
    """Sample a padded decomposition with the LOCAL flood protocol.

    The one-carving case of `carve`: every node draws its radius, floods its
    id, and adopts the smallest node id whose flood reached it. The
    permutation is therefore ascending node id; output equals the centralized
    sampler run with permutation="ids" and the same seed/iteration.
    """
    if transcript is None:
        transcript = RoundTranscript()
    radii = draw_radii(params, seed, iteration, g.n)
    _, centers = carve(g, params, radii[None, :], transcript)
    return Clustering(assignment=centers[:, 0], radii=radii), transcript


# -- batch Monte Carlo sampling -------------------------------------------


def sample_assignments_batch(
    g: Graph,
    params: PaddedParams,
    seed: int,
    count: int,
    permutation: str = "random",
) -> np.ndarray:
    """Sample `count` clusterings; returns a (count, n) assignment array.

    Row s is `sample_decomposition_centralized` at iteration s, so with
    permutation="ids" it is also the distributed sampler's clustering. Every
    sampled clustering is checked against the 2x radius-cap diameter bound.
    """
    out = np.empty((count, g.n), dtype=np.int64)
    cap2 = 2 * params.radius_cap
    for s in range(count):
        clustering = sample_decomposition_centralized(
            g, params, seed, iteration=s, permutation=permutation
        )
        diam = max(cluster_diameters(g, clustering).values())
        if diam > cap2:
            raise DecompositionError(
                f"sample {s}: cluster diameter {diam} exceeds {cap2}"
            )
        out[s] = clustering.assignment
    return out


def padded_mask(g: Graph, assignments: np.ndarray, k: float) -> np.ndarray:
    """(s, n) booleans for an (s, n) assignment array: is B(u, k) contained
    in u's cluster, for every clustering and node u.

    One clustering at a time, so memory stays at one (n, n) comparison.
    """
    outside = g.distance_matrix() > k
    mask = np.empty(assignments.shape, dtype=bool)
    for s, assign in enumerate(assignments):
        mask[s] = np.all((assign[:, None] == assign[None, :]) | outside, axis=1)
    return mask


def padded_frequencies(g: Graph, assignments: np.ndarray, k: float) -> np.ndarray:
    """Per-node fraction of clusterings keeping B(u, k) in one cluster."""
    return padded_mask(g, assignments, k).mean(axis=0)


# -- invariant checks and serialization ----------------------------------


def validate_clustering(
    g: Graph, params: PaddedParams, clustering: Clustering
) -> None:
    """Assert partition totality, center distance, and diameter invariants.

    Every cluster id must be a node and there must be one radius per node.
    A failed per-node check names the smallest offending node.
    """
    n = g.n
    assign, radii = clustering.assignment, clustering.radii
    if assign.shape != (n,):
        raise DecompositionError("assignment is not total")
    if radii.shape != (n,):
        raise DecompositionError(f"radii have shape {radii.shape}, expected ({n},)")
    foreign = (assign < 0) | (assign >= n)
    if foreign.any():
        u = int(np.argmax(foreign))
        raise DecompositionError(f"node {u}: cluster id {assign[u]} is not a node")
    cap = params.radius_cap
    d_c = g.distance_matrix()[assign, np.arange(n)]
    r_c = radii[assign]
    bad = ~((d_c <= r_c) & (r_c <= cap + 1e-12))
    if bad.any():
        u = int(np.argmax(bad))
        raise DecompositionError(
            f"node {u}: d(center {assign[u]}, u)={d_c[u]} vs radius {r_c[u]}"
        )
    for c, d_max in cluster_diameters(g, clustering).items():
        if d_max > 2 * cap:
            raise DecompositionError(
                f"cluster {c} has hop diameter {d_max} > {2 * cap}"
            )


def cluster_diameters(g: Graph, clustering: Clustering) -> dict[int, int]:
    """Hop diameter of each cluster, measured in the communication graph."""
    dist = g.distance_matrix()
    out = {}
    for c, members in clustering.clusters().items():
        idx = np.array(members)
        out[c] = int(dist[np.ix_(idx, idx)].max())
    return out


def padded_nodes(g: Graph, clustering: Clustering, k: float) -> np.ndarray:
    """Boolean vector: is B(u, k) contained in u's cluster, for every u."""
    return padded_mask(g, clustering.assignment[None, :], k)[0]


CLUSTERING_CSV_HEADER = "node,cluster_id,center,r_v"


def clustering_csv(clustering: Clustering) -> str:
    """Serialize as CSV: one row per node."""
    lines = [CLUSTERING_CSV_HEADER]
    for u, c in enumerate(clustering.assignment):
        lines.append(f"{u},{int(c)},{int(c)},"
                     f"{float(clustering.radii[u])!r}")
    return "\n".join(lines) + "\n"
