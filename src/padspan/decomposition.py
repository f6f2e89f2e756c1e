"""Sampling padded decompositions: ball-carving partitions whose clusters have
bounded diameter and which keep each radius-k ball intact with probability at
least 1 - epsilon.

Every sampler takes its radii from `draw_radii`, one stream per iteration.
The vectorized centralized sampler is the reference, and the batch sampler
runs it once per iteration. `carve` is the one message-passing flood: it
runs t carvings bundled into one message stream, and in each one every node
joins the smallest id whose flood reached it. It simulates each LOCAL round
as a few array operations over every node and iteration at once, and charges
the transcript as the engine would charge the per-node protocol that the
tests hold it to. The distributed sampler is its t=1 case and matches the
centralized sampler exactly when the permutation is node-ID order and the
seed and iteration are the same; the distributed solver runs all its
iterations as one `carve`. `padded_mask` is the one central padding test,
is B(u, k) inside u's cluster; the solver's nodes decide the same fact
locally from what they probed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, run_slots
from .localsim import ProtocolTimeout, RoundTranscript, rng_stream
# perfbench/spans.py wraps decomposition.run_protocol by name (ROADMAP item 6)
from .localsim import run_protocol  # noqa: F401


#: Distances one block of a dense-metric computation reads at once: row
#: blocks keep the temporaries of `_assign`, `padded_mask` and
#: `cluster_diameters_batch` at a few hundred kilobytes, where whole (n, n)
#: arrays would be allocated and page-faulted afresh on every call.
_PAIR_BLOCK = 1 << 15


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
    first_rank = np.empty(g.n, dtype=np.int64)
    step = max(1, _PAIR_BLOCK // g.n)
    for a in range(0, g.n, step):
        # reached[u, j]: the j-th node in permutation order reaches node u
        # (hop distances are symmetric, so row u of the metric serves)
        reached = (dist[a:a + step] <= radii)[:, pi_order]
        first_rank[a:a + step] = np.argmax(reached, axis=1)
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


def decide_round(params: PaddedParams, n: int) -> int:
    """Round at which every flood has certainly arrived.

    Budgets never exceed the radius cap and hop distances never exceed n-1;
    nodes know n, so they can decide at the smaller of the two.
    """
    return min(math.ceil(params.radius_cap), n - 1)


@dataclass(frozen=True)
class Floods:
    """Every flood a `carve` accepted, one row per (node, iteration, origin)
    in that order: the round `hop` it arrived in, the budget `rem` it had
    left, and the neighbor `via` that delivered it (the node itself for its
    own flood)."""

    node: np.ndarray
    iteration: np.ndarray
    origin: np.ndarray
    hop: np.ndarray
    rem: np.ndarray
    via: np.ndarray


def _running_max(group: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Per entry, the largest earlier value of its group, or -1 for a group's
    first entry. `group` must be ascending and `vals` nonnegative."""
    if not len(vals):
        return vals
    # lift each group above every earlier one, so one running maximum
    # never carries a value across a group boundary
    base = group * (int(vals.max()) + 2)
    run = np.maximum.accumulate(base + vals)
    before = np.empty_like(run)
    before[0] = -1
    before[1:] = run[:-1]
    return np.maximum(before, base - 1) - base


def _admit_batch(
    stair_key: np.ndarray, stair_rem: np.ndarray,
    key: np.ndarray, rem: np.ndarray, n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Admit one round's arrivals against the domination staircases.

    Keys are group * n + origin, and the arrival keys are ascending and
    unique. The staircase holds, per group, the accepted entries no smaller
    origin dominates: ascending keys, remaining budget strictly increasing.
    An arrival is admitted iff its origin is not accepted yet and its budget
    exceeds that of every accepted smaller origin of its group and of every
    smaller one admitted in this batch. A rejected arrival's budget is at
    most that bound, so the bound is a running maximum over the batch merged
    with the staircase entry at or left of each arrival. Taking the entry at
    the arrival's own key rejects an accepted origin, as long as it comes
    back with less budget than it was accepted with, as every flood does:
    its staircase entry, or the one that dominated it, has more left.

    Returns the admitted mask and the staircase with the admitted entries
    added and the ones they dominate dropped.
    """
    group = key // n
    pos = np.searchsorted(stair_key, key, side="right")
    best = np.full(len(key), -1, dtype=np.int64)
    has = pos > 0
    has[has] = stair_key[pos[has] - 1] // n == group[has]
    best[has] = stair_rem[pos[has] - 1]
    admitted = rem > np.maximum(best, _running_max(group, rem))
    stair_key = np.insert(stair_key, pos[admitted], key[admitted])
    stair_rem = np.insert(stair_rem, pos[admitted], rem[admitted])
    keep = stair_rem > _running_max(stair_key // n, stair_rem)
    return admitted, stair_key[keep], stair_rem[keep]


def _send(
    indptr: np.ndarray, indices: np.ndarray, fresh: tuple, t: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Expand one round's sent entries over the adjacency (CSR `indptr`,
    `indices`): each entry goes to every neighbor of its sender but the one
    that delivered it. Returns the entry count of each adjacency slot (u, w)
    and each arrival's key ((dst * t + iteration) * n + origin) * n + sender.
    """
    sender, iteration, origin, deliverer = fresh
    deg = indptr[sender + 1] - indptr[sender]
    slot = run_slots(indptr[sender], deg)
    dst = indices[slot]
    arrived = np.repeat((iteration * n + origin) * n + sender, deg)
    arrived += dst * (t * n * n)
    sent = dst != np.repeat(deliverer, deg)
    return np.bincount(slot[sent], minlength=len(indices)), arrived[sent]


def carve(
    g: Graph, params: PaddedParams, radii: np.ndarray, transcript: RoundTranscript
) -> tuple[Floods, np.ndarray]:
    """Run t carving floods at once, bundled into one message stream.

    `radii` is (t, n): node u floods (iteration i, id u, remaining budget)
    with budget floor(radii[i, u]). A node accepts the first arrival of each
    origin unless a smaller-id origin with at least as much budget left was
    accepted already, and forwards what it accepts while budget remains, to
    every neighbor but the one that delivered it. It then joins, per
    iteration, the smallest accepted id.

    Each round is a few array operations over every node and iteration at
    once. `_send` expands the entries sent in a round over the adjacency
    into arrivals. One sort by (node, iteration, origin, sender) puts each
    node's inbox in the order a node stepping alone would read it, so the
    first copy of each origin is the one from the smallest sender.
    `_admit_batch` then admits the arrivals against each node-iteration's
    staircase. The
    transcript is charged as the engine would charge a per-node protocol:
    one message of 3 scalars per entry from u to each neighbor w that gets
    an entry, rounds up to the first round from `decide_round` on in which
    nothing is sent, and `ProtocolTimeout` past `decide_round` + 2.
    `tests/carve_reference.py` holds the per-node flood this must equal.

    Returns the accepted floods and the (n, t) center matrix.
    """
    n = g.n
    radii = np.asarray(radii, dtype=float)
    if params.n != n:
        raise DecompositionError(
            f"params are for n={params.n}, the graph has {n} nodes")
    if radii.ndim != 2 or radii.shape[0] < 1 or radii.shape[1] != n:
        raise DecompositionError(
            f"radii have shape {radii.shape}, expected (t >= 1, {n})")
    if not (np.isfinite(radii) & (radii >= 0)).all():
        raise DecompositionError("radii must be finite and nonnegative")
    over = radii > params.radius_cap
    if over.any():
        i, u = np.argwhere(over)[0]
        raise DecompositionError(
            f"iteration {i}, node {u}: radius {radii[i, u]} exceeds the "
            f"radius cap {params.radius_cap}")
    t = len(radii)
    r_decide = decide_round(params, n)
    budget = np.floor(radii).astype(np.int64).ravel()  # budget[i * n + origin]
    indptr, indices = g.shadow_csr()

    # accepted floods, keyed (node * t + iteration) * n + origin, one chunk
    # of key, hop, rem and via per round
    group = np.arange(n * t, dtype=np.int64)
    node, it = np.divmod(group, t)
    key = group * n + node
    rem = budget[it * n + node]
    chunks = [(key, np.zeros(n * t, dtype=np.int64), rem, node)]
    stair_key, stair_rem = key, rem
    # entries with budget left, to forward: sender, iteration, origin and
    # the neighbor that delivered them, who is not sent them back
    live = rem >= 1
    fresh = node[live], it[live], node[live], node[live]

    r = 0
    while True:
        per_slot, arrived = _send(indptr, indices, fresh, t, n)
        if not len(arrived):
            transcript.charge("decomposition", max(r, r_decide))
            break
        # one message per adjacency slot (u, w) with an entry for w
        transcript.total_messages += int(np.count_nonzero(per_slot))
        transcript.max_payload_scalars = max(
            transcript.max_payload_scalars, 3 * int(per_slot.max()))
        r += 1
        if r > r_decide + 2:
            raise ProtocolTimeout(
                f"no global termination within max_rounds={r_decide + 2}")
        # each node's inbox in reading order; the first copy of each
        # (node, iteration, origin) is the one from the smallest sender
        arrived.sort()
        akey = arrived // n
        first = np.ones(len(akey), dtype=bool)
        first[1:] = akey[1:] != akey[:-1]
        akey, src = akey[first], arrived[first] % n
        agroup, aorigin = np.divmod(akey, n)
        # every copy sent in round r - 1 has budget - r left on arrival
        arem = budget[(agroup % t) * n + aorigin] - r
        admitted, stair_key, stair_rem = _admit_batch(
            stair_key, stair_rem, akey, arem, n)
        akey, src, arem = akey[admitted], src[admitted], arem[admitted]
        chunks.append((akey, np.full(len(akey), r), arem, src))
        live = arem >= 1
        agroup, aorigin = np.divmod(akey[live], n)
        fresh = agroup // t, agroup % t, aorigin, src[live]

    key, hop, rem, via = map(np.concatenate, zip(*chunks))
    order = np.argsort(key)
    key, hop, rem, via = key[order], hop[order], rem[order], via[order]
    group, origin = np.divmod(key, n)
    node, it = np.divmod(group, t)
    first = np.ones(len(key), dtype=bool)
    first[1:] = group[1:] != group[:-1]
    centers = origin[first].reshape(n, t)
    return Floods(node, it, origin, hop, rem, via), centers


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
    for s in range(count):
        out[s] = sample_decomposition_centralized(
            g, params, seed, iteration=s, permutation=permutation
        ).assignment
    cap2 = 2 * params.radius_cap
    for s, diams in enumerate(cluster_diameters_batch(g, out)):
        diam = max(diams.values())
        if diam > cap2:
            raise DecompositionError(
                f"sample {s}: cluster diameter {diam} exceeds {cap2}"
            )
    return out


def padded_mask(g: Graph, assignments: np.ndarray, k: float) -> np.ndarray:
    """(s, n) booleans for an (s, n) assignment array: is B(u, k) contained
    in u's cluster, for every clustering and node u.

    One block of rows of one clustering at a time, so temporaries stay at
    about `_PAIR_BLOCK` entries.
    """
    dist = g.distance_matrix()
    mask = np.empty(assignments.shape, dtype=bool)
    step = max(1, _PAIR_BLOCK // g.n)
    for a in range(0, g.n, step):
        outside = dist[a:a + step] > k
        for s, assign in enumerate(assignments):
            mask[s, a:a + step] = np.all(
                (assign[a:a + step, None] == assign) | outside, axis=1)
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
    """Hop diameter of each cluster, measured in the communication graph,
    keyed by cluster id in the order of each cluster's smallest member."""
    return cluster_diameters_batch(g, clustering.assignment[None, :])[0]


def cluster_diameters_batch(g: Graph, assignments: np.ndarray) -> list[dict[int, int]]:
    """`cluster_diameters` of every row of an (s, n) assignment array.

    Each (row, node) pair finds its eccentricity inside its own cluster, and
    a cluster's diameter is the largest of its members'. On small graphs a
    block of whole rows compares every pair of their nodes at once. On large
    ones a stable sort of the pairs by (row, cluster id) makes each cluster
    one run, smallest node first, and a block of consecutive pairs reads its
    distances to the span of runs it covers and keeps per pair the largest
    inside its own run. Either way a block reads at most `_PAIR_BLOCK`
    distances, unless one run is longer.
    """
    dist = g.distance_matrix()
    s, n = assignments.shape
    label = (np.arange(s)[:, None] * n + assignments).ravel()
    order = np.argsort(label, kind="stable")
    node = order % n
    keys, start, size = np.unique(
        label[order], return_index=True, return_counts=True)
    if n * n <= _PAIR_BLOCK:
        ecc = np.empty((s, n), dtype=np.int64)
        step = _PAIR_BLOCK // (n * n)
        for j in range(0, s, step):
            a = assignments[j:j + step]
            same = a[:, :, None] == a[:, None, :]
            ecc[j:j + step] = np.where(same, dist, -1).max(axis=2)
        ecc = ecc.ravel()[order]
    else:
        which = np.repeat(np.arange(len(keys)), size)  # each pair's run
        run_start, run_end = start[which], (start + size)[which]
        ecc = np.empty(s * n, dtype=np.int64)
        a = 0
        while a < s * n:
            # pairs a..b-1 read the columns run_start[a]..run_end[b-1]
            rows = min(_PAIR_BLOCK // n, s * n - a)
            reads = np.arange(1, rows + 1) * (run_end[a:a + rows] - run_start[a])
            b = a + max(1, int(np.searchsorted(reads, _PAIR_BLOCK, "right")))
            lo = run_start[a]
            block = dist.take(node[a:b], 0).take(node[lo:run_end[b - 1]], 1)
            spans = np.maximum.reduceat(
                block, start[which[a]:which[b - 1] + 1] - lo, axis=1)
            ecc[a:b] = spans[np.arange(b - a), which[a:b] - which[a]]
            a = b
    diam = np.maximum.reduceat(ecc, start)
    row, ids = np.divmod(keys, n)
    # per row, clusters in the order of their smallest members
    by = np.lexsort((node[start], row))
    bounds = np.searchsorted(row[by], np.arange(s + 1))
    ids, diam = ids[by].tolist(), diam[by].tolist()
    return [dict(zip(ids[p:q], diam[p:q]))
            for p, q in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


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
