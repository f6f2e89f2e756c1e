"""Sampling padded decompositions: ball-carving partitions whose clusters have
bounded diameter and which keep each radius-k ball intact with probability at
least 1 - epsilon.

Every sampler takes its radii from `draw_radii`: node v's radius in
iteration i is position i·n + v of one counter-based stream keyed by the
seed, so the solver and the batch sampler draw all their iterations as one
span of it. The vectorized centralized sampler is the reference, and the
batch sampler runs its assignment once per iteration. `carve` is the one
message-passing flood: it runs t carvings bundled into one message stream,
and in each one every node joins the smallest id whose flood reached it.
It simulates each LOCAL round as one sort and a few linear passes over
every node and iteration at once: the round's entries are expanded over
the shadow CSR in one `run_slots` into copies, each one packed integer,
and `_merge` sorts them with every node-iteration's domination staircase
into one array, in which one running maximum admits them. The centers are
the heads of the final staircases, and `Floods` keeps the three columns
the solver's gather reads. The rounds run over blocks of iterations of a
fixed size in slots, so a round's temporaries stay bounded at the paper's
t. It charges the transcript's ledger (`send`, `check_rounds`) as the
engine would charge the per-node protocol that the tests hold it to. The
distributed sampler is its t=1 case, which reads the centers without
building `Floods`, and matches the centralized sampler exactly when the
permutation is node-ID order and the seed and iteration are the same; the
distributed solver runs all its iterations as one `carve`.

The checks read only what decides them. `padded_mask` is the one central
padding test, is B(u, k) inside u's cluster; it spreads a cut frontier from
the cross-cluster shadow arcs for floor(k) passes and reads no distances.
The solver's nodes decide the same fact locally from what they probed.
`_assign` reads each block of centers' distances to the nodes still
unassigned only. `validate_clustering` and `sample_assignments_batch`
settle the diameter bound by twice the largest center distance, and
measure the diameters only when that leaves it open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, as_index, run_slots, run_starts
from .localsim import RoundTranscript, check_rounds, rng_stream
# perfbench/spans.py wraps decomposition.run_protocol by name (ROADMAP item 2)
from .localsim import run_protocol  # noqa: F401


#: Entries one block of a check reads at once: distances for `_assign` and
#: `cluster_diameters_batch`, shadow slots times rows for `padded_mask`. It
#: keeps their temporaries at a few hundred kilobytes, where whole (n, n)
#: arrays would be allocated and page-faulted afresh on every call.
_PAIR_BLOCK = 1 << 15

#: Adjacency slots times iterations in one block of a `carve`'s iterations.
#: A round expands each entry of a block over its node's slots, so its
#: temporaries grow with the block, not with t.
_BLOCK_SLOTS = 1 << 18


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
        if not self.k >= 0:
            raise DecompositionError(f"k must be nonnegative, got {self.k}")
        if math.isinf(self.k):
            raise DecompositionError(f"k must be finite, got {self.k}")
        if not (0 < self.epsilon <= 1):
            raise DecompositionError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if as_index(self.n, "n", DecompositionError) < 1:
            raise DecompositionError(f"n must be positive, got {self.n}")

    @property
    def r(self) -> float:
        return (2.0 / self.epsilon) * self.k

    @property
    def radius_cap(self) -> float:
        return self.r * math.log(self.n) + self.k


def _check_size(g: Graph, params: PaddedParams) -> None:
    """Raise unless `params.n`, which the radii and rounds read, is g's n."""
    if params.n != g.n:
        raise DecompositionError(f"params are for n={params.n}, the graph has {g.n} nodes")


def sample_radius(params: PaddedParams, u: float | np.ndarray) -> float | np.ndarray:
    """Carving radii by inverse CDF of uniforms `u` in [0, 1) (a float or an
    array; the result has its shape).

    The density (n/(n-1)) * exp(-z/r) / r on [0, r ln n] inverts to
    z = -r * ln(1 - u*(n-1)/n). As u < 1, z stays below r ln n, so no clamp
    is needed and `radius_cap` bounds every radius, loosely by k.
    """
    n = params.n
    if n < 2:
        raise DecompositionError(f"radius sampling needs n >= 2, got {n}")
    u = np.asarray(u, dtype=float)
    if params.k == 0:
        return np.zeros(u.shape)[()]
    return (-params.r * np.log1p(-u * (n - 1) / n))[()]


def draw_radii(params: PaddedParams, seed: int, iteration) -> np.ndarray:
    """The n = `params.n` carving radii of one iteration, or the
    (len(iteration), n) radii of a 1-D array of iterations. Node v's radius
    in iteration i comes from position i·n + v of the one stream keyed by
    `seed`, so every sampler draws the same radii. Philox is counter-based,
    so node v computes its own alone, from a fresh stream advanced to block
    (i·n + v) // 4. A single node has nothing to carve: its radius is 0. A
    seed or iteration that is not a nonnegative integer raises
    DecompositionError.

    Iterations lo to hi are one draw of (hi - lo + 1)·n uniforms, after the
    stream advances to the block of position lo·n and skips lo·n % 4 (Philox
    emits four uniforms per block).
    """
    n, its = params.n, np.asarray(iteration)
    if (as_index(seed, "seed", DecompositionError) < 0
            or its.dtype.kind not in "iu" or np.any(its < 0)):
        raise DecompositionError(f"seed {seed} and iteration {iteration} "
                                 "must be nonnegative integers")
    if n == 1 or not its.size:
        return np.zeros(its.shape + (n,))
    lo, hi = int(its.min()), int(its.max())
    rng = rng_stream(seed, "decomp-radius")
    rng.bit_generator.advance(lo * n // 4)
    rng.random(lo * n % 4)
    u = rng.random((hi - lo + 1) * n).reshape(-1, n)
    return sample_radius(params, u[its - lo])


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
    """Each node joins the permutation-earliest center whose radius reaches it.

    The centers go in permutation order, in blocks of about `_PAIR_BLOCK`
    distances that read only the columns of the nodes still unassigned.
    Each node a block reaches takes its first reaching center, and the loop
    ends once every node has one: every node reaches itself, and hop
    distances are symmetric, so d(center, u) decides. Each radius is
    clipped at n - 1, which every finite distance is within and the
    matrix's unreachable sentinel is past. A node no center reaches (a NaN
    radius) keeps rank 0, as a full scan's argmax gives it.
    """
    dist = g.distance_matrix()
    reach = np.minimum(radii, g.n - 1)
    rank = np.zeros(g.n, dtype=np.int64)
    left = np.arange(g.n)
    a = 0
    while len(left) and a < g.n:
        centers = pi_order[a:a + max(1, _PAIR_BLOCK // len(left))]
        reached = dist[np.ix_(centers, left)] <= reach[centers, None]
        first = np.argmax(reached, axis=0)
        hit = reached[first, np.arange(len(left))]
        rank[left[hit]] = a + first[hit]
        left = left[~hit]
        a += len(centers)
    return pi_order[rank].astype(np.int64)


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
    _check_size(g, params)
    radii = draw_radii(params, seed, iteration)
    pi_order = _carving_order(seed, iteration, g.n, permutation)
    return Clustering(assignment=_assign(g, radii, pi_order), radii=radii)


def _carving_order(seed: int, iteration: int, n: int,
                   permutation: str) -> np.ndarray:
    """The centralized sampler's center order: seeded or node-ID order."""
    if permutation == "random":
        return rng_stream(seed, "decomp-perm", iteration).permutation(n)
    if permutation == "ids":
        return np.arange(n)
    raise DecompositionError(f"unknown permutation source {permutation!r}")


# -- the carving flood ------------------------------------------------------


def decide_round(params: PaddedParams) -> int:
    """Round at which every flood has certainly arrived.

    Budgets never exceed the radius cap and hop distances never exceed n-1;
    nodes know n, so they can decide at the smaller of the two.
    """
    return min(math.ceil(params.radius_cap), params.n - 1)


@dataclass(frozen=True)
class Floods:
    """Every flood a `carve` accepted, one row per (node, iteration, origin),
    ascending by its `key` (node * t + iteration) * n + origin: the round
    `hop` it arrived in and the neighbor `via` that delivered it (the node
    itself for its own flood). All three take the carve's integer type."""

    key: np.ndarray
    hop: np.ndarray
    via: np.ndarray


def _flood_dtype(n: int, t: int, dmax: int, bmax: int) -> type:
    """The integer type of a carve's packed values, keys and CSR copies.

    A value packs a key below t·n², a copy bit, a row position below
    max(1, dmax) and a budget of at most `bmax` (see `_merge`), so every
    value, and every key, count and lifted budget a round computes, is below
    2·t·n²·max(1, dmax)·(bmax + 1): int32 while that is below 2³¹, int64
    while it is below 2⁶³. Past that no integer type holds a round.
    """
    bound = 2 * t * n * n * max(1, dmax) * (bmax + 1)
    if bound < 2**31:
        return np.int32
    if bound < 2**63:
        return np.int64
    raise DecompositionError(
        f"a carve of n={n}, t={t}, degree {dmax} and budget {bmax} packs "
        f"values up to {bound}, past int64")


def _merge(stair: np.ndarray, copies: np.ndarray, n: int, P: int, B: int
           ) -> tuple[np.ndarray, np.ndarray]:
    """Admit one round's copies against the domination staircases.

    Values pack ((key * 2 + copy) * P + pos) * B + rem: the key (group *
    n + origin, a group being one node-iteration), a copy bit, the row
    position below P of the neighbor that sent a copy, and the budget below
    B left. The staircase `stair` is ascending, with copy bits clear, and
    holds per group the accepted entries no smaller origin dominates: origins
    ascending, budgets strictly increasing. `copies` come in any order.

    One sort puts every group in the order a node stepping alone reads its
    inbox: origins ascending, each origin's staircase entry ahead of its
    copies, the copies by sender. So the first entry of each origin is its
    staircase entry, making its copies re-arrivals, or the copy from the
    smallest sender. One running maximum of the budgets per group decides
    the rest: an entry is admitted, or stays on the staircase, iff its
    budget exceeds every one before it in its group. Later copies have the
    first one's budget, and a re-arrival less than the entry it was accepted
    with or the one that dominated that, so these are rejected.

    Returns the next staircase (the admitted copies added with copy bits
    cleared, the entries they dominate dropped) and the admitted copies.
    """
    merged = np.concatenate((stair, copies))
    merged.sort()
    # lift each group above every earlier one, so one running maximum never
    # carries a budget across a group boundary: group * B + budget, which is
    # merged - (q - group) * B for q = merged // B. Scalar division is
    # vectorized in numpy and `%` is not
    lifted = merged // B
    lifted -= lifted // (n * 2 * P)
    lifted *= B
    np.subtract(merged, lifted, out=lifted)
    keep = np.ones(len(merged), dtype=bool)
    np.greater(lifted[1:], np.maximum.accumulate(lifted)[:-1], out=keep[1:])
    del lifted
    # masks select through index lists: on masks as scattered as these,
    # numpy's boolean indexing is several times slower
    kept = merged[np.flatnonzero(keep)]
    del merged, keep
    new = np.flatnonzero(kept // (P * B) & 1)
    admitted = kept[new]
    kept[new] = admitted - P * B
    return kept, admitted


def _carve_rounds(
    g: Graph, params: PaddedParams, radii: np.ndarray, transcript: RoundTranscript
) -> tuple[list, np.ndarray]:
    """The rounds of `carve`, without the `Floods` build. Returns the
    accepted floods as chunks of (hop, key, via), each chunk ascending, and
    the (n, t) center matrix."""
    n = g.n
    radii = np.asarray(radii, dtype=float)
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
    tn = t * n
    r_decide = decide_round(params)
    indptr, indices = g.shadow_csr()
    dmax = int(np.diff(indptr).max(initial=0))
    bmax = int(np.floor(radii.max()))
    dtype = _flood_dtype(n, t, dmax, bmax)
    # the radices of `_merge`'s packed values, and one key's span of them
    P, B = max(1, dmax), bmax + 1
    K = 2 * P * B
    budget = np.floor(radii).ravel().astype(dtype)  # budget[i * n + origin]
    indptr, indices = indptr.astype(dtype), indices.astype(dtype)
    slots = len(indices)
    # slot (u, w) -> the part of a copy's value its slot decides: w * t·n·K
    # plus the copy bit and the position of u in w's row. The shadow is
    # symmetric and its rows ascending, so sorting the slots by (w, u) lists
    # w's row in order, and positions order the senders as their ids do
    tail = np.repeat(np.arange(n, dtype=dtype), np.diff(indptr))
    by_head = np.lexsort((tail, indices))
    code = np.empty(slots, dtype=dtype)
    code[by_head] = np.arange(slots, dtype=dtype) - indptr[indices[by_head]]
    code += P
    code *= B
    code += indices * (tn * K)
    centers = np.empty((n, t), dtype=np.int64)

    # one block of iterations a..b-1 per state [a, b, key, rem, back,
    # stair]: the entries its last round admitted, each with the slot of its
    # node's row that holds the neighbor that delivered it (`slots` for a
    # node's own flood), and its staircases. Each starts from its nodes' own
    # floods, node-major
    step = max(1, _BLOCK_SLOTS // max(1, slots))
    blocks, chunks = [], []
    for a in range(0, t, step):
        b = min(a + step, t)
        node = np.repeat(np.arange(n, dtype=dtype), b - a)
        key = node * tn + np.tile(np.arange(a * n, b * n, n, dtype=dtype), n) + node
        rem = budget[key % tn]
        back = np.full(len(key), slots, dtype=dtype)
        blocks.append([a, b, key, rem, back, key * K + rem])
        chunks.append((0, key, node))

    r = 0
    while True:
        # one message per adjacency slot (u, w) with an entry for w in some
        # block; its payload holds the entries of every block
        per_slot = None
        for blk in list(blocks):
            a, b, key, rem, back, stair = blk
            # each entry with budget left goes to every neighbor of its node
            # u but the one that delivered it: one `run_slots` over the rows,
            # one slot short where the row holds `back`, with the slots from
            # `back` on moved up by one
            live = np.flatnonzero(rem >= 1)
            key, rem, back = key[live], rem[live], back[live]
            sender = key // tn
            start = indptr[sender]
            deg = indptr[sender + 1] - start - (back < slots)
            slot = run_slots(start, deg)
            if not len(slot):
                # nothing more to accept: each staircase's head is its
                # smallest accepted origin, which nothing dominates
                key = stair // K
                centers[:, a:b] = (key[run_starts(key // n)] % n).reshape(n, b - a)
                blocks.remove(blk)
                continue
            slot += slot >= np.repeat(back, deg)
            copies = np.repeat((key - sender * tn) * K + rem - 1, deg)
            copies += code[slot]
            del key, rem, back, sender, start, deg
            count = np.bincount(slot, minlength=slots)
            per_slot = count if per_slot is None else per_slot + count
            del slot
            stair, admitted = _merge(stair, copies, n, P, B)
            del copies
            key, rem = np.divmod(admitted, B)
            del admitted
            key, back = np.divmod(key, P)
            key //= 2
            back += indptr[key // tn]
            blk[2:] = key, rem, back, stair
            chunks.append((r + 1, key, indices[back]))
        if per_slot is None:
            transcript.charge("decomposition", max(r, r_decide))
            return chunks, centers
        transcript.send(3 * per_slot[per_slot > 0])
        r += 1
        check_rounds(r, r_decide + 2)


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

    Each round is one sort and a few linear passes over every node and
    iteration at once. An accepted flood is keyed (node * t + iteration) * n
    + origin. The entries a round admitted with budget left are expanded
    over their senders' rows with one `run_slots` into copies, one packed
    integer each, and `_merge` admits them against every node-iteration's
    domination staircase. A staircase's head is its smallest accepted
    origin, which nothing can dominate, so the centers are the heads of the
    final staircases, which `sample_decomposition_distributed` takes without
    the `Floods` build. Every array takes `_flood_dtype`'s integer type.

    The iterations meet only in the transcript, so the rounds run over
    blocks of iterations, each of at most `_BLOCK_SLOTS` adjacency slots
    times iterations (at least one iteration), which bounds a round's
    temporaries however large t is. The transcript is charged as the engine
    would charge a per-node protocol: each round's per-slot entry counts are
    summed over the blocks, and `send` gets one message of 3 scalars per
    entry from u to each neighbor w that gets an entry in any block; rounds
    run up to the first round from `decide_round` on in which nothing is
    sent, and `check_rounds` raises `ProtocolTimeout` past `decide_round` +
    2. `tests/carve_reference.py` holds the per-node flood this must equal.

    Returns the accepted floods and the (n, t) center matrix.
    """
    _check_size(g, params)
    chunks, centers = _carve_rounds(g, params, radii, transcript)
    hop, key, via = zip(*chunks)
    del chunks
    # the chunks are each ascending, so one stable sort merges them; each
    # field is merged and its chunks dropped in turn, to stay near the result
    key = np.concatenate(key)
    order = np.argsort(key, kind="stable")
    key = key[order]
    hop = np.repeat(np.array(hop, dtype=key.dtype), [len(v) for v in via])[order]
    via = np.concatenate(via)[order]
    return Floods(key, hop, via), centers


def sample_decomposition_distributed(
    g: Graph,
    params: PaddedParams,
    seed: int,
    iteration: int = 0,
) -> tuple[Clustering, RoundTranscript]:
    """Sample a padded decomposition with the LOCAL flood protocol.

    The one-carving case of `carve`: every node draws its radius, floods its
    id, and adopts the smallest node id whose flood reached it. The
    permutation is therefore ascending node id; output equals the centralized
    sampler run with permutation="ids" and the same seed/iteration.
    """
    _check_size(g, params)
    transcript = RoundTranscript()
    radii = draw_radii(params, seed, iteration)
    _, centers = _carve_rounds(g, params, radii[None, :], transcript)
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
    permutation="ids" it is also the distributed sampler's clustering. The
    radii of every row come from one `draw_radii` call. Every sampled
    clustering is checked against the 2x radius-cap diameter bound.
    """
    _check_size(g, params)
    if as_index(count, "count", DecompositionError) < 0:
        raise DecompositionError(f"count must be >= 0, got {count}")
    radii = draw_radii(params, seed, np.arange(count))
    out = np.empty((count, g.n), dtype=np.int64)
    for s in range(count):
        out[s] = _assign(g, radii[s], _carving_order(seed, s, g.n, permutation))
    cap, cap2 = params.radius_cap, 2 * params.radius_cap
    # as in `validate_clustering`: twice the largest center distance bounds
    # a sample's diameters, only the samples it leaves open are measured,
    # and each bound is clipped at n - 1
    far = g.distance_matrix()[out, np.arange(g.n)].max(axis=1, initial=0)
    unsettled = np.flatnonzero(far > min(cap, g.n - 1))
    for s, diams in zip(unsettled.tolist(),
                        cluster_diameters_batch(g, out[unsettled])):
        diam = max(diams.values())
        if diam > min(cap2, g.n - 1):
            raise DecompositionError(
                f"sample {s}: cluster diameter {diam} exceeds {cap2}"
            )
    return out


def padded_mask(g: Graph, assignments: np.ndarray, k: float) -> np.ndarray:
    """(s, n) booleans for an (s, n) assignment array: is B(u, k), the nodes
    within k hops of u in the shadow, contained in u's cluster, for every
    clustering and node u. The labels may be of any type that compares.

    A shortest path from u to its nearest node outside u's cluster runs
    inside the cluster up to its last hop, so u is unpadded iff a node
    within floor(k) - 1 hops of u along same-cluster shadow arcs has a
    neighbour in another cluster. A cut frontier decides it with no
    distances: the first pass over the shadow CSR slots marks the tails of
    the cross-cluster slots, each later one, up to floor(k) in all, marks
    the tails of same-cluster slots whose head is marked, and the passes
    stop early once one adds nothing. Blocks of rows keep a pass's
    temporaries at about `_PAIR_BLOCK` slots.
    """
    if not k >= 0:
        raise DecompositionError(f"k must be nonnegative, got {k}")
    mask = np.ones(assignments.shape, dtype=bool)
    passes = int(min(k, g.n))
    if passes == 0:
        return mask
    indptr, indices = g.shadow_csr()
    tail = np.repeat(np.arange(g.n), np.diff(indptr))
    step = max(1, _PAIR_BLOCK // max(1, len(indices)))
    for a in range(0, len(assignments), step):
        rows = assignments[a:a + step]
        marked = np.zeros(rows.shape, dtype=bool)
        row, slot = np.nonzero(rows[:, tail] != rows[:, indices])
        marked[row, tail[slot]] = True
        for _ in range(passes - 1):
            # slots whose head is marked and whose tail is not; the tail of
            # a cross-cluster slot is marked already, so these are
            # same-cluster slots
            row, slot = np.nonzero(marked[:, indices] > marked[:, tail])
            if not len(row):
                break
            marked[row, tail[slot]] = True
        mask[a:a + step] = ~marked
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
    _check_size(g, params)
    n = g.n
    assign, radii = clustering.assignment, clustering.radii
    if assign.shape != (n,):
        raise DecompositionError("assignment is not total")
    if assign.dtype.kind not in "iu":
        raise DecompositionError(f"cluster ids must be integers, got {assign.dtype}")
    if radii.shape != (n,):
        raise DecompositionError(f"radii have shape {radii.shape}, expected ({n},)")
    foreign = (assign < 0) | (assign >= n)
    if foreign.any():
        u = int(np.argmax(foreign))
        raise DecompositionError(f"node {u}: cluster id {assign[u]} is not a node")
    # each bound is clipped at n - 1, which every finite distance is within
    # and the matrix's unreachable sentinel is past
    cap = params.radius_cap
    d_c = g.distance_matrix()[assign, np.arange(n)]
    r_c = radii[assign]
    bad = ~((d_c <= np.minimum(r_c, n - 1)) & (r_c <= cap + 1e-12))
    if bad.any():
        u = int(np.argmax(bad))
        raise DecompositionError(
            f"node {u}: d(center {assign[u]}, u)={d_c[u]} vs radius {r_c[u]}"
        )
    # d(u, v) <= d(u, c) + d(c, v) bounds each diameter by twice its
    # largest center distance; only a cap within 1e-12 below an integer
    # leaves room for a breach, and then the diameters decide
    if d_c.max(initial=0) <= min(cap, n - 1):
        return
    for c, d_max in cluster_diameters(g, clustering).items():
        if d_max > min(2 * cap, n - 1):
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
    distances, unless one run is longer. A label that is not a node raises
    DecompositionError: the pairs are keyed by row * n + label, so it would
    share another row's key.
    """
    s, n = assignments.shape
    foreign = (assignments < 0) | (assignments >= n)
    if foreign.any():
        row, u = divmod(int(np.argmax(foreign)), n)
        raise DecompositionError(
            f"row {row}, node {u}: cluster id {assignments[row, u]} is not a node")
    dist = g.distance_matrix()
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
