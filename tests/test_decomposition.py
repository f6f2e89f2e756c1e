import ast
import hashlib
import inspect
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padspan import decomposition
from padspan.decomposition import (
    CLUSTERING_CSV_HEADER,
    Clustering,
    DecompositionError,
    PaddedParams,
    _flood_dtype,
    _merge,
    carve,
    cluster_diameters,
    cluster_diameters_batch,
    clustering_csv,
    decide_round,
    draw_radii,
    padded_frequencies,
    padded_mask,
    padded_nodes,
    sample_assignments_batch,
    sample_decomposition_centralized,
    sample_decomposition_distributed,
    sample_radius,
    validate_clustering,
)
from padspan.cp import build_spanner_instance
from padspan.distributed import SolverConfig
from padspan.graphs import UNREACHABLE_HOPS, Graph
from padspan.harness import gen_cycle, gen_gnp, gen_grid
from padspan.localsim import RoundTranscript, rng_stream
from padspan.lp import cluster_demands

from carve_reference import _admit, carve_reference


def random_graph(data, n, directed):
    """A graph on n nodes with up to 2n edges drawn by hypothesis."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u < v]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                max_size=2 * n)) if pairs else []
    flips = data.draw(st.lists(st.booleans(), min_size=len(chosen),
                               max_size=len(chosen)))
    edges = [(v, u) if f else (u, v) for (u, v), f in zip(chosen, flips)]
    return Graph(n, edges, directed=directed)


#: The message of every (g, params) entry point given params for n=10**9 on
#: an 8x8 grid.
MISMATCH = "params are for n=1000000000, the graph has 64 nodes"


class TestParams:
    def test_derived_quantities_exact(self):
        p = PaddedParams(k=2, epsilon=0.25, n=16)
        assert p.r == (2 / 0.25) * 2
        assert p.radius_cap == p.r * math.log(16) + 2

    def test_epsilon_range(self):
        with pytest.raises(DecompositionError):
            PaddedParams(k=1, epsilon=0.0, n=4)
        with pytest.raises(DecompositionError):
            PaddedParams(k=1, epsilon=1.5, n=4)
        PaddedParams(k=1, epsilon=1.0, n=4)  # closed at 1

    def test_negative_k(self):
        with pytest.raises(DecompositionError):
            PaddedParams(k=-1, epsilon=0.5, n=4)

    def test_nan_k(self):
        # a NaN k would give a NaN radius cap, which every check passes
        with pytest.raises(DecompositionError, match="k must be nonnegative, got nan"):
            PaddedParams(k=math.nan, epsilon=0.5, n=4)

    def test_infinite_k(self):
        # an infinite k gave an infinite radius cap: the centralized sampler
        # put a whole 6-cycle in one cluster and `validate_clustering`
        # passed it, while the distributed sampler raised
        with pytest.raises(DecompositionError, match="k must be finite, got inf"):
            PaddedParams(k=math.inf, epsilon=0.5, n=6)

    def test_non_integer_n(self):
        with pytest.raises(DecompositionError, match="n 1.5 is not an integer"):
            PaddedParams(k=1, epsilon=0.5, n=1.5)


class TestSampleRadius:
    def test_u_zero_gives_zero(self):
        p = PaddedParams(k=1, epsilon=0.5, n=8)
        assert sample_radius(p, 0.0) == 0.0

    def test_u_near_one_approaches_support_end(self):
        p = PaddedParams(k=1, epsilon=0.5, n=8)
        z = sample_radius(p, 1 - 1e-12)
        assert abs(z - p.r * math.log(8)) < 1e-6

    def test_inverse_cdf_midpoint(self):
        # frozen from quadrature: integral of (n/(n-1)) e^{-z/r}/r over
        # [0, z*] equals 0.5 at z* = -6 ln(1 - 0.5 * 7/8)
        p = PaddedParams(k=3, epsilon=1.0, n=8)
        assert p.r == 6.0
        z = sample_radius(p, 0.5)
        assert abs(z - 3.452184869421371) < 1e-12

    def test_small_n_rejected(self):
        p = PaddedParams(k=1, epsilon=0.5, n=1)
        with pytest.raises(DecompositionError):
            sample_radius(p, 0.5)

    def test_never_exceeds_cap(self):
        p = PaddedParams(k=2, epsilon=0.25, n=32)
        z = sample_radius(p, rng_stream(0, "radius-test").random(200))
        assert z.shape == (200,)
        assert np.all((0 <= z) & (z <= p.radius_cap))

    def test_largest_uniform_stays_below_r_ln_n(self):
        # the largest double below 1 still inverts to at most r ln n, so the
        # radius cap r ln n + k never binds
        for n in (2, 16, 1024):
            p = PaddedParams(k=2, epsilon=0.5, n=n)
            assert sample_radius(p, 1 - 2**-53) <= p.r * math.log(n)


class TestCentralizedSampler:
    def graphs(self):
        return [
            gen_cycle(12, directed=False),
            gen_grid(3, 4),
            gen_gnp(14, 0.25, seed=3, directed=True),
            Graph(6, [(0, 1), (1, 2), (3, 4)], directed=False),  # disconnected
        ]

    def test_params_for_another_n_rejected(self):
        g = gen_grid(8, 8)
        params = PaddedParams(k=1, epsilon=0.5, n=10**9)
        with pytest.raises(DecompositionError, match=MISMATCH):
            sample_decomposition_centralized(g, params, 0)

    def test_invariants_across_samples(self):
        for g in self.graphs():
            params = PaddedParams(k=1, epsilon=0.5, n=g.n)
            for seed in range(5):
                c = sample_decomposition_centralized(g, params, seed)
                validate_clustering(g, params, c)

    def test_k_zero_singletons_are_valid_partition(self):
        g = gen_cycle(8, directed=False)
        params = PaddedParams(k=0, epsilon=0.5, n=8)
        c = sample_decomposition_centralized(g, params, 1)
        validate_clustering(g, params, c)
        assert len(c.centers) == 8

    def test_single_node_graph(self):
        g = Graph(1, [])
        params = PaddedParams(k=1, epsilon=0.5, n=1)
        c = sample_decomposition_centralized(g, params, 0)
        assert c.assignment.tolist() == [0]
        assert c.centers == {0: 0}
        d, transcript = sample_decomposition_distributed(g, params, 0)
        assert d.assignment.tolist() == [0]
        assert transcript.phase_rounds == {"decomposition": 0}

    def test_centers_within_own_radius(self):
        g = gen_gnp(20, 0.2, seed=5, directed=False)
        params = PaddedParams(k=2, epsilon=0.5, n=20)
        c = sample_decomposition_centralized(g, params, 9)
        d = g.distance_matrix()
        for u in range(20):
            cid = c.cluster_of(u)
            assert d[cid, u] <= c.radii[cid]

    def test_assign_matches_dense_formula(self):
        # reference: one (n, n) eligibility matrix, rows in permutation
        # order, first eligible row per column; n * n is above the block size
        for g in (gen_grid(16, 16), gen_gnp(200, 0.02, seed=5, directed=False)):
            rng = rng_stream(8, "assign-test", g.n)
            for _ in range(3):
                radii = rng.random(g.n) * 6
                pi = rng.permutation(g.n)
                eligible = g.distance_matrix() <= radii[:, None]
                expect = pi[np.argmax(eligible[pi], axis=0)]
                assert np.array_equal(decomposition._assign(g, radii, pi), expect)

    def test_permutation_changes_assignment_distribution(self):
        g = gen_cycle(16, directed=False)
        params = PaddedParams(k=1, epsilon=0.5, n=16)
        a = sample_decomposition_centralized(g, params, 4, permutation="random")
        b = sample_decomposition_centralized(g, params, 4, permutation="ids")
        assert np.array_equal(a.radii, b.radii)  # same radius draws

    def test_disconnected_components_stay_separate(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)], directed=False)
        params = PaddedParams(k=1, epsilon=0.5, n=6)
        for seed in range(10):
            c = sample_decomposition_centralized(g, params, seed)
            for u in range(6):
                same_side = (u < 3) == (c.cluster_of(u) < 3)
                assert same_side


#: Radius keys that are not nonnegative integers, with the error's message.
BAD_KEYS = [({"seed": 1.5}, "seed 1.5 is not an integer"),
            ({"seed": -3}, "seed -3 and iteration"),
            ({"iteration": 0.5}, "iteration 0.5 must be nonnegative integers"),
            ({"iteration": -2}, "iteration -2 must be nonnegative integers")]


class TestRadiusKeys:
    """`draw_radii` makes each sampler's first draw, so it types the keys:
    numpy's seeding raised TypeError or a bare ValueError for these."""

    @pytest.mark.parametrize("sampler", [sample_decomposition_centralized,
                                         sample_decomposition_distributed])
    @pytest.mark.parametrize("key, message", BAD_KEYS)
    def test_samplers_reject_bad_keys(self, sampler, key, message):
        g = gen_cycle(6, directed=False)
        params = PaddedParams(k=1, epsilon=0.5, n=6)
        with pytest.raises(DecompositionError, match=message):
            sampler(g, params, **{"seed": 1, "iteration": 0, **key})

    @pytest.mark.parametrize("key, message", BAD_KEYS[:2])
    def test_batch_rejects_bad_seeds(self, key, message):
        g = gen_cycle(6, directed=False)
        params = PaddedParams(k=1, epsilon=0.5, n=6)
        with pytest.raises(DecompositionError, match=message):
            sample_assignments_batch(g, params, key["seed"], 3)

    @pytest.mark.parametrize("its", [np.array([0.0, 1.0]), np.array([2, -1])])
    def test_iteration_arrays_checked(self, its):
        with pytest.raises(DecompositionError, match="must be nonnegative integers"):
            draw_radii(PaddedParams(k=1, epsilon=0.5, n=6), 1, its)


class TestValidateClustering:
    def path(self, n):
        g = Graph(n, [(i, i + 1) for i in range(n - 1)], directed=False)
        return g, PaddedParams(k=1, epsilon=0.5, n=n)

    def check(self, g, params, assignment, radii):
        validate_clustering(g, params, Clustering(
            assignment=np.array(assignment, dtype=np.int64),
            radii=np.array(radii, dtype=float)))

    def test_negative_cluster_id_rejected(self):
        # numpy would read id -1 as node 2, whose radius covers the path
        g, params = self.path(3)
        with pytest.raises(DecompositionError, match="node 0: cluster id -1"):
            self.check(g, params, [-1, -1, -1], [0, 0, 3])

    def test_cluster_id_past_last_node_rejected(self):
        g, params = self.path(3)
        with pytest.raises(DecompositionError, match="node 1: cluster id 3"):
            self.check(g, params, [0, 3, 3], [3, 0, 0])

    def test_float_cluster_ids_rejected(self):
        # numpy refused them as indices with an IndexError
        g, params = self.path(3)
        with pytest.raises(DecompositionError, match="cluster ids must be integers"):
            validate_clustering(g, params, Clustering(np.zeros(3), np.full(3, 3.0)))

    def test_radii_length_checked(self):
        g, params = self.path(3)
        with pytest.raises(DecompositionError, match="radii"):
            self.check(g, params, [0, 0, 0], [3, 0])

    def test_reports_smallest_offending_node(self):
        g, params = self.path(5)
        with pytest.raises(DecompositionError) as err:
            self.check(g, params, [0] * 5, [1, 0, 0, 0, 0])
        assert str(err.value) == "node 2: d(center 0, u)=2 vs radius 1.0"

    def test_radius_above_cap_rejected(self):
        g, params = self.path(3)
        with pytest.raises(DecompositionError) as err:
            self.check(g, params, [0, 0, 0], [10, 0, 0])
        assert str(err.value) == "node 0: d(center 0, u)=0 vs radius 10.0"

    def test_radius_past_the_sentinel_rejects_another_component(self):
        # the radius 1e6 and the cap 2.8e6 are both above the matrix's
        # unreachable sentinel, 32767
        g = Graph(4, [(0, 1), (2, 3)], directed=False)
        params = PaddedParams(k=1, epsilon=1e-6, n=4)
        assert params.radius_cap > np.iinfo(np.int16).max
        with pytest.raises(DecompositionError,
                           match=rf"node 3: d\(center 0, u\)={UNREACHABLE_HOPS} "):
            self.check(g, params, [0, 0, 2, 0], [1e6, 0, 1e6, 0])

    def test_params_for_another_n_rejected(self):
        # n=10**9 lifts the cap from 17.6 to 83.9, so one radius-40 cluster
        # over an 8x8 grid passed
        g = gen_grid(8, 8)
        params = PaddedParams(k=1, epsilon=0.5, n=10**9)
        with pytest.raises(DecompositionError, match=MISMATCH):
            self.check(g, params, [0] * 64, [40] * 64)


class TestDistributedSampler:
    def test_matches_centralized_with_id_permutation(self):
        cases = [
            gen_cycle(10, directed=False),
            gen_grid(4, 4),
            gen_gnp(18, 0.25, seed=2, directed=True),
            Graph(7, [(0, 1), (2, 3), (3, 4), (5, 6)], directed=False),
            gen_grid(16, 16),  # n * n above the block size: two row blocks
        ]
        for g in cases:
            params = PaddedParams(k=1, epsilon=0.5, n=g.n)
            for seed in (0, 1, 7):
                central = sample_decomposition_centralized(
                    g, params, seed, permutation="ids"
                )
                dist, _ = sample_decomposition_distributed(g, params, seed)
                assert np.array_equal(central.assignment, dist.assignment)
                assert np.array_equal(central.radii, dist.radii)

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=2, max_value=20),
        directed=st.booleans(),
        k=st.sampled_from([0, 1, 2]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_centralized_on_random_graphs(self, data, n, directed, k,
                                                  seed):
        g = random_graph(data, n, directed)
        params = PaddedParams(k=k, epsilon=0.5, n=n)
        central = sample_decomposition_centralized(g, params, seed,
                                                   permutation="ids")
        dist, _ = sample_decomposition_distributed(g, params, seed)
        assert np.array_equal(central.assignment, dist.assignment)
        assert np.array_equal(central.radii, dist.radii)
        # the bundled flood carves each iteration as the sampler would alone
        radii = np.stack([draw_radii(params, seed, i) for i in range(3)])
        _, centers = carve(g, params, radii, RoundTranscript())
        for i in range(3):
            alone = sample_decomposition_centralized(
                g, params, seed, iteration=i, permutation="ids")
            assert np.array_equal(centers[:, i], alone.assignment)

    def test_round_budget(self):
        g = gen_gnp(24, 0.2, seed=4, directed=False)
        params = PaddedParams(k=2, epsilon=0.5, n=24)
        _, transcript = sample_decomposition_distributed(g, params, 3)
        assert transcript.rounds_elapsed <= decide_round(params) + 1

    def test_star_epsilon_one_budget(self):
        n = 17
        g = Graph(n, [(0, i) for i in range(1, n)], directed=False)
        params = PaddedParams(k=1, epsilon=1.0, n=n)
        assert params.radius_cap == 2 * math.log(n) + 1
        _, transcript = sample_decomposition_distributed(g, params, 5)
        assert transcript.rounds_elapsed <= math.ceil(params.radius_cap) + 1

    def test_diameters_bounded_many_runs(self):
        g = gen_gnp(16, 0.25, seed=8, directed=False)
        params = PaddedParams(k=1, epsilon=0.5, n=16)
        cap2 = 2 * params.radius_cap
        for seed in range(25):
            c, _ = sample_decomposition_distributed(g, params, seed)
            assert max(cluster_diameters(g, c).values()) <= cap2


def flood_rows(floods, radii):
    """(node, iteration, origin, hop, rem, via) of every row `carve`
    returns, in order: the key split into its parts, and the budget left
    read off the radii."""
    t, n = radii.shape
    node, rest = np.divmod(floods.key.astype(np.int64), t * n)
    iteration, origin = np.divmod(rest, n)
    hop = floods.hop.astype(np.int64)
    rem = np.floor(radii).astype(np.int64)[iteration, origin] - hop
    return list(zip(*(a.tolist() for a in (
        node, iteration, origin, hop, rem, floods.via))))


def accepted_floods(floods, radii):
    """Per node and iteration, origin -> (hop, rem, via), from the flat
    rows `carve` returns: the shape the reference flood returns."""
    t, n = radii.shape
    accepted = [[{} for _ in range(t)] for _ in range(n)]
    for u, i, o, *entry in flood_rows(floods, radii):
        accepted[u][i][o] = tuple(entry)
    return accepted


def carve_digest(g, params, seed, t):
    """sha256 of canonical JSON of everything `carve` outputs: each node's
    accepted floods per iteration, the centers and the transcript."""
    radii = np.stack([draw_radii(params, seed, i) for i in range(t)])
    transcript = RoundTranscript()
    floods, centers = carve(g, params, radii, transcript)
    doc = {
        "accepted": [
            [sorted([o, *entry] for o, entry in acc.items()) for acc in node]
            for node in accepted_floods(floods, radii)
        ],
        "centers": centers.tolist(),
        "phase_rounds": transcript.phase_rounds,
        "total_messages": transcript.total_messages,
        "max_payload_scalars": transcript.max_payload_scalars,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def assert_carve_matches_reference(g, params, radii):
    got_t, want_t = RoundTranscript(), RoundTranscript()
    floods, centers = carve(g, params, radii, got_t)
    accepted, want_centers = carve_reference(g, params, radii, want_t)
    assert accepted_floods(floods, radii) == accepted
    assert np.array_equal(centers, want_centers)
    assert got_t == want_t


class TestCarve:
    @settings(max_examples=200, deadline=None)
    @given(offers=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 12)), max_size=60))
    def test_staircase_matches_definition(self, offers):
        # an offer is admitted iff no admitted smaller id has >= budget left
        origins, rems = stair = ([], [])
        admitted: dict[int, int] = {}
        for origin, budget in offers:
            if origin in admitted:
                continue
            expected = not any(o < origin and r >= budget
                               for o, r in admitted.items())
            assert _admit(stair, origin, budget) == expected
            if expected:
                admitted[origin] = budget
            assert origins == sorted(origins)
            assert all(a < b for a, b in zip(rems, rems[1:]))
            assert set(origins) <= set(admitted)

    @settings(max_examples=200, deadline=None)
    @given(
        start=st.lists(st.integers(0, 12), min_size=64, max_size=64),
        batches=st.lists(st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 15), st.integers(0, 3)),
            max_size=30), max_size=6),
    )
    def test_admit_batch_matches_definition(self, start, batches):
        # an arrival is admitted iff its origin is new to its group and no
        # admitted smaller origin of the group has >= budget left; a batch is
        # read in (group, origin) order, and as in a flood an origin offered
        # in batch j has j less budget than it started with. The copies of an
        # origin come in any order from senders at row positions below P,
        # and the one from the smallest position is the one admitted
        n, P, B = 16, 4, 13
        stair = np.zeros(0, dtype=np.int64)
        admitted: dict[tuple[int, int], int] = {}
        for j, batch in enumerate(batches):
            batch = [(grp, o, pos) for grp, o, pos in batch
                     if start[grp * n + o] >= j]
            sender: dict[tuple[int, int], int] = {}
            for grp, o, pos in batch:
                sender[grp, o] = min(pos, sender.get((grp, o), P))
            expected = []
            for grp, origin in sorted(sender):
                budget = start[grp * n + origin] - j
                ok = (grp, origin) not in admitted and not any(
                    g2 == grp and o < origin and r >= budget
                    for (g2, o), r in admitted.items())
                if ok:
                    admitted[grp, origin] = budget
                    expected.append(
                        (grp * n + origin, sender[grp, origin], budget))
            copies = np.array(
                [(((grp * n + o) * 2 + 1) * P + pos) * B + start[grp * n + o] - j
                 for grp, o, pos in batch], dtype=np.int64)
            stair, got = _merge(stair, copies, n, P, B)
            key, rem = np.divmod(got, B)
            key, pos = np.divmod(key, P)
            assert (key % 2 == 1).all()
            assert list(zip((key // 2).tolist(), pos.tolist(),
                            rem.tolist())) == expected
            # the staircase: per group, origins ascending, budgets strictly
            # increasing, exactly the admitted entries no smaller one
            # dominates, with their copy bits clear
            undominated = sorted(
                grp * n + o for (grp, o), r in admitted.items()
                if not any(g2 == grp and o2 < o and r2 >= r
                           for (g2, o2), r2 in admitted.items()))
            assert (stair // (2 * P * B)).tolist() == undominated
            assert (stair // (P * B) % 2 == 0).all()
            assert (stair % B).tolist() == [
                admitted[divmod(k, n)] for k in undominated]

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=20),
        directed=st.booleans(),
        k=st.sampled_from([0, 1, 2, 3]),
        epsilon=st.sampled_from([0.25, 0.5, 1.0]),
        t=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_reference_on_random_graphs(self, data, n, directed, k,
                                                epsilon, t, seed):
        g = random_graph(data, n, directed)
        params = PaddedParams(k=k, epsilon=epsilon, n=n)
        radii = np.stack([draw_radii(params, seed, i) for i in range(t)])
        assert_carve_matches_reference(g, params, radii)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=16),
        directed=st.booleans(),
        k=st.sampled_from([1, 2, 3]),
        t=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_iteration_blocks_match_reference(self, data, n, directed, k, t,
                                              seed):
        # a block budget below t iterations' slots, so several blocks of
        # iterations run side by side and share each round's messages
        g = random_graph(data, n, directed)
        slots = len(g.shadow_csr()[1])
        budget = data.draw(st.integers(1, max(1, slots * (t - 1))))
        assert max(1, budget // max(1, slots)) < t
        params = PaddedParams(k=k, epsilon=0.5, n=n)
        radii = np.stack([draw_radii(params, seed, i) for i in range(t)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decomposition, "_BLOCK_SLOTS", budget)
            assert_carve_matches_reference(g, params, radii)
            floods, centers = carve(g, params, radii, RoundTranscript())
        # each center is the smallest origin its node accepted in that
        # iteration: the head of the node-iteration's final staircase
        group, origin = np.divmod(floods.key, n)
        first = np.flatnonzero(np.diff(group, prepend=-1))
        assert np.array_equal(group[first], np.arange(n * t))
        smallest = np.minimum.reduceat(origin, first)
        assert np.array_equal(centers.ravel(), smallest)

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=2, max_value=20),
        directed=st.booleans(),
        k=st.sampled_from([0, 1, 2]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_sampler_skips_floods_but_matches_carve(self, data, n, directed,
                                                    k, seed):
        # the sampler takes its centers without building Floods; it still
        # equals carve at t=1 and the "ids" centralized sampler
        g = random_graph(data, n, directed)
        params = PaddedParams(k=k, epsilon=0.5, n=n)
        sampled, got = sample_decomposition_distributed(g, params, seed)
        want = RoundTranscript()
        _, centers = carve(g, params, sampled.radii[None, :], want)
        assert got == want
        assert np.array_equal(sampled.assignment, centers[:, 0])
        central = sample_decomposition_centralized(g, params, seed,
                                                   permutation="ids")
        assert np.array_equal(sampled.assignment, central.assignment)

    def test_paper_t_gnp_matches_reference(self):
        # the dsn-gnp shape: n=16 at the paper's t=200, with the solver's
        # padding parameter for epsilon=0.5 and a length bound of 4
        g = gen_gnp(16, 0.35, seed=5)
        params = PaddedParams(k=4, epsilon=SolverConfig(0.5, seed=3).lam, n=16)
        radii = np.stack([draw_radii(params, 3, i) for i in range(200)])
        assert_carve_matches_reference(g, params, radii)

    @pytest.mark.parametrize("width, case", [
        # 2·t·n²·dmax·(bmax + 1) = 2·4·1600·3·16 = 6.1e5: the int32 values
        # every bench workload uses
        (np.int32, "grid-2x20"),
        # the hub's degree 399 and bmax = 23 give 2·400²·399·24 = 3.1e9
        # > 2**31, so the values need int64
        (np.int64, "star-400"),
        # n and t are tiny, but budgets near 2.5e8 pack past 2**31
        (np.int64, "path-4-large-budgets"),
    ])
    def test_matches_reference_at_both_key_widths(self, width, case):
        if case == "path-4-large-budgets":
            g = Graph(4, [(0, 1), (1, 2), (2, 3)], directed=False)
            params = PaddedParams(k=1, epsilon=1e-8, n=4)
            # equal and adjacent budgets, so admission compares large values
            # that differ by one
            radii = np.array([[2.5e8 + 1, 2.5e8 + 2, 2.5e8, 7.5],
                              [2.5e8, 2.5e8, 2.5e8 + 1, 2.5e8 + 3],
                              [3.0, 2.5e8 + 2, 2.5e8 + 4, 2.5e8]])
        else:
            if case == "star-400":
                g = Graph(400, [(0, i) for i in range(1, 400)], directed=False)
                t = 1
            else:
                g = gen_grid(2, 20)
                t = 4
            params = PaddedParams(k=1, epsilon=0.5, n=g.n)
            radii = np.stack([draw_radii(params, 5, i) for i in range(t)])
        bmax = int(np.floor(radii).max())
        dmax = int(np.diff(g.shadow_csr()[0]).max())
        assert _flood_dtype(g.n, len(radii), dmax, bmax) is width
        assert_carve_matches_reference(g, params, radii)

    def test_flood_dtype_boundary(self):
        # int32 exactly while 2·t·n²·max(1, dmax)·(bmax + 1) < 2**31, in
        # each of its factors
        assert _flood_dtype(1, 2**30 - 1, 0, 0) is np.int32
        assert _flood_dtype(1, 2**30, 0, 0) is np.int64
        assert _flood_dtype(2, 2**28 - 1, 1, 0) is np.int32
        assert _flood_dtype(2, 2**28, 1, 0) is np.int64
        assert _flood_dtype(2**15 - 1, 1, 1, 0) is np.int32
        assert _flood_dtype(2**15, 1, 1, 0) is np.int64
        assert _flood_dtype(4, 1, 2**26 - 1, 0) is np.int32
        assert _flood_dtype(4, 1, 2**26, 0) is np.int64
        assert _flood_dtype(4, 1, 2, 2**25 - 2) is np.int32
        assert _flood_dtype(4, 1, 2, 2**25 - 1) is np.int64
        # int64 exactly while it is below 2**63, and a typed error past it
        assert _flood_dtype(4, 1, 2, 2**57 - 2) is np.int64
        with pytest.raises(DecompositionError, match="past int64"):
            _flood_dtype(4, 1, 2, 2**57 - 1)

    def test_budgets_past_int64_rejected(self):
        # epsilon 1e-18 on a 4-node path caps radii near 2.8e18, and budgets
        # of 1e18 pack values past int64 (2·4²·2·(1e18 + 1) > 2**63); such a
        # carve used to run on. The error comes before any array is built
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], directed=False)
        params = PaddedParams(k=1, epsilon=1e-18, n=4)
        radii = np.full((1, 4), 1e18)
        with pytest.raises(DecompositionError, match="past int64"):
            carve(g, params, radii, RoundTranscript())
        with pytest.raises(DecompositionError, match="past int64"):
            sample_decomposition_distributed(g, params, 0)

    def test_several_senders_and_a_budget_tie_pinned(self):
        # 0 - 4 - {2, 3} - 1, and 5 next to 2 and 3. Origin 1 (budget 3)
        # reaches 2 and 3 in round 1; in round 2 both deliver it to 4 and
        # to 5. Node 5 takes the copy from the smaller sender, 2. Node 4
        # accepted origin 0 with 1 left in round 1, and origin 1 arrives
        # with 1 left too: the tie rejects it. Origin 0 reaches 2 and 3
        # with 0 left and is accepted, as no smaller origin dominates it;
        # 5 forwards origin 1 to 3, which already holds it.
        g = Graph(6, [(0, 4), (1, 2), (1, 3), (2, 4), (3, 4), (2, 5), (3, 5)],
                  directed=False)
        params = PaddedParams(k=2, epsilon=0.5, n=6)
        radii = np.array([[2.5, 3.0, 0.0, 0.9, 0.0, 0.5]])
        transcript = RoundTranscript()
        floods, centers = carve(g, params, radii, transcript)
        rows = [(u, o, hop, rem, via)
                for u, _, o, hop, rem, via in flood_rows(floods, radii)]
        # (node, origin, hop, rem, via)
        assert rows == [
            (0, 0, 0, 2, 0),
            (1, 1, 0, 3, 1),
            (2, 0, 2, 0, 4), (2, 1, 1, 2, 1), (2, 2, 0, 0, 2),
            (3, 0, 2, 0, 4), (3, 1, 1, 2, 1), (3, 3, 0, 0, 3),
            (4, 0, 1, 1, 0), (4, 4, 0, 0, 4),
            (5, 1, 2, 1, 2), (5, 5, 0, 0, 5),
        ]
        assert [i for _, i, *_ in flood_rows(floods, radii)] == [0] * 12
        assert centers[:, 0].tolist() == [0, 1, 0, 0, 0, 1]
        # messages: round 1 0->4, 1->2, 1->3; round 2 4->2, 4->3, 2->4,
        # 2->5, 3->4, 3->5; round 3 5->3. decide_round is min(17, 5)
        assert transcript.phase_rounds == {"decomposition": 5}
        assert transcript.total_messages == 10
        assert transcript.max_payload_scalars == 3
        assert_carve_matches_reference(g, params, radii)

    def test_grid_output_pinned(self):
        g = gen_grid(32, 32)
        params = PaddedParams(k=2, epsilon=0.5, n=1024)
        assert carve_digest(g, params, 1, 1) == (
            "b274fc80e8e5cf42e670e725759ee47d03452bd6df5cc0fa11713fe5a944fd8a")
        assert carve_digest(g, params, 3, 1) == (
            "9c48285d6ec18a12ba01962fd3da9441b6ad06542fdaf52c2bb043c8e4f2def9")

    def test_bundled_gnp_output_pinned(self):
        g = gen_gnp(18, 0.25, seed=2)
        params = PaddedParams(k=2, epsilon=0.5, n=18)
        assert carve_digest(g, params, 2, 3) == (
            "0c08cbb831523ed67af0996dfc6e7a64511d058829427b1fd2df21be530e9767")

    def test_radii_of_wrong_shape_rejected(self):
        # a (1, 2n) radius row used to be read as its first n columns
        g = gen_grid(4, 4)
        params = PaddedParams(k=2, epsilon=0.5, n=16)
        with pytest.raises(DecompositionError, match="shape"):
            carve(g, params, np.ones((1, 32)), RoundTranscript())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_radii_rejected(self, bad):
        # NaN radii used to make every node its own cluster
        g = gen_grid(4, 4)
        params = PaddedParams(k=2, epsilon=0.5, n=16)
        radii = np.ones((1, 16))
        radii[0, 5] = bad
        with pytest.raises(DecompositionError, match="finite"):
            carve(g, params, radii, RoundTranscript())

    def test_radius_above_cap_rejected(self):
        # path of 30 nodes, k=1, eps=1: the cap is 2 ln 30 + 1 = 7.8 and
        # decide_round is 8; a radius of 11 used to run the flood into
        # ProtocolTimeout instead of naming the radius
        g = Graph(30, [(u, u + 1) for u in range(29)], directed=False)
        params = PaddedParams(k=1, epsilon=1.0, n=30)
        radii = np.zeros((2, 30))
        radii[1, 4] = 11.0
        with pytest.raises(DecompositionError,
                           match="iteration 1, node 4: radius 11.0 exceeds"):
            carve(g, params, radii, RoundTranscript())

    def test_radius_past_int64_rejected(self):
        # a radius of 2**63 or more used to overflow the int64 budget cast
        g = Graph(30, [(u, u + 1) for u in range(29)], directed=False)
        params = PaddedParams(k=1, epsilon=1.0, n=30)
        radii = np.zeros((1, 30))
        radii[0, 7] = 2.0**63
        with pytest.raises(DecompositionError, match="iteration 0, node 7"):
            carve(g, params, radii, RoundTranscript())

    def test_params_for_other_n_rejected(self):
        # PaddedParams(n=4) on 16 nodes caps radii at 13.09 and drew 16.4
        g = gen_grid(4, 4)
        params = PaddedParams(k=2, epsilon=0.5, n=4)
        with pytest.raises(DecompositionError, match="n=4"):
            sample_decomposition_distributed(g, params, 0)


class TestPaddingStatistics:
    def test_sixteen_cycle_padding(self):
        # spec-level Monte Carlo: every node's padded frequency clears
        # 1 - eps - 3 * sqrt(eps (1-eps) / N)
        g = gen_cycle(16, directed=False)
        eps = 0.5
        params = PaddedParams(k=1, epsilon=eps, n=16)
        N = 2000
        assignments = sample_assignments_batch(g, params, seed=11, count=N)
        freqs = padded_frequencies(g, assignments, 1)
        slack = 3 * math.sqrt(eps * (1 - eps) / N)
        assert np.all(freqs >= 1 - eps - slack)

    def test_batch_params_for_another_n_rejected(self):
        g = gen_grid(8, 8)
        params = PaddedParams(k=1, epsilon=0.5, n=10**9)
        with pytest.raises(DecompositionError, match=MISMATCH):
            sample_assignments_batch(g, params, seed=0, count=2)

    @pytest.mark.parametrize("count, message", [
        (-1, "count must be >= 0, got -1"), (2.5, "count 2.5 is not an integer")])
    def test_batch_count_checked(self, count, message):
        g = gen_grid(4, 4)
        params = PaddedParams(k=1, epsilon=0.5, n=16)
        with pytest.raises(DecompositionError, match=message):
            sample_assignments_batch(g, params, seed=0, count=count)

    def test_padded_nodes_matches_frequencies(self):
        g = gen_grid(3, 3)
        params = PaddedParams(k=1, epsilon=0.5, n=9)
        c = sample_decomposition_centralized(g, params, 2)
        direct = padded_nodes(g, c, 1)
        batch = padded_frequencies(g, c.assignment[None, :], 1)
        assert np.array_equal(direct, batch.astype(bool))

    def test_padded_mask_matches_broadcast_formula(self):
        # reference: one (s, n, n) comparison of every clustering at once
        rng = rng_stream(3, "mask-test")
        graphs = [
            gen_grid(4, 4),
            gen_gnp(12, 0.3, seed=1, directed=True),
            Graph(7, [(0, 1), (2, 3), (3, 4), (5, 6)], directed=False),
            gen_grid(16, 16),  # n * n above the block size: two row blocks
        ]
        for g in graphs:
            outside_of = {k: g.distance_matrix() > k for k in (0, 1, 2)}
            for labels in (2, 4, g.n):
                assignments = rng.integers(0, labels, size=(30, g.n))
                same = assignments[:, :, None] == assignments[:, None, :]
                for k, outside in outside_of.items():
                    expect = np.all(same | outside, axis=2)
                    assert np.array_equal(
                        padded_mask(g, assignments, k), expect)
            assert padded_mask(g, assignments[:0], 1).shape == (0, g.n)

    @pytest.mark.parametrize("permutation", ["random", "ids"])
    def test_batch_rows_are_centralized_samples(self, permutation):
        graphs = [
            gen_grid(4, 4),
            gen_gnp(14, 0.25, seed=3, directed=True),
            Graph(6, [(0, 1), (1, 2), (3, 4)], directed=False),
        ]
        for g in graphs:
            params = PaddedParams(k=1, epsilon=0.5, n=g.n)
            batch = sample_assignments_batch(
                g, params, seed=7, count=6, permutation=permutation)
            for s, row in enumerate(batch):
                central = sample_decomposition_centralized(
                    g, params, 7, iteration=s, permutation=permutation)
                assert np.array_equal(row, central.assignment)
                if permutation == "ids":
                    dist, _ = sample_decomposition_distributed(
                        g, params, 7, iteration=s)
                    assert np.array_equal(row, dist.assignment)

    def test_batch_diameter_guard(self):
        g = gen_cycle(12, directed=False)
        params = PaddedParams(k=1, epsilon=0.5, n=12)
        # well-formed sampling never trips the guard
        sample_assignments_batch(g, params, seed=0, count=50)

    @pytest.mark.parametrize("epsilon", [0.5, 1e-6])
    def test_batch_guard_counts_unreachable_pairs(self, monkeypatch, epsilon):
        # a cluster spanning two components has an unbounded diameter; at
        # epsilon=1e-6 twice the radius cap is past the matrix's sentinel
        g = Graph(4, [(0, 1), (2, 3)], directed=False)
        params = PaddedParams(k=1, epsilon=epsilon, n=4)
        monkeypatch.setattr(decomposition, "_assign",
                            lambda *args: np.zeros(4, dtype=np.int64))
        with pytest.raises(DecompositionError,
                           match=f"sample 0: cluster diameter {UNREACHABLE_HOPS} exceeds"):
            sample_assignments_batch(g, params, seed=0, count=3)

    def test_five_hundred_samples_n64_within_diameter_cap(self):
        # every sampled clustering is exhaustively diameter-checked inside
        # the batch sampler; this draws 500 at n=64
        g = gen_gnp(64, 0.15, seed=64, directed=False)
        params = PaddedParams(k=1, epsilon=0.5, n=64)
        out = sample_assignments_batch(g, params, seed=9, count=500)
        assert out.shape == (500, 64)


def diameters_brute_force(g, assignment):
    """Per cluster, in the order of first appearance, the largest distance
    over every pair of its members."""
    dist = g.distance_matrix()
    out = {}
    for u, c in enumerate(assignment.tolist()):
        out[c] = max([out.get(c, 0)] + [
            int(dist[u, v]) for v in range(g.n) if assignment[v] == c])
    return out


class TestClusterDiameters:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=40),
        p=st.sampled_from([0.05, 0.15, 0.4]),
        labels=st.integers(min_value=1, max_value=8),
        s=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_brute_force(self, data, n, p, labels, s, seed):
        # labels need not be nodes of their cluster, and clusters may span
        # components (pairs at UNREACHABLE_HOPS)
        g = gen_gnp(n, p, seed=seed, directed=False)
        rows = data.draw(st.lists(
            st.lists(st.integers(0, min(labels, n) - 1), min_size=n, max_size=n),
            min_size=s, max_size=s))
        assignments = np.array(rows, dtype=np.int64)
        got = cluster_diameters_batch(g, assignments)
        for row, diams in zip(assignments, got):
            want = diameters_brute_force(g, row)
            assert list(diams.items()) == list(want.items())
            assert list(cluster_diameters(
                g, Clustering(row, np.zeros(n))).items()) == list(want.items())

    @pytest.mark.parametrize("labels", [1, 3, 40, 1024])
    def test_large_graph_blocks_match_brute_force(self, labels):
        # n * n above the block size takes the sorted-run path; one cluster
        # of 1024 nodes spans many blocks
        g = gen_grid(32, 32)
        assign = rng_stream(4, "diam-test", labels).integers(0, labels, 1024)
        dist = g.distance_matrix()
        want = {}
        for c in dict.fromkeys(assign.tolist()):
            idx = np.flatnonzero(assign == c)
            want[c] = int(dist[np.ix_(idx, idx)].max())
        got = cluster_diameters(g, Clustering(assign, np.zeros(1024)))
        assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize("rows, label", [
        ([[0, 0, 5, 5], [1, 1, 1, 1]], "row 0, node 2: cluster id 5 "),
        ([[0, 0, 5, 5]], "row 0, node 2: cluster id 5 "),
        ([[1, 1, 1, 1], [0, -1, 1, 1]], "row 1, node 1: cluster id -1 "),
    ])
    def test_labels_that_are_not_nodes_raise(self, rows, label):
        # keyed by row * n + label, label 5 of row 0 was row 1's label 1,
        # and its cluster was lost
        with pytest.raises(DecompositionError, match=label):
            cluster_diameters_batch(gen_grid(1, 4), np.array(rows))


class TestSerialization:
    def test_csv_shape(self):
        g = gen_cycle(5, directed=False)
        params = PaddedParams(k=1, epsilon=0.5, n=5)
        c = sample_decomposition_centralized(g, params, 1)
        text = clustering_csv(c)
        lines = text.strip().split("\n")
        assert lines[0] == CLUSTERING_CSV_HEADER
        assert len(lines) == 6
        node, cid, center, r_v = lines[1].split(",")
        assert int(node) == 0
        assert int(cid) == int(center)
        assert float(r_v) >= 0


# -- the checks read only what decides them ---------------------------------


def assign_full_scan(g, radii, pi_order):
    """`_assign` as a scan of every (node, center) pair, in row blocks."""
    dist = g.distance_matrix()
    first_rank = np.empty(g.n, dtype=np.int64)
    step = max(1, decomposition._PAIR_BLOCK // g.n)
    for a in range(0, g.n, step):
        reached = (dist[a:a + step] <= radii)[:, pi_order]
        first_rank[a:a + step] = np.argmax(reached, axis=1)
    return pi_order[first_rank].astype(np.int64)


def validate_full_diameters(g, params, clustering):
    """`validate_clustering` measuring every cluster's diameter."""
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
            f"node {u}: d(center {assign[u]}, u)={d_c[u]} vs radius {r_c[u]}")
    for c, d_max in cluster_diameters(g, clustering).items():
        if d_max > 2 * cap:
            raise DecompositionError(
                f"cluster {c} has hop diameter {d_max} > {2 * cap}")


def batch_full_diameters(g, params, seed, count):
    """`sample_assignments_batch` measuring every sample's diameters."""
    radii = draw_radii(params, seed, np.arange(count))
    out = np.array([decomposition._assign(
        g, radii[s], decomposition._carving_order(seed, s, g.n, "random"))
        for s in range(count)], dtype=np.int64)
    cap2 = 2 * params.radius_cap
    for s, diams in enumerate(cluster_diameters_batch(g, out)):
        diam = max(diams.values())
        if diam > cap2:
            raise DecompositionError(
                f"sample {s}: cluster diameter {diam} exceeds {cap2}")
    return out


def verdict(check, *args):
    """None if `check(*args)` passes, else its DecompositionError message."""
    try:
        check(*args)
    except DecompositionError as err:
        return str(err)
    return None


def cap_params(cap, n):
    """A stand-in for PaddedParams on n nodes with the given radius cap."""
    return type("Params", (), {"radius_cap": cap, "n": n})()


#: Radius caps for the check tests: real ones, and caps within 1e-12 below
#: an integer, where the center bound cannot settle the diameters.
CAPS = [0.0, 1.5, 2.0, 3.0, 2 - 1e-13, 3 - 1e-13, 4 - 5e-13]


class TestPaddedMaskFrontier:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=24),
        directed=st.booleans(),
        s=st.integers(min_value=0, max_value=4),
        labels=st.integers(min_value=1, max_value=6),
        boolean=st.booleans(),
    )
    def test_matches_dense_definition(self, data, n, directed, s, labels, boolean):
        # oracle: B(u, k) from the distance matrix, compared with every
        # clustering at once; random graphs are often disconnected
        g = random_graph(data, n, directed)
        rows = np.array(data.draw(st.lists(
            st.lists(st.integers(0, labels - 1), min_size=n, max_size=n),
            min_size=s, max_size=s)), dtype=np.int64).reshape(s, n)
        if boolean:
            rows = rows % 2 == 1
        same = rows[:, :, None] == rows[:, None, :]
        for k in (0, 0.5, 1, 1.7, 2, 3, n, n + 0.5, 10 * n):
            expect = np.all(same | (g.distance_matrix() > k), axis=2)
            assert np.array_equal(padded_mask(g, rows, k), expect), k

    def test_row_blocks_match_dense_definition(self, monkeypatch):
        monkeypatch.setattr(decomposition, "_PAIR_BLOCK", 100)
        g = gen_grid(5, 6)
        rows = rng_stream(5, "frontier-test").integers(0, 4, size=(9, g.n))
        same = rows[:, :, None] == rows[:, None, :]
        for k in (1, 2, 4):
            expect = np.all(same | (g.distance_matrix() > k), axis=2)
            assert np.array_equal(padded_mask(g, rows, k), expect)

    def test_infinite_k_is_the_component(self):
        # the ball never holds another component's nodes, however large k
        g = Graph(5, [(0, 1), (1, 2), (3, 4)], directed=False)
        rows = np.array([[0, 0, 0, 1, 1], [0, 0, 1, 1, 1]])
        for k in (5, 2**41, math.inf):
            assert padded_mask(g, rows, k).tolist() == [
                [True] * 5, [False, False, False, True, True]]

    @pytest.mark.parametrize("k", [math.nan, -1, -0.5])
    def test_nan_or_negative_k_rejected(self, k):
        # the distance comparison gave all False for NaN, all True below 0
        g = gen_cycle(6, directed=False)
        with pytest.raises(DecompositionError, match="k must be nonnegative"):
            padded_mask(g, np.zeros((1, 6), dtype=np.int64), k)


class TestAssignBlocks:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=30),
        directed=st.booleans(),
        order=st.sampled_from(["ids", "random"]),
        radii=st.sampled_from(["drawn", "zero", "nan"]),
        block=st.sampled_from([1, 7, 64, None]),
    )
    def test_matches_full_scan(self, data, n, directed, order, radii, block):
        g = random_graph(data, n, directed)
        pi = (np.arange(n) if order == "ids"
              else np.array(data.draw(st.permutations(range(n))), dtype=np.int64))
        if radii == "zero":  # every node its own center
            r = np.zeros(n)
        else:
            r = np.array(data.draw(st.lists(
                st.floats(0, n), min_size=n, max_size=n)))
            if radii == "nan":  # a NaN radius reaches no node, not even its own
                r[data.draw(st.integers(0, n - 1))] = math.nan
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(decomposition, "_PAIR_BLOCK", block)
            got = decomposition._assign(g, r, pi)
        assert got.dtype == np.int64
        assert np.array_equal(got, assign_full_scan(g, r, pi))
        if radii == "zero":
            assert np.array_equal(got, np.arange(n))

    @pytest.mark.parametrize("pi", [[0, 1, 2, 3], [0, 3, 2, 1], [1, 0, 3, 2]])
    def test_radius_past_the_sentinel_stays_in_its_component(self, pi):
        # radii of 1e6, above the matrix's unreachable sentinel, as epsilon
        # = 1e-6 draws them, reach their whole component and nothing more
        g = Graph(4, [(0, 1), (2, 3)], directed=False)
        pi = np.array(pi)
        got = decomposition._assign(g, np.full(4, 1e6), pi)
        assert got.tolist() == [pi[0]] * 2 + [pi[pi >= 2][0]] * 2

    def test_grid_blocks_match_full_scan(self, monkeypatch):
        # blocks of one to a few centers while many nodes are left
        g = gen_grid(16, 16)
        rng = rng_stream(2, "assign-blocks")
        monkeypatch.setattr(decomposition, "_PAIR_BLOCK", 500)
        for _ in range(3):
            radii, pi = rng.random(g.n) * 6, rng.permutation(g.n)
            assert np.array_equal(decomposition._assign(g, radii, pi),
                                  assign_full_scan(g, radii, pi))


class TestCenterBound:
    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=16),
        cap=st.sampled_from(CAPS),
        corrupt=st.sampled_from(["none", "labels", "radii"]),
    )
    def test_validate_matches_full_diameters(self, data, n, cap, corrupt):
        g = random_graph(data, n, False)
        params = cap_params(cap, n)
        # a clustering honouring its radii: the centralized assignment of
        # radii below the cap, then perhaps corrupted
        radii = np.array(data.draw(st.lists(
            st.floats(0, math.floor(cap)), min_size=n, max_size=n)))
        pi = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
        assign = decomposition._assign(g, radii, pi)
        if corrupt == "labels":
            assign = np.array(data.draw(st.lists(
                st.integers(-1, n), min_size=n, max_size=n)), dtype=np.int64)
        elif corrupt == "radii":
            radii = np.array(data.draw(st.lists(
                st.sampled_from([0.0, cap, cap + 5e-13, math.ceil(cap), cap + 1]),
                min_size=n, max_size=n)))
        c = Clustering(assign, radii)
        assert (verdict(validate_clustering, g, params, c)
                == verdict(validate_full_diameters, g, params, c))

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=2, max_value=14),
        count=st.integers(min_value=1, max_value=4),
        cap=st.sampled_from([None] + CAPS),
        corrupt=st.booleans(),
    )
    def test_batch_matches_full_diameters(self, data, n, count, cap, corrupt):
        # corrupt rows replace `_assign`, and caps below the drawn radii or
        # just below an integer leave the center bound open
        g = random_graph(data, n, False)
        params = PaddedParams(k=1, epsilon=0.5, n=n)
        rows = data.draw(st.lists(st.lists(
            st.integers(0, n - 1), min_size=n, max_size=n),
            min_size=count, max_size=count))
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                mp.setattr(PaddedParams, "radius_cap", property(lambda self: cap))
            if corrupt:
                # each sampling call takes `count` rows, so both read the same
                drawn = itertools.cycle(rows)
                mp.setattr(decomposition, "_assign",
                           lambda *args: np.array(next(drawn), dtype=np.int64))
            got = verdict(sample_assignments_batch, g, params, 3, count)
            assert got == verdict(batch_full_diameters, g, params, 3, count)

    def test_cap_just_below_an_integer_measures_the_diameters(self, monkeypatch):
        # d(center, u) <= r_c <= cap + 1e-12 lets d reach 3 when the cap is
        # 3 - 1e-13, so twice the largest center distance no longer settles
        # the diameter bound; the full diameters decide, with the same message
        g = Graph(7, [(i, i + 1) for i in range(6)], directed=False)
        params = cap_params(3 - 1e-13, 7)
        calls = []
        measure = decomposition.cluster_diameters
        monkeypatch.setattr(decomposition, "cluster_diameters",
                            lambda *args: calls.append(1) or measure(*args))
        ok = Clustering(np.array([0, 0, 0, 0, 6, 6, 6]), np.full(7, 3.0))
        validate_clustering(g, params, ok)  # diameters 3 and 2
        assert len(calls) == 1
        wide = Clustering(np.full(7, 3), np.full(7, 3.0))
        message = verdict(validate_full_diameters, g, params, wide)
        assert message == f"cluster 3 has hop diameter 6 > {2 * (3 - 1e-13)}"
        with pytest.raises(DecompositionError) as err:
            validate_clustering(g, params, wide)
        assert str(err.value) == message
        assert len(calls) == 2
        # a cap at the integer itself is settled by the bound
        validate_clustering(g, cap_params(3.0, 7), wide)
        assert len(calls) == 2

    @pytest.mark.parametrize("cap, message", [
        (2.5, "sample 0: cluster diameter 6 exceeds 5.0"),
        (3 - 1e-13, f"sample 0: cluster diameter 6 exceeds {2 * (3 - 1e-13)}"),
        (3.0, None),
    ])
    def test_batch_measures_what_the_bound_leaves_open(self, monkeypatch, cap,
                                                        message):
        # one cluster around the middle of a 7-node path: center distances
        # up to 3, so a bound of 6 and a diameter of 6
        g = Graph(7, [(i, i + 1) for i in range(6)], directed=False)
        params = PaddedParams(k=1, epsilon=0.5, n=7)
        monkeypatch.setattr(PaddedParams, "radius_cap", property(lambda self: cap))
        monkeypatch.setattr(decomposition, "_assign",
                            lambda *args: np.full(7, 3, dtype=np.int64))
        assert verdict(sample_assignments_batch, g, params, 0, 2) == message


#: The functions of `src/padspan` that may read the dense distance matrix.
DENSE_READERS = {
    ("decomposition.py", "_assign"),
    ("decomposition.py", "validate_clustering"),
    ("decomposition.py", "sample_assignments_batch"),
    ("decomposition.py", "cluster_diameters_batch"),
}


def _matrix_readers(tree, module):
    """(module, enclosing function) of every call of a `distance_matrix`
    attribute in one syntax tree."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "distance_matrix"):
            found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


class TestParamsSizeGuard:
    def test_every_graph_and_params_entry_point_checks_n(self):
        # params for another n give radii, a radius cap and a decision round
        # for another graph, so every public function taking both must refuse
        # them; a new entry point joins this test by its signature alone
        g = gen_grid(8, 8)
        params = PaddedParams(k=1, epsilon=0.5, n=10**9)
        args = {"seed": 0, "count": 2, "radii": np.zeros((1, 64)),
                "transcript": RoundTranscript(),
                "clustering": Clustering(np.zeros(64, dtype=np.int64),
                                         np.full(64, 40.0))}
        checked = set()
        for name, fn in inspect.getmembers(decomposition, inspect.isfunction):
            signature = inspect.signature(fn).parameters
            if (name.startswith("_") or fn.__module__ != decomposition.__name__
                    or not {"g", "params"} <= set(signature)):
                continue
            rest = {p: args[p] for p, spec in signature.items()
                    if p not in ("g", "params") and spec.default is spec.empty}
            with pytest.raises(DecompositionError, match=MISMATCH):
                fn(g, params, **rest)
            checked.add(name)
        assert checked >= {"carve", "sample_assignments_batch",
                           "sample_decomposition_centralized",
                           "sample_decomposition_distributed",
                           "validate_clustering"}


class TestDenseMatrixReaders:
    def test_only_allowlisted_functions_read_the_matrix(self):
        package = Path(decomposition.__file__).parent
        found = set().union(*(_matrix_readers(ast.parse(path.read_text()), path.name)
                              for path in sorted(package.glob("*.py"))))
        assert found - DENSE_READERS == set()
        assert DENSE_READERS <= found  # a stale allowlist entry goes too

    def test_matrix_readers_are_found(self):
        tree = ast.parse(
            "def f(g):\n"
            "    return g.distance_matrix()[0]\n"
            "def h(g):\n"
            "    return g.distance_matrix\n"
            "x = Graph.distance_matrix(g)\n")
        assert _matrix_readers(tree, "m.py") == {("m.py", "f"), ("m.py", "<module>")}

    def test_padding_runs_without_the_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the distance matrix was read")

        monkeypatch.setattr(Graph, "distance_matrix", refuse)
        g = gen_grid(4, 4)
        inst = build_spanner_instance(g, k=2)
        assign = np.arange(16) // 8
        assert padded_mask(g, assign[None], 1)[0].tolist() == [True] * 4 + [False] * 8 + [True] * 4
        members = set(range(8))
        expect = [i for i, d in enumerate(inst.demands) if d.u in (0, 1, 2, 3)]
        assert cluster_demands(inst, members) == expect
