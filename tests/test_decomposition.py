import hashlib
import json
import math

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
    _admit_batch,
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
from padspan.distributed import SolverConfig
from padspan.graphs import UNREACHABLE, Graph
from padspan.harness import gen_cycle, gen_gnp, gen_grid
from padspan.localsim import RoundTranscript, rng_stream

from carve_reference import _admit, carve_reference


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
        p = PaddedParams(k=1, epsilon=0.5, n=8)
        with pytest.raises(DecompositionError):
            sample_radius(p, 0.5, n=1)

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
        pairs = [(u, v) for u in range(n) for v in range(n) if u < v]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                    max_size=2 * n))
        flips = data.draw(st.lists(st.booleans(), min_size=len(chosen),
                                   max_size=len(chosen)))
        edges = [(v, u) if f else (u, v) for (u, v), f in zip(chosen, flips)]
        g = Graph(n, edges, directed=directed)
        params = PaddedParams(k=k, epsilon=0.5, n=n)
        central = sample_decomposition_centralized(g, params, seed,
                                                   permutation="ids")
        dist, _ = sample_decomposition_distributed(g, params, seed)
        assert np.array_equal(central.assignment, dist.assignment)
        assert np.array_equal(central.radii, dist.radii)
        # the bundled flood carves each iteration as the sampler would alone
        radii = np.stack([draw_radii(params, seed, i, n) for i in range(3)])
        _, centers = carve(g, params, radii, RoundTranscript())
        for i in range(3):
            alone = sample_decomposition_centralized(
                g, params, seed, iteration=i, permutation="ids")
            assert np.array_equal(centers[:, i], alone.assignment)

    def test_round_budget(self):
        g = gen_gnp(24, 0.2, seed=4, directed=False)
        params = PaddedParams(k=2, epsilon=0.5, n=24)
        _, transcript = sample_decomposition_distributed(g, params, 3)
        assert transcript.rounds_elapsed <= decide_round(params, 24) + 1

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


def accepted_floods(floods, n, t):
    """Per node and iteration, origin -> (hop, rem, via), from the flat
    rows `carve` returns: the shape the reference flood returns."""
    accepted = [[{} for _ in range(t)] for _ in range(n)]
    for u, i, o, *entry in zip(
            floods.node.tolist(), floods.iteration.tolist(),
            floods.origin.tolist(), floods.hop.tolist(), floods.rem.tolist(),
            floods.via.tolist()):
        accepted[u][i][o] = tuple(entry)
    return accepted


def carve_digest(g, params, seed, t):
    """sha256 of canonical JSON of everything `carve` outputs: each node's
    accepted floods per iteration, the centers and the transcript."""
    radii = np.stack([draw_radii(params, seed, i, g.n) for i in range(t)])
    transcript = RoundTranscript()
    floods, centers = carve(g, params, radii, transcript)
    doc = {
        "accepted": [
            [sorted([o, *entry] for o, entry in acc.items()) for acc in node]
            for node in accepted_floods(floods, g.n, t)
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
    assert accepted_floods(floods, g.n, len(radii)) == accepted
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
            st.tuples(st.integers(0, 3), st.integers(0, 15)), max_size=30),
            max_size=6),
    )
    def test_admit_batch_matches_definition(self, start, batches):
        # an arrival is admitted iff its origin is new to its group and no
        # admitted smaller origin of the group has >= budget left; a batch is
        # read in (group, origin) order, and as in a flood an origin offered
        # in batch j has j less budget than it started with
        n = 16
        stair_key = np.zeros(0, dtype=np.int64)
        stair_rem = np.zeros(0, dtype=np.int64)
        admitted: dict[tuple[int, int], int] = {}
        for j, batch in enumerate(batches):
            order = sorted({(grp, o) for grp, o in batch
                            if start[grp * n + o] >= j})
            rem = [start[grp * n + o] - j for grp, o in order]
            expected = []
            for (grp, origin), budget in zip(order, rem):
                ok = (grp, origin) not in admitted and not any(
                    g2 == grp and o < origin and r >= budget
                    for (g2, o), r in admitted.items())
                expected.append(ok)
                if ok:
                    admitted[grp, origin] = budget
            key = np.array([grp * n + o for grp, o in order], dtype=np.int64)
            got, stair_key, stair_rem = _admit_batch(
                stair_key, stair_rem, key, np.array(rem, dtype=np.int64), n)
            assert got.tolist() == expected
            # the staircase: per group, origins ascending, budgets strictly
            # increasing, exactly the admitted entries no smaller one dominates
            undominated = sorted(
                grp * n + o for (grp, o), r in admitted.items()
                if not any(g2 == grp and o2 < o and r2 >= r
                           for (g2, o2), r2 in admitted.items()))
            assert stair_key.tolist() == undominated
            assert stair_rem.tolist() == [
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
        pairs = [(u, v) for u in range(n) for v in range(n) if u < v]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                    max_size=2 * n)) if pairs else []
        flips = data.draw(st.lists(st.booleans(), min_size=len(chosen),
                                   max_size=len(chosen)))
        edges = [(v, u) if f else (u, v) for (u, v), f in zip(chosen, flips)]
        g = Graph(n, edges, directed=directed)
        params = PaddedParams(k=k, epsilon=epsilon, n=n)
        radii = np.stack([draw_radii(params, seed, i, n) for i in range(t)])
        assert_carve_matches_reference(g, params, radii)

    def test_paper_t_gnp_matches_reference(self):
        # the dsn-gnp shape: n=16 at the paper's t=200, with the solver's
        # padding parameter for epsilon=0.5 and a length bound of 4
        g = gen_gnp(16, 0.35, seed=5)
        params = PaddedParams(k=4, epsilon=SolverConfig(0.5, seed=3).lam, n=16)
        radii = np.stack([draw_radii(params, 3, i, 16) for i in range(200)])
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
            "dfebda3bdbdb54b3c586aae7aaf7fc496e6e2b808e2eff211de22374e45c49f0")

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

    def test_batch_guard_counts_unreachable_pairs(self, monkeypatch):
        # a cluster spanning two components has an unbounded diameter
        g = Graph(4, [(0, 1), (2, 3)], directed=False)
        params = PaddedParams(k=1, epsilon=0.5, n=4)
        joined = Clustering(assignment=np.zeros(4, dtype=np.int64),
                            radii=np.zeros(4))
        monkeypatch.setattr(decomposition, "sample_decomposition_centralized",
                            lambda *args, **kwargs: joined)
        with pytest.raises(DecompositionError,
                           match=f"sample 0: cluster diameter {UNREACHABLE} exceeds"):
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
        # components (UNREACHABLE pairs)
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
