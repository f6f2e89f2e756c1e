import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padspan.rounding as rounding
from padspan.cp import Demand, build_dsn_instance, build_spanner_instance, linear_sum
from padspan.graphs import Graph, GraphError
from padspan.harness import gen_cycle, gen_gnp, gen_grid
from padspan.lp import solve_global_oracle
from padspan.rounding import (
    OUTPUT_CSV_HEADER,
    RoundingError,
    classify_edges,
    edge_probability,
    expected_sampled_size,
    output_csv,
    round_low_degree,
    round_spanner,
    round_spanner_distributed,
    root_probability,
    verify_stretch,
)
from paths_reference import instance_from_families
from rounding_reference import round_spanner_reference


def complete_digraph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


@st.composite
def rounding_cases(draw):
    """A small directed or undirected graph, plus up to two nodes that no
    edge can touch, and an edge vector for it."""
    n = draw(st.integers(1, 8))
    directed = draw(st.booleans())
    edges = []
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=3 * n)):
        if u != v and (u, v) not in edges and (directed or (v, u) not in edges):
            edges.append((u, v))
    g = Graph(n + draw(st.integers(0, 2)), edges, directed)
    x = draw(st.lists(st.floats(0, 0.4), min_size=g.m, max_size=g.m))
    return g, np.array(x)


class TestRoundSpanner:
    def test_saturated_probabilities_keep_everything(self):
        g = gen_gnp(9, 0.4, seed=20)
        x = np.full(g.m, 1.0)  # prob caps at 1 for every edge
        out = round_spanner(g, x, 2, seed=0)
        assert out.sampled == frozenset(range(g.m))

    def test_zero_vector_samples_nothing(self):
        g = gen_gnp(9, 0.4, seed=21)
        out = round_spanner(g, np.zeros(g.m), 2, seed=1)
        assert out.sampled == frozenset()

    def test_zero_vector_no_roots_empty(self, monkeypatch):
        # at desk scale the root probability saturates, so the all-empty
        # case is exercised by pinning it to zero
        monkeypatch.setattr(rounding, "root_probability", lambda n: 0.0)
        g = gen_gnp(9, 0.4, seed=22)
        out = round_spanner(g, np.zeros(g.m), 2, seed=2)
        assert out.edges == frozenset()
        assert out.roots == ()

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_rejected(self, bad):
        g = gen_gnp(9, 0.4, seed=21)
        x = np.zeros(g.m)
        x[3] = bad
        with pytest.raises(GraphError, match="non-finite"):
            round_spanner(g, x, 2, seed=1)

    def test_sampled_size_expectation(self):
        # Monte Carlo mean within 3 sigma of the analytic expectation
        g = gen_gnp(16, 0.25, seed=23)
        rng = np.random.default_rng(3)
        x = np.minimum(rng.random(g.m) / (math.sqrt(16) * math.log(16)), 1.0)
        mean_expected = expected_sampled_size(g, x)
        var = sum(
            edge_probability(16, v) * (1 - edge_probability(16, v)) for v in x
        )
        trials = 200
        sizes = [
            len(round_spanner(g, x, 2, seed=s).sampled) for s in range(trials)
        ]
        sigma = math.sqrt(var / trials)
        assert abs(np.mean(sizes) - mean_expected) <= 3 * sigma + 1e-9

    def test_provenance_labels(self):
        g = complete_digraph(5)
        x = np.full(g.m, 1.0)
        out = round_spanner(g, x, 2, seed=4)
        assert out.roots  # probability saturates at n=5
        for e in out.edges:
            assert out.provenance(e) in ("sampled-thin", "arborescence", "both")

    def test_provenance_of_an_edge_not_in_the_output(self):
        out = rounding.SpannerOutput(sampled=frozenset({0}),
                                     tree_edges=frozenset({1}), roots=(0,))
        assert [out.provenance(e) for e in (0, 1)] == ["sampled-thin",
                                                       "arborescence"]
        with pytest.raises(RoundingError, match="edge 3 not in output"):
            out.provenance(3)

    def test_output_csv(self):
        g = Graph(2, [(0, 1)])
        out = round_spanner(g, np.ones(1), 1, seed=5)
        text = output_csv(g, out)
        assert text.splitlines()[0] == OUTPUT_CSV_HEADER


class TestDistributedRounding:
    def test_matches_centralized(self):
        for seed in range(5):
            g = gen_gnp(12, 0.3, seed=30 + seed)
            inst = build_spanner_instance(g, 2)
            x = solve_global_oracle(inst).x
            cen = round_spanner(g, x, 2, seed=seed)
            dist, _ = round_spanner_distributed(g, x, 2, seed=seed)
            assert cen.sampled == dist.sampled
            assert cen.tree_edges == dist.tree_edges
            assert cen.roots == dist.roots

    @pytest.mark.parametrize("g", [gen_grid(3, 3), gen_cycle(5, directed=False)],
                             ids=["grid", "cycle"])
    def test_matches_centralized_undirected(self, g):
        x = np.full(g.m, 0.1)
        for depth in range(4):
            cen = round_spanner(g, x, depth, seed=depth)
            dist, _ = round_spanner_distributed(g, x, depth, seed=depth)
            assert cen.sampled == dist.sampled
            assert cen.tree_edges == dist.tree_edges
            assert cen.roots == dist.roots

    @settings(max_examples=150, deadline=None)
    @given(case=rounding_cases(), depth=st.integers(0, 4),
           seed=st.integers(0, 2**32), iteration=st.integers(0, 3),
           p_root=st.one_of(st.none(), st.floats(0, 1)))
    def test_matches_reference(self, case, depth, seed, iteration, p_root):
        # below n = 289 every node is a root, so some draws lower the odds
        g, x = case
        with (contextlib.nullcontext() if p_root is None else mock.patch.object(
                rounding, "root_probability", lambda n: p_root)):
            want, want_t = round_spanner_reference(g, x, depth, seed, iteration)
            got, got_t = round_spanner_distributed(g, x, depth, seed, iteration)
            assert round_spanner(g, x, depth, seed, iteration) == want
        assert got == want
        assert got_t == want_t

    def test_announcements_alone(self, monkeypatch):
        # root 1 owns no edge, so its one round-0 message holds just its two
        # level-0 announcements: 6 scalars, more than node 0's one coin
        monkeypatch.setattr(rounding, "root_probability", lambda n: 0.5)
        g = Graph(2, [(0, 1)])
        seed = next(s for s in range(100)
                    if round_spanner(g, [0.0], 1, s).roots == (1,))
        _, got_t = round_spanner_distributed(g, [0.0], 1, seed)
        _, want_t = round_spanner_reference(g, [0.0], 1, seed)
        assert got_t == want_t
        assert got_t.max_payload_scalars == 6

    def test_locality_round_budget(self):
        for k in (1, 2, 3):
            g = gen_gnp(14, 0.3, seed=40 + k)
            x = np.full(g.m, 0.5)
            _, tr = round_spanner_distributed(g, x, k, seed=k)
            assert tr.phase_rounds["rounding"] <= 2 * k + 5


class TestRoundLowDegree:
    def test_extremes(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert round_low_degree(g, np.ones(2), 2, seed=0) == frozenset({0, 1})
        assert round_low_degree(g, np.zeros(2), 2, seed=0) == frozenset()

    def test_quarter_becomes_half(self):
        # x = 0.25 with k = 2 gives inclusion probability 0.5; Bernoulli
        # frequency check over 10^4 draws at 3 sigma
        g = Graph(2, [(0, 1)])
        x = np.array([0.25])
        trials = 10_000
        hits = sum(
            bool(round_low_degree(g, x, 2, seed=s)) for s in range(trials)
        )
        sigma = math.sqrt(0.25 * trials)
        assert abs(hits - trials * 0.5) <= 3 * sigma

    def test_rejects_above_one(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(RoundingError):
            round_low_degree(g, np.array([1.5]), 2, seed=0)

    def test_expected_degree_bound(self):
        g = gen_gnp(10, 0.4, seed=50)
        rng = np.random.default_rng(6)
        x = rng.random(g.m)
        k = 2
        bound = np.zeros(g.n)
        for e, (u, v) in enumerate(g.edges):
            bound[u] += x[e] ** (1 / k)
            bound[v] += x[e] ** (1 / k)
        trials = 400
        degs = np.zeros(g.n)
        for s in range(trials):
            chosen = round_low_degree(g, x, k, seed=s)
            for e in chosen:
                u, v = g.edges[e]
                degs[u] += 1
                degs[v] += 1
        mean_deg = degs / trials
        sigma = np.sqrt(bound / trials) + 1e-9
        assert np.all(mean_deg <= bound + 3 * sigma)


class TestVerifyStretch:
    def test_full_graph_valid(self):
        g = gen_gnp(10, 0.3, seed=60)
        inst = build_spanner_instance(g, 2)
        ok, violations = verify_stretch(inst, range(g.m))
        assert ok and violations == []

    def test_bidirected_four_cycle_drop_one_direction(self):
        edges = []
        for i in range(4):
            edges += [(i, (i + 1) % 4), ((i + 1) % 4, i)]
        g = Graph(4, edges)
        inst = build_spanner_instance(g, 3)
        kept = [e for e in range(g.m) if g.edges[e] != (0, 1)]
        ok, violations = verify_stretch(inst, kept)
        assert ok  # detour 0->3->2->1 has exactly 3 hops

    def test_empty_output_violates(self):
        g = Graph(2, [(0, 1)])
        inst = build_spanner_instance(g, 1)
        ok, violations = verify_stretch(inst, [])
        assert not ok and violations == [0]

    def test_edge_id_out_of_range_rejected(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        inst = build_spanner_instance(g, 2)
        assert verify_stretch(inst, [2]) == (False, [0, 1])
        for bad in ([-1], [3], [0, 3]):
            with pytest.raises(GraphError, match="out of range"):
                verify_stretch(inst, bad)
        with pytest.raises(TypeError):
            verify_stretch(inst, [2.0])

    def test_dsn_bounds(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        inst = build_dsn_instance(g, [(0, 3, 1)])
        ok, _ = verify_stretch(inst, [3])   # direct edge (0,3)
        assert ok
        ok2, _ = verify_stretch(inst, [0, 1, 2])  # 3-hop path too long
        assert not ok2

    def test_partial_family_searched(self):
        # a hand-built family without the direct edge: no family path is
        # kept, and the search still finds the bound met
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        inst = instance_from_families(g, (Demand(0, 2, 2),), (((0, 1, 2),),), linear_sum())
        assert verify_stretch(inst, [2]) == (True, [])
        assert verify_stretch(inst, [0]) == (False, [0])

    def test_planted_missing_demand_found_by_search(self, monkeypatch):
        # below n = 289 every node roots a tree, so the rounding keeps every
        # edge and every demand has a wholly kept family path
        g = gen_gnp(12, 0.3, seed=17)
        inst = build_spanner_instance(g, 2)
        out = round_spanner(g, solve_global_oracle(inst).x, 2, seed=1)
        assert out.edges == frozenset(range(g.m))
        roots = []
        search = rounding._hop_table

        def recorded(indptr, heads, sources, depth):
            roots.append(sorted(set(np.asarray(sources).tolist())))
            return search(indptr, heads, sources, depth)

        monkeypatch.setattr(rounding, "_hop_table", recorded)
        assert verify_stretch(inst, out.edges) == (True, []) and roots == []
        # drop demand i's own edge and the first edge of each of its
        # detours, for the first i that leaves every other demand a whole
        # family path (the families hold every path within the bound)
        for i, fam in enumerate(inst.family_edges):
            kept = out.edges - {path[0] for path in fam}
            met = [any(set(path) <= kept for path in f) for f in inst.family_edges]
            if len(fam) > 1 and met == [j != i for j in range(len(met))]:
                break
        else:
            pytest.fail("no demand can be cut alone")
        assert verify_stretch(inst, kept) == (False, [i])
        assert roots == [[inst.demands[i].u]]  # the search ran for demand i alone


class TestClassifyEdges:
    def test_single_edge_demand_thin(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        inst = build_spanner_instance(g, 2)
        assert classify_edges(inst) == ["thin"] * 3

    def test_complete_nine_thick(self):
        g = complete_digraph(9)
        inst = build_spanner_instance(g, 2)
        labels = classify_edges(inst)
        assert all(lab == "thick" for lab in labels)

    def test_boundary_inclusive(self):
        # n = 4: a two-node path set hits sqrt(4) exactly and counts as thick
        g = Graph(4, [(0, 1), (2, 3)])
        inst = build_spanner_instance(g, 2)
        assert classify_edges(inst) == ["thick", "thick"]
