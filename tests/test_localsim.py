import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padspan.rounding as rounding
from padspan.decomposition import PaddedParams, draw_radii, sample_radius
from padspan.graphs import Graph
from padspan.harness import gen_gnp
from padspan.localsim import (
    NodeStep,
    ProtocolError,
    ProtocolTimeout,
    RoundTranscript,
    TRANSCRIPT_CSV_HEADER,
    payload_scalars,
    rng_stream,
    rng_uniforms,
    run_protocol,
    transcript_csv_row,
)
from padspan.rounding import _edge_coins, round_spanner, round_spanner_distributed


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)], directed=False)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], directed=False)


class TestRunProtocol:
    def test_flood_path_terminates_in_four_rounds(self):
        g = path_graph(5)

        def step(u, state, inbox, rnd):
            have, = state
            outbox = []
            if rnd == 0 and u == 0 and not have:
                have = True
                outbox = [(w, "tok") for w in g.shadow_adj[u]]
            elif inbox and not have:
                have = True
                senders = {src for src, _ in inbox}
                outbox = [(w, "tok") for w in g.shadow_adj[u] if w not in senders]
            return NodeStep((have,), outbox, done=True)

        states, transcript = run_protocol(
            g, step, [(False,)] * 5, max_rounds=10
        )
        assert transcript.rounds_elapsed == 4
        assert all(s[0] for s in states)

    def test_immediate_termination_zero_rounds(self):
        g = cycle(4)
        step = lambda u, s, inbox, rnd: NodeStep(s, (), done=True)
        _, transcript = run_protocol(g, step, [None] * 4, max_rounds=5)
        assert transcript.rounds_elapsed == 0

    def test_bfs_layers_six_cycle_three_rounds(self):
        # hand simulation: root layer 0; antipodal node joins at round 3
        g = cycle(6)

        def step(u, state, inbox, rnd):
            level = state
            outbox = []
            if rnd == 0 and u == 0:
                level = 0
                outbox = [(w, 0) for w in g.shadow_adj[u]]
            elif inbox and level is None:
                level = min(lvl for _, lvl in inbox) + 1
                senders = {src for src, _ in inbox}
                outbox = [(w, level) for w in g.shadow_adj[u] if w not in senders]
            return NodeStep(level, outbox, done=True)

        states, transcript = run_protocol(g, step, [None] * 6, max_rounds=10)
        assert transcript.rounds_elapsed == 3
        assert states == [0, 1, 2, 3, 2, 1]

    def test_message_to_non_neighbor_raises(self):
        g = path_graph(3)

        def step(u, state, inbox, rnd):
            if u == 0 and rnd == 0:
                return NodeStep(state, [(2, "x")], done=True)
            return NodeStep(state, (), done=True)

        with pytest.raises(ProtocolError):
            run_protocol(g, step, [None] * 3, max_rounds=5)

    def test_timeout(self):
        g = path_graph(2)

        def step(u, state, inbox, rnd):
            # ping-pong forever
            return NodeStep(state, [(1 - u, "ping")], done=False)

        with pytest.raises(ProtocolTimeout):
            run_protocol(g, step, [None] * 2, max_rounds=7)

    def test_wake_fast_forward_counts_rounds(self):
        g = path_graph(2)

        def step(u, state, inbox, rnd):
            if rnd < 50:
                return NodeStep(state, (), done=False, wake=50)
            return NodeStep(rnd, (), done=True)

        states, transcript = run_protocol(g, step, [None] * 2, max_rounds=60)
        assert transcript.rounds_elapsed == 50
        assert states == [50, 50]

    def test_determinism(self):
        g = cycle(8)

        def make_step():
            def step(u, state, inbox, rnd):
                rng = rng_stream(9, "demo", rnd, u)
                val = state + rng.random() + sum(p for _, p in inbox)
                outbox = [(w, val) for w in g.shadow_adj[u]] if rnd < 3 else ()
                return NodeStep(val, outbox, done=rnd >= 3)
            return step

        s1, t1 = run_protocol(g, make_step(), [0.0] * 8, max_rounds=10)
        s2, t2 = run_protocol(g, make_step(), [0.0] * 8, max_rounds=10)
        assert s1 == s2
        assert t1.rounds_elapsed == t2.rounds_elapsed
        assert t1.total_messages == t2.total_messages

    def test_messages_counted_and_sized(self):
        g = path_graph(2)

        def step(u, state, inbox, rnd):
            if u == 0 and rnd == 0:
                return NodeStep(state, [(1, np.zeros(17))], done=True)
            return NodeStep(state, (), done=True)

        _, transcript = run_protocol(g, step, [None] * 2, max_rounds=3)
        assert transcript.total_messages == 1
        assert transcript.max_payload_scalars == 17
        assert transcript.max_payload_bytes == 8 * 17


def star(n, center):
    return Graph(n, [(center, v) for v in range(n) if v != center],
                 directed=False)


class TestInboxOrder:
    @pytest.mark.parametrize("g", [star(9, 4), gen_gnp(12, 0.5, seed=0)],
                             ids=["star", "gnp"])
    def test_senders_ascending(self, g):
        # every node sends two messages to each neighbor, highest id
        # first, for three rounds; inboxes must list them by sender, then
        # in sending order
        def step(u, seen, inbox, rnd):
            seen.append([payload for _, payload in inbox])
            assert all(src == payload[0] for src, payload in inbox)
            outbox = [] if rnd >= 3 else [
                (w, (u, seq)) for w in reversed(g.shadow_adj[u])
                for seq in (0, 1)
            ]
            return NodeStep(seen, outbox, done=True)

        states, _ = run_protocol(g, step, [[] for _ in range(g.n)],
                                 max_rounds=5)
        for u, seen in enumerate(states):
            assert len(seen) == 4
            for got in seen[1:]:
                assert got == [(w, seq) for w in sorted(g.shadow_adj[u])
                               for seq in (0, 1)]


class TestRngStream:
    def test_equal_keys_equal_sequences(self):
        a = rng_stream(5, "phase", 2, 3)
        b = rng_stream(5, "phase", 2, 3)
        assert np.array_equal(a.random(10), b.random(10))

    def test_distinct_keys_differ(self):
        draws = {}
        for phase in ("a", "b"):
            for it in range(3):
                for node in range(3):
                    key = (phase, it, node)
                    draws[key] = tuple(rng_stream(1, phase, it, node).random(4))
        assert len(set(draws.values())) == len(draws)

    def test_seed_changes_stream(self):
        assert rng_stream(1, "x").random() != rng_stream(2, "x").random()

    def test_numpy_stream_pinned(self):
        # `rng_uniforms` reimplements numpy's SeedSequence and Philox, and
        # every report pin rests on these streams: a numpy release that
        # changes either must fail here, not drift the reports silently
        got = [float.hex(float(x))
               for x in rng_stream(1, "decomp-radius", 0).random(4)]
        assert got == ["0x1.1aaf153b188fbp-1", "0x1.fdf477ea46330p-5",
                       "0x1.4a21c0bea39ecp-2", "0x1.2fad2470ae588p-2"]

    @pytest.mark.parametrize("bad", [1.7, 2.0, np.float64(3.0)])
    @pytest.mark.parametrize("slot", ["seed", "iteration", "node"])
    def test_float_key_raises(self, slot, bad):
        key = {"seed": 1, "iteration": 2, "node": 3, slot: bad}
        with pytest.raises(TypeError):
            rng_stream(key["seed"], "x", key["iteration"], key["node"])
        with pytest.raises(TypeError):
            rng_uniforms(key["seed"], "x", [key["iteration"]], 4, key["node"])

    @pytest.mark.parametrize("slot", ["seed", "iteration", "node"])
    def test_negative_key_raises_numpy_error(self, slot):
        with pytest.raises(ValueError) as numpy_error:
            np.random.SeedSequence(-1)
        message = str(numpy_error.value)
        key = {"seed": 1, "iteration": 2, "node": 3, slot: -1}
        with pytest.raises(ValueError, match=message):
            rng_stream(key["seed"], "x", key["iteration"], key["node"])
        with pytest.raises(ValueError, match=message):
            rng_uniforms(key["seed"], "x", [0, key["iteration"]], 4,
                         key["node"])


class TestRngUniforms:
    """The array kernel equals numpy's per-key streams, row by row."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**160 - 1), phase=st.text(max_size=8),
           iterations=st.lists(st.integers(0, 2**34 - 1), max_size=5),
           node=st.integers(0, 2**40), count=st.integers(0, 70))
    def test_rows_equal_numpy_streams(self, seed, phase, iterations, node,
                                      count):
        got = rng_uniforms(seed, phase, iterations, count, node)
        assert got.shape == (len(iterations), count)
        for row, i in zip(got, iterations):
            assert np.array_equal(row, rng_stream(seed, phase, i, node).random(count))

    @pytest.mark.parametrize("iterations", [[], np.array([], dtype=np.int64)])
    def test_empty_iterations(self, iterations):
        assert rng_uniforms(1, "x", iterations, 5).shape == (0, 5)

    def test_one_and_two_word_iterations_mixed(self):
        its = np.array([2**32 + 1, 0, 2**32 - 1, 2**63 + 3, 7],
                       dtype=np.uint64)
        got = rng_uniforms(9, "decomp-radius", its, 13, 2)
        for row, i in zip(got, its):
            assert np.array_equal(
                row, rng_stream(9, "decomp-radius", int(i), 2).random(13))

    def test_radii_of_an_iteration_array(self):
        params = PaddedParams(k=2, epsilon=0.5, n=10)
        stacked = np.stack([draw_radii(params, 4, i, 10) for i in range(6)])
        assert np.array_equal(draw_radii(params, 4, np.arange(6), 10), stacked)
        assert draw_radii(params, 4, np.arange(6), 1).shape == (6, 1)


def local_uniform(seed, phase, iteration, index):
    """The uniform at `index` of a stream, computed from its key alone: a
    fresh stream advanced to block index // 4 (Philox emits four 64-bit
    words per block), then index % 4 + 1 draws, keeping the last."""
    rng = rng_stream(seed, phase, iteration)
    rng.bit_generator.advance(index // 4)
    return rng.random(index % 4 + 1)[-1]


class TestLocalDraws:
    """Every radius and coin is computable by its node from its key alone,
    as the LOCAL model requires: no node needs another's draws."""

    def test_radius_is_node_local(self):
        n = 37
        params = PaddedParams(k=2, epsilon=0.5, n=n)
        u = np.array([local_uniform(5, "decomp-radius", 3, v)
                      for v in range(n)])
        assert np.array_equal(draw_radii(params, 5, 3, n),
                              sample_radius(params, u, n))

    def test_coins_are_owner_local(self, monkeypatch):
        g = gen_gnp(12, 0.4, seed=1)
        coins = _edge_coins(g, 7, 2)
        assert g.m > 40
        for e in range(g.m):
            assert coins[e] == local_uniform(7, "round-edge", 2, e)
        # below n = 289 every node is a root; halve the odds to see the coins
        monkeypatch.setattr(rounding, "root_probability", lambda n: 0.5)
        roots = tuple(v for v in range(g.n)
                      if local_uniform(7, "round-root", 2, v) < 0.5)
        assert 0 < len(roots) < g.n
        x = np.zeros(g.m)
        assert round_spanner(g, x, 1, seed=7, iteration=2).roots == roots
        out, _ = round_spanner_distributed(g, x, 1, seed=7, iteration=2)
        assert out.roots == roots


class TestTranscript:
    def test_rounds_is_sum_of_phases(self):
        t = RoundTranscript()
        t.charge("decomposition", 5)
        t.charge("gather", 3)
        t.charge("gather", 2)
        assert t.rounds_elapsed == 10
        assert t.phase_rounds["gather"] == 5

    def test_csv_row_shape(self):
        t = RoundTranscript()
        t.charge("decomposition", 4)
        t.record_message(10)
        row = transcript_csv_row(t, seed=1, n=8, m=12, epsilon=0.5, D=2)
        assert len(row.split(",")) == len(TRANSCRIPT_CSV_HEADER.split(","))
        assert row.startswith("1,8,12,0.5,2,4,0,0,0,4,1,80")

    def test_payload_scalars(self):
        assert payload_scalars(3) == 1
        assert payload_scalars({"a": [1, 2, 3]}) == 5
        assert payload_scalars(np.zeros((2, 3))) == 6
