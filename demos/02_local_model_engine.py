#!/usr/bin/env python3
"""Writing protocols against the synchronous message-passing engine.

A protocol is one step function: (node, state, inbox, round) -> NodeStep.
Messages go only to communication-graph neighbors and arrive next round; the
engine counts rounds, messages, and payload sizes, and a run ends when every
node has declared itself done with nothing in flight.
"""

from padspan import NodeStep, rng_stream, run_protocol
from padspan.harness import gen_cycle

g = gen_cycle(10, directed=False)

# -- BFS layering from node 0 ------------------------------------------------

def bfs_step(u, level, inbox, rnd):
    outbox = []
    if rnd == 0 and u == 0:
        level = 0
        outbox = [(w, 0) for w in g.shadow_adj[u]]
    elif inbox and level is None:
        level = min(lvl for _, lvl in inbox) + 1
        senders = {src for src, _ in inbox}
        outbox = [(w, level) for w in g.shadow_adj[u] if w not in senders]
    return NodeStep(level, outbox, done=True)

levels, transcript = run_protocol(g, bfs_step, [None] * g.n, max_rounds=20)
print("10-cycle BFS levels:", levels)
print(f"rounds: {transcript.rounds_elapsed} (= eccentricity of node 0)")
print(f"messages: {transcript.total_messages}, "
      f"max payload: {transcript.max_payload_bytes} bytes")

# -- deterministic per-node randomness ----------------------------------------
# streams are keyed by (seed, phase, iteration, node); equal keys replay
a = rng_stream(42, "coin", 0, 3).random(3)
b = rng_stream(42, "coin", 0, 3).random(3)
c = rng_stream(42, "coin", 0, 4).random(3)
print("\nsame key replays:  ", (a == b).all())
print("other node differs:", (a != c).any())
