"""Synchronous round-based LOCAL-model engine.

Nodes hold opaque state, exchange unbounded messages with communication-graph
neighbors at round boundaries, and declare their own termination. The engine
steps nodes in ascending index order; any parallel scheduling must reproduce
exactly those results, so index order is also the reference implementation.
`decomposition.carve` runs its rounds as array operations over all nodes at
once instead of on this engine; tests hold it to its index-order reference,
the per-node flood on `run_protocol`.

Message payload sizes are tracked as scalar counts (8 bytes per scalar when
reported as bytes); they are diagnostics, not a bandwidth limit.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .graphs import Graph


class ProtocolError(RuntimeError):
    """A protocol violated the model (e.g. messaged a non-neighbor)."""


class ProtocolTimeout(ProtocolError):
    """max_rounds exhausted before every node declared termination."""


#: Phase keys used by the composed distributed runs.
PHASES = ("decomposition", "gather", "solve-broadcast", "rounding")


def rng_stream(
    seed: int, phase: str, iteration: int = 0, node: int = 0
) -> np.random.Generator:
    """Deterministic per-(seed, phase, iteration, node) random stream.

    Counter-based (Philox) so draw order never depends on host scheduling:
    equal keys give identical sequences, distinct keys independent ones.
    """
    tag = zlib.crc32(phase.encode("utf-8"))
    ss = np.random.SeedSequence(
        entropy=int(seed), spawn_key=(tag, int(iteration), int(node))
    )
    return np.random.Generator(np.random.Philox(ss))


def payload_scalars(obj) -> int:
    """Approximate payload size as a count of atomic scalar entries."""
    if obj is None or isinstance(obj, (int, float, bool, np.integer, np.floating)):
        return 1
    if isinstance(obj, (str, bytes)):
        return max(1, len(obj))
    if isinstance(obj, np.ndarray):
        return int(obj.size)
    if isinstance(obj, Mapping):
        return sum(payload_scalars(k) + payload_scalars(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(payload_scalars(v) for v in obj) + 1
    return 1


@dataclass
class RoundTranscript:
    """Round, message, and payload accounting for one simulated run."""

    phase_rounds: dict[str, int] = field(default_factory=dict)
    total_messages: int = 0
    max_payload_scalars: int = 0

    @property
    def rounds_elapsed(self) -> int:
        return sum(self.phase_rounds.values())

    @property
    def max_payload_bytes(self) -> int:
        return 8 * self.max_payload_scalars

    def charge(self, phase: str, rounds: int) -> None:
        self.phase_rounds[phase] = self.phase_rounds.get(phase, 0) + int(rounds)

    def record_message(self, scalars: int) -> None:
        self.total_messages += 1
        if scalars > self.max_payload_scalars:
            self.max_payload_scalars = int(scalars)


TRANSCRIPT_CSV_HEADER = (
    "seed,n,m,epsilon,D,rounds_decomposition,rounds_gather,"
    "rounds_solve_broadcast,rounds_rounding,total_rounds,messages,max_payload_bytes"
)


def transcript_csv_row(
    t: RoundTranscript, *, seed: int, n: int, m: int, epsilon: float, D: int
) -> str:
    """One CSV row summarizing a run (pair with TRANSCRIPT_CSV_HEADER)."""
    per_phase = [t.phase_rounds.get(p, 0) for p in PHASES]
    fields = [seed, n, m, epsilon, D, *per_phase, t.rounds_elapsed,
              t.total_messages, t.max_payload_bytes]
    return ",".join(str(v) for v in fields)


@dataclass
class NodeStep:
    """Result of one node step: new state, messages, and scheduling hints.

    `done` means the node needs no further wakeups unless a message arrives.
    `wake` asks to sleep until the given round (message arrival still wakes
    the node early); None means step every round.
    """

    state: object
    outbox: Iterable = ()
    done: bool = False
    wake: int | None = None


StepFn = Callable[[int, object, tuple, int], NodeStep]


def run_protocol(
    g: Graph,
    step: StepFn,
    init: Mapping[int, object] | list,
    max_rounds: int,
    transcript: RoundTranscript | None = None,
    phase: str = "protocol",
) -> tuple[list, RoundTranscript]:
    """Run a synchronous round protocol until global termination.

    Messages sent in round r are delivered at round r+1. Termination is
    reached when every node is done and no message is in flight; the engine
    fast-forwards through rounds where all nodes sleep and nothing is in
    flight, charging the skipped rounds as elapsed.

    Guarantee: a step's inbox holds its `(sender, payload)` pairs in
    ascending sender order, and one sender's messages in the order it sent
    them. Senders step in ascending index order and their messages are
    appended as they are sent, so the engine needs no sort for this.

    Returns the final per-node states and the transcript (phase `phase`
    charged with the rounds consumed here).

    Raises ProtocolError on a message to a non-neighbor and ProtocolTimeout
    if max_rounds is exhausted first.
    """
    if max_rounds < 0:
        raise ProtocolError(f"max_rounds must be nonnegative, got {max_rounds}")
    if transcript is None:
        transcript = RoundTranscript()
    n = g.n
    states = [init[u] for u in range(n)]
    neighbor_sets = [set(a) for a in g.shadow_adj]
    done = [False] * n
    wake: list[int | None] = [0] * n
    inboxes: list[list[tuple[int, object]]] = [[] for _ in range(n)]
    pending: list[list[tuple[int, object]]] = [[] for _ in range(n)]

    r = 0
    while True:
        stepped_any = False
        for u in range(n):
            has_mail = bool(inboxes[u])
            awake = (not done[u]) and (wake[u] is None or wake[u] <= r)
            if not (has_mail or awake):
                continue
            stepped_any = True
            mail = tuple(inboxes[u])
            inboxes[u] = []
            res = step(u, states[u], mail, r)
            states[u] = res.state
            done[u] = res.done
            wake[u] = res.wake
            neighbors = neighbor_sets[u]
            for item in res.outbox:
                if len(item) == 3:
                    dst, payload, size = item
                else:
                    dst, payload = item
                    size = payload_scalars(payload)
                if dst not in neighbors:
                    raise ProtocolError(
                        f"node {u} sent to non-neighbor {dst} in round {r}"
                    )
                transcript.record_message(size)
                pending[dst].append((u, payload))
        in_flight = any(pending)
        if not in_flight and all(done):
            transcript.charge(phase, r)
            return states, transcript
        if in_flight:
            nxt = r + 1
        else:
            pending_wakes = [wake[u] for u in range(n) if not done[u]]
            if any(w is None for w in pending_wakes):
                nxt = r + 1
            else:
                nxt = max(r + 1, min(pending_wakes))  # type: ignore[type-var]
            if not stepped_any and nxt <= r:
                raise ProtocolError("engine stalled without progress")
        if nxt > max_rounds:
            raise ProtocolTimeout(
                f"no global termination within max_rounds={max_rounds}"
            )
        inboxes, pending = pending, inboxes
        r = nxt


def broadcast_in_cluster(
    g: Graph,
    cluster: Iterable[int],
    center: int,
    payload,
    transcript: RoundTranscript | None = None,
    phase: str = "solve-broadcast",
) -> tuple[dict[int, object], RoundTranscript]:
    """Deliver `payload` from `center` to every cluster node along a BFS tree.

    The cluster must be connected in the communication subgraph it induces;
    rounds charged equal the center's eccentricity inside that subgraph and
    messages equal the tree edges.
    """
    members = set(int(u) for u in cluster)
    if center not in members:
        raise ProtocolError(f"center {center} not in cluster")
    if transcript is None:
        transcript = RoundTranscript()
    size = payload_scalars(payload)
    received = {center: payload}
    frontier = [center]
    depth = 0
    while frontier:
        nxt = []
        for u in sorted(frontier):
            for w in g.shadow_adj[u]:
                if w in members and w not in received:
                    received[w] = payload
                    transcript.record_message(size)
                    nxt.append(w)
        if nxt:
            depth += 1
        frontier = nxt
    if set(received) != members:
        missing = sorted(members - set(received))
        raise ProtocolError(f"cluster disconnected: {missing} unreachable from center")
    transcript.charge(phase, depth)
    return received, transcript
