"""Synchronous round-based LOCAL-model engine.

Nodes hold opaque state, exchange unbounded messages with communication-graph
neighbors at round boundaries, and declare their own termination. The engine
steps nodes in ascending index order; any parallel scheduling must reproduce
exactly those results, so index order is also the reference implementation.
No phase of the solver pipeline runs on this engine any more.
`decomposition.carve`, the solver's probe, gather and broadcast in
`distributed` and the spanner rounding in `rounding` run their rounds as
array operations over all nodes at once; tests hold each to its index-order
reference, the per-node protocol on `run_protocol` (`tests/carve_reference.py`,
`tests/solver_reference.py`, `tests/rounding_reference.py`).

`RoundTranscript` is the one round ledger: the engine and every array phase
charge rounds with `charge` and messages with `send`, and time out through
`check_rounds`, so their timeouts read the same. Message payload sizes are
tracked as scalar counts (8 bytes per scalar when reported as bytes); they
are diagnostics, not a bandwidth limit.

Every random draw comes from a counter-based stream keyed by (seed, phase,
iteration, node). `rng_stream` is the node-local reference: one numpy
Philox stream per key. `rng_uniforms` draws the same uniforms for many
iterations of one key at once, one array pass of numpy's SeedSequence
hashing and Philox4x64-10, equal to `rng_stream` row by row.
"""

from __future__ import annotations

import operator
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


def _phase_tag(phase: str) -> int:
    return zlib.crc32(phase.encode("utf-8"))


def rng_stream(
    seed: int, phase: str, iteration: int = 0, node: int = 0
) -> np.random.Generator:
    """Deterministic per-(seed, phase, iteration, node) random stream.

    Counter-based (Philox) so draw order never depends on host scheduling:
    equal keys give identical sequences, distinct keys independent ones.
    Keys must be integers (a float raises TypeError, never truncates) and
    nonnegative (ValueError).
    """
    ss = np.random.SeedSequence(
        entropy=operator.index(seed),
        spawn_key=(_phase_tag(phase), operator.index(iteration),
                   operator.index(node)),
    )
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Philox4x64-10 (Salmon et al., SC 2011): the multipliers of counter words
# 0 and 2, their 32-bit halves, and the Weyl increments of the two key words
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157],
                     dtype=np.uint64)[:, None, None]
_PHILOX_M_LO = _PHILOX_M & _MASK32
_PHILOX_M_HI = _PHILOX_M >> 32
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B],
                     dtype=np.uint64)[:, None, None]
_PHILOX_ROUNDS = 10


def _key_int(value) -> int:
    """A stream key as SeedSequence takes it: an exact nonnegative integer."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    return value


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's little-endian 32-bit words of a nonnegative integer."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value, hash_const, mult: int = _MULT_A):
    """SeedSequence's hashmix of a word, and the next hash constant. Words
    and constants may be ints or broadcasting uint64 arrays."""
    nxt = hash_const * mult & _MASK32
    value = (value ^ hash_const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _hash_run(hash_const: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """The hash constants of the next _POOL_SIZE hashmix calls, as a column,
    and the one after them: the sequence never depends on the data."""
    consts = []
    for _ in range(_POOL_SIZE):
        consts.append(hash_const)
        hash_const = hash_const * mult & _MASK32
    return np.array(consts, dtype=np.uint64)[:, None], hash_const


def _mix_words(pool: np.ndarray, hash_const: int, words) -> tuple[np.ndarray, int]:
    """Mix each entropy word past the pool size into every pool word, all
    pool words at once: each one takes its own hash of the word."""
    for w in words:
        consts, hash_const = _hash_run(hash_const)
        pool = _mix(pool, _hashmix(w, consts)[0])
    return pool, hash_const


def _philox_keys(seed: int, tag: int, iterations: np.ndarray,
                 node: int) -> np.ndarray:
    """(2, T) Philox keys of SeedSequence(seed, spawn_key=(tag, i, node)),
    for each i of the uint64 array `iterations`.

    The entropy is the seed's words (zero-padded to the pool size), then
    tag, iteration and node words. The words before the iteration are the
    same in every row, so they are mixed into the pool once; the words from
    the iteration on are mixed into a (pool, row) array, one group of rows
    per iteration word count.
    """
    entropy = _uint32_words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    pool, hc = [], _INIT_A
    for w in entropy[:_POOL_SIZE]:
        w, hc = _hashmix(w, hc)
        pool.append(w)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                w, hc = _hashmix(pool[src], hc)
                pool[dst] = _mix(pool[dst], w)
    pool, hc = _mix_words(np.array(pool, dtype=np.uint64)[:, None], hc,
                          entropy[_POOL_SIZE:] + [tag])
    # generate_state(2, np.uint64): hash each pool word, pair little-endian
    out_consts = _hash_run(_INIT_B, _MULT_B)[0]
    keys = np.empty((2, len(iterations)), dtype=np.uint64)
    high = iterations >> 32
    for two_words in (False, True):
        rows = np.flatnonzero((high != 0) == two_words)
        if not rows.size:
            continue
        words = [iterations[rows] & _MASK32] + ([high[rows]] if two_words else [])
        p, _ = _mix_words(pool, hc, words + _uint32_words(node))
        state = _hashmix(p, out_consts, _MULT_B)[0]
        keys[:, rows] = state[0::2] | state[1::2] << 32
    return keys


def _mulhi(x: np.ndarray) -> np.ndarray:
    """High words of the 128-bit products _PHILOX_M * x, from 32-bit halves."""
    x_lo = x & _MASK32
    x_hi = x >> 32
    t = x_lo * _PHILOX_M_LO
    u = x_hi * _PHILOX_M_LO + (t >> 32)
    v = x_lo * _PHILOX_M_HI + (u & _MASK32)
    return x_hi * _PHILOX_M_HI + (u >> 32) + (v >> 32)


def rng_uniforms(seed: int, phase: str, iterations, count: int,
                 node: int = 0) -> np.ndarray:
    """(len(iterations), count) uniforms: row j is bit for bit
    `rng_stream(seed, phase, iterations[j], node).random(count)`.

    One array pass over every row: SeedSequence's pool hashing gives each
    row's Philox key, then Philox4x64-10 runs over the counters 1..ceil(count
    / 4) of every row at once (numpy's first block is counter 1), and each
    64-bit output x becomes (x >> 11) * 2**-53, as `Generator.random` does.
    `iterations` is a 1-D integer array below 2**64.
    """
    seed, node, count = _key_int(seed), _key_int(node), _key_int(count)
    its = np.asarray(iterations)
    if its.ndim != 1:
        raise ValueError(f"iterations must be 1-D, got shape {its.shape}")
    if its.size == 0:
        return np.empty((0, count))
    if its.dtype.kind not in "iu":
        raise TypeError(f"iterations must be integers, got {its.dtype}")
    if its.dtype.kind == "i" and its.min() < 0:
        raise ValueError("expected non-negative integer")
    key = _philox_keys(seed, _phase_tag(phase), its.astype(np.uint64),
                       node)[:, :, None]
    blocks = -(-count // 4)
    # counter words (0, 2) and (1, 3) of every (row, block)
    even = np.zeros((2, len(its), blocks), dtype=np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key = key + _PHILOX_W
        # (c0, c1, c2, c3) -> (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
        #                      hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))
        even, odd = _mulhi(even)[::-1] ^ odd ^ key, (even * _PHILOX_M)[::-1]
    words = np.stack([even[0], odd[0], even[1], odd[1]], axis=-1)
    words = words.reshape(len(its), 4 * blocks)[:, :count]
    return (words >> 11) * 2.0 ** -53


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

    def send(self, sizes) -> None:
        """Charge one message per entry of `sizes`, a sequence of payload
        sizes in scalars. Every phase charges its messages here."""
        sizes = np.asarray(sizes)
        if sizes.size:
            self.total_messages += sizes.size
            self.max_payload_scalars = max(self.max_payload_scalars,
                                           int(sizes.max()))


def check_rounds(rounds: int, max_rounds: int) -> None:
    """Raise ProtocolTimeout when a run needs round `rounds` past its
    `max_rounds`; every phase times out here."""
    if rounds > max_rounds:
        raise ProtocolTimeout(
            f"no global termination within max_rounds={max_rounds}")


TRANSCRIPT_CSV_HEADER = ",".join(
    ["seed", "n", "m", "epsilon", "D"]
    + [f"rounds_{p.replace('-', '_')}" for p in PHASES]
    + ["total_rounds", "messages", "max_payload_bytes"])


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
    neighbor_sets = [set(g.neighbors(u)) for u in range(n)]
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
            sizes = []
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
                sizes.append(size)
                pending[dst].append((u, payload))
            transcript.send(sizes)
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
        check_rounds(nxt, max_rounds)
        inboxes, pending = pending, inboxes
        r = nxt
