"""A toy four-round public-coin protocol, its parallel repetition and Fiat-Shamir.

The protocol shape is the standard one: V1 emits a key pair (k, td), the
prover commits y, V3 tosses public coins c, the prover answers a, and
V_out judges the transcript.  Challenge bit 0 is the test round, which is
verifiable from public data alone; bit 1 is the Hadamard round, which
needs the trapdoor.

One frozen value, FourRoundProtocol(n, shape), is a small concrete
instance with a real completeness/soundness gap, repeated in parallel to
a shape; `toy_protocol` and `parallel_repeat` build it.  `run_protocol`
plays trials through its per-trial methods, the reference, or replays
them as arrays through its bulk methods.  The module also has a
Fiat-Shamir combinator over a lazily sampled oracle table, whose bulk
route hashes one-level repetitions, and the adversary strategies the
experiments use.  Security here is experimental, not cryptographic: the
oracle is a deterministic pseudorandom table, and the toy instance's
Hadamard round encodes its soundness assumption directly (no-instances
reject that round outright).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from . import config
from .partition import ProverStrategy, answer_amps
from .qsim import CapExceeded, StateVector, born_table, measure, outcome_probs


class ProtocolError(Exception):
    pass


class WidthMismatch(ProtocolError):
    pass


# ---------------------------------------------------------------------------
# Canonical serialization
#
# Everything that ever feeds a hash goes through `encode`, so each value
# has exactly one byte representation.  Layout per node: one tag byte, a
# 4-byte big-endian payload length, then the payload.  Tuples recurse.

_TAG_NONE = b"N"
_TAG_INT = b"I"
_TAG_BYTES = b"B"
_TAG_STR = b"S"
_TAG_TUPLE = b"T"


def encode(value) -> bytes:
    """Canonical length-prefixed big-endian encoding: tag, 4-byte length, payload."""
    # Exact types first: programs and transcripts are built from these.
    # None, bool, numpy integers and subclasses take the ladder after them.
    kind = type(value)
    if kind is tuple:
        return frame_tuple([encode(v) for v in value])
    elif kind is int and value >= 0:
        tag, payload = _TAG_INT, value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    elif kind is str:
        tag, payload = _TAG_STR, value.encode("utf-8")
    elif kind is bytes:
        tag, payload = _TAG_BYTES, value
    elif value is None:
        tag, payload = _TAG_NONE, b""
    elif isinstance(value, bool):
        # bools would silently encode as ints; forbid to keep the encoding injective
        raise ProtocolError("bool is not an encodable transcript value")
    elif isinstance(value, (int, np.integer)):
        if value < 0:
            raise ProtocolError("negative ints not used in transcripts")
        return encode(int(value))
    elif isinstance(value, bytes):
        tag, payload = _TAG_BYTES, value
    elif isinstance(value, str):
        tag, payload = _TAG_STR, value.encode("utf-8")
    elif isinstance(value, tuple):
        return frame_tuple([encode(v) for v in value])
    else:
        raise ProtocolError(f"unencodable type {type(value).__name__}")
    return _frame(tag, payload)


def frame_tuple(items: list[bytes]) -> bytes:
    """Frame encoded items as one tuple: frame_tuple([encode(v) for v in t]) == encode(t)."""
    return _frame(_TAG_TUPLE, b"".join(items))


def _frame(tag: bytes, payload: bytes) -> bytes:
    if len(payload) > 0xFFFFFFFF:
        raise ProtocolError("payload too large to frame")
    return tag + len(payload).to_bytes(4, "big") + payload


# ---------------------------------------------------------------------------
# Oracle tables


def _oracle_value(seed_bytes: bytes, key: bytes, out_bits: int) -> int:
    """The out_bits-bit output for key under a seed prefix.

    The output is the leading bytes of the sha256 stream of
    seed || key || counter (4-byte big-endian counter from 0), read
    big-endian with the bits above out_bits cleared.  Oracle tables use
    an 8-byte seed; effverify's PRG reads the same stream.
    """
    out_bytes = (out_bits + 7) // 8
    data = seed_bytes + key
    stream = hashlib.sha256(data + bytes(4)).digest()
    for counter in range(1, (out_bytes + 31) // 32):
        stream += hashlib.sha256(data + counter.to_bytes(4, "big")).digest()
    return int.from_bytes(stream[:out_bytes], "big") & ((1 << out_bits) - 1)


class OracleTable:
    """Lazily sampled random function with a fixed output width.

    Outputs are deterministic in (master_seed, key): the first query of a
    key samples a sha256 stream and caches it, so identical queries agree
    forever.  master_seed must be an int (not a bool) in 0..2^64-1.
    """

    def __init__(self, master_seed: int, out_bits: int):
        config.check_int("out_bits", out_bits, 1, ProtocolError)
        # the seed enters every hash as 8 big-endian bytes, so anything an
        # int() would coerce (a float, a str, a bool) is refused
        self.master_seed = config.check_int("master_seed", master_seed, 0, ProtocolError, 2**64 - 1)
        self.out_bits = out_bits
        self.out_bytes = (out_bits + 7) // 8
        self.query_count = 0
        self._entries: dict[bytes, bytes] = {}

    def _sample(self, key: bytes) -> bytes:
        value = _oracle_value(self.master_seed.to_bytes(8, "big"), key, self.out_bits)
        return value.to_bytes(self.out_bytes, "big")

    def query(self, key: bytes) -> bytes:
        if not isinstance(key, bytes):
            raise ProtocolError("oracle keys are bytes")
        self.query_count += 1
        if key not in self._entries:
            self._entries[key] = self._sample(key)
        return self._entries[key]

    def query_bits(self, key: bytes) -> str:
        """The output of `query` as an out_bits-character bit string."""
        return format(int.from_bytes(self.query(key), "big"), f"0{self.out_bits}b")

    def salted(self, z: bytes) -> "SaltedOracle":
        return SaltedOracle(self, z)


class SaltedOracle:
    """View H(z, .) of a base table: every query gets the salt prefixed."""

    def __init__(self, base, z: bytes):
        self.base = base
        self.z = z

    def query(self, key: bytes) -> bytes:
        return self.base.query(self.z + key)


# ---------------------------------------------------------------------------
# The toy protocol
#
# Keys are a pair of n-bit strings x0, x1 whose xor has odd parity.  A
# commitment is y = r ^ x_b for prover-chosen (b, r), so each y has one
# valid opening per branch and the test round checks r ^ x_b == y from
# public data.  The honest Hadamard answer is a uniform d together with
# m0 = parity(d & (x0 ^ x1)); the verifier rejects d = 0 (it carries no
# information) and rejects the Hadamard round outright on no-instances.
# That last rule encodes the underlying soundness assumption as data, not
# as a hardness claim, which keeps the combinator experiments honest
# about what they establish.


def _parity(v: int) -> int:
    return int(v).bit_count() & 1


def _uint(v, bits: int) -> bool:
    """Whether v is an int or numpy integer (never a bool, as config.check_int) below 2^bits."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < 1 << bits


@dataclass(frozen=True)
class FourRoundProtocol:
    """The toy protocol on n-bit strings, repeated in parallel to a shape.

    Message shape: V1 -> (k, td); P2 -> y; V3 -> c; P4 -> a; V_out.
    shape holds the repetition factors, innermost first: () for the bare
    toy, (m,) for its m-fold repetition, (a, b) for b copies of the
    a-fold one.  Messages nest to the shape (a bare coordinate, an
    m-tuple, a b-tuple of a-tuples); the challenge is one public coin
    per coordinate, and v3 takes only an rng, so it is public by
    construction.  The verifier accepts iff every coordinate does;
    messages that do not nest to the shape get all-False verdicts.

    The per-trial methods draw coordinate by coordinate in flat order for
    every shape, so a repetition has the draw layout of its flat width;
    only encode(y), and so a hashed challenge, sees the nesting.  The
    array methods further down replay those draws in bulk.
    """

    n: int
    shape: tuple = ()

    def __post_init__(self):
        config.check_int("num_qubits", self.n, 1, ProtocolError)
        # a cheating unitary acts on 1 (C) + 1 (b) + n (r) qubits
        if self.n + 2 > config.QUBIT_CAP:
            raise CapExceeded(f"{self.n + 2} qubits exceed cap {config.QUBIT_CAP}")
        for m in self.shape:
            config.check_int("m", m, 1, ProtocolError)

    @property
    def m(self) -> int:
        """The number of coordinates, and so of challenge bits."""
        return math.prod(self.shape)

    def _flat(self, message) -> list | None:
        """The coordinates of a message nested to the shape, or None if it is not."""
        coords = [message]
        for size in reversed(self.shape):
            if not all(isinstance(v, tuple) and len(v) == size for v in coords):
                return None
            coords = [v for level in coords for v in level]
        return coords

    def nest(self, coords: list):
        """The message nested to the shape whose coordinates are coords."""
        for size in self.shape:
            coords = [tuple(coords[i:i + size]) for i in range(0, len(coords), size)]
        return coords[0]

    def _coords(self, *messages) -> list | None:
        """Each coordinate's parts of messages, or None if one does not nest to the shape."""
        flats = [self._flat(v) for v in messages]
        return None if None in flats else list(zip(*flats))

    def v1(self, x, rng):
        keys = []
        for _ in range(self.m):
            x0, x1 = int(rng.integers(1 << self.n)), int(rng.integers(1 << self.n))
            # force odd parity of the claw difference
            keys.append((x0, x1 ^ _parity(x0 ^ x1) ^ 1))
        k = self.nest(keys)
        return k, k

    def p2(self, x, k, rng):
        ys, states = [], []
        for key in self._flat(k):
            b, r = int(rng.integers(2)), int(rng.integers(1 << self.n))
            d = int(rng.integers(1 << self.n))  # Hadamard answer, drawn up front
            ys.append(r ^ key[b])
            states.append((key, b, r, d))
        return self.nest(ys), self.nest(states)

    def v3(self, rng) -> str:
        return "".join("01"[rng.integers(2)] for _ in range(self.m))

    def p4(self, state, c):
        return self.nest([("test", b, r) if ci == "0"
                          else ("had", _parity(d & (key[0] ^ key[1])), d)
                          for (key, b, r, d), ci in zip(self._flat(state), c)])

    def _test_ok(self, key, y, a) -> bool:
        """One coordinate's test round: a = ("test", b, r) opens y as r ^ x_b."""
        if not (isinstance(a, tuple) and len(a) == 3 and a[0] == "test"):
            return False
        _, b, r = a
        return _uint(b, 1) and _uint(r, self.n) and (r ^ key[b]) == y

    def _had_ok(self, x, td, a) -> bool:
        """One coordinate's Hadamard round: a = ("had", m0, d) with d != 0, on a yes-instance."""
        if not (isinstance(a, tuple) and len(a) == 3 and a[0] == "had"):
            return False
        _, m0, d = a
        return (x == "yes" and _uint(m0, 1) and _uint(d, self.n) and d != 0
                and m0 == _parity(d & (td[0] ^ td[1])))

    def v_out_coords(self, x, k, td, y, c, a) -> list[bool]:
        """The per-coordinate verdicts, in flat order; v_out is their conjunction."""
        coords = self._coords(k, td, y, a)
        if coords is None or not (isinstance(c, str) and len(c) == self.m):
            return [False] * self.m
        return [self._test_ok(key, yi, ai) if ci == "0" else self._had_ok(x, tdi, ai)
                for (key, tdi, yi, ai), ci in zip(coords, c)]

    def v_out(self, x, k, td, y, c, a) -> bool:
        return all(self.v_out_coords(x, k, td, y, c, a))

    # The bulk route's view of the same trials: where a trial's draws sit
    # in its stream of PCG64 outputs.
    #
    # One interactive trial first makes v1's draws (x0, x1) per coordinate.
    # Against Honest or TestOnly, p2 then draws (b, r, d) per coordinate and
    # v3 one coin per coordinate: 6m scalar draws.  Against UnitaryCheat,
    # the commitment draws y per coordinate, v3 the coins, and each
    # coordinate's measurement one double: 4m scalar draws, then m doubles.
    # Every scalar range is a power of two no wider than 2^32, for which
    # numpy's Lemire sampler never rejects: each draw is the top bits of one
    # next_uint32.  PCG64 hands out the low half of each 64-bit output
    # before the high half, so scalar draw 2j is output j's low half and
    # draw 2j + 1 its high half; a double is the top 53 bits of one whole
    # output, so either layout is 3m raw outputs.
    #
    # Under Fiat-Shamir, a trial first draws its oracle seed with
    # integers(1 << 62), which is one whole 64-bit output shifted right by 2
    # (the range is a power of two, so there is no rejection).  Then come
    # v1's 2m scalar draws and, for each commitment attempt, p2's 3m (b, r,
    # d per coordinate); there is no coin.  So the seed and v1 take 1 + m
    # raw outputs, and every two attempts another 3m, which keeps each pair
    # of attempts on whole outputs.
    #
    # The arrays run coordinates first, as the streams do: a reader asks
    # the streams for the words it reads, as (words, rows), and each draw
    # or verdict array is (draws or coordinates, rows), so every step and
    # every reduction over a trial's coordinates runs along contiguous rows
    # of trials.

    @property
    def raw_per_trial(self) -> int:
        return 3 * self.m

    @staticmethod
    def _keys(top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """v1's (x0, x1) per coordinate from its 2m draws, odd parity fixed."""
        x0, x1 = top[0::2], top[1::2]
        return x0, x1 ^ ((np.bitwise_count(x0 ^ x1) & 1) ^ 1)

    def fs_head(self, streams: "_TrialStreams"):
        """(oracle seeds, x0, x1) of Fiat-Shamir trials, from their first 1 + m outputs."""
        words = streams.words(1 + self.m, range(2 + 2 * self.m))
        # integers(1 << 62): the first whole output, (high:low) >> 2
        seeds = words[1].astype(np.uint64)
        seeds <<= np.uint64(30)
        seeds |= words[0] >> 2
        top = words[2:]
        top >>= 32 - self.n
        return (seeds, *self._keys(top))

    def fs_attempts(self, streams: "_TrialStreams", x0, x1, had_ok: bool):
        """(y, failmask) of each trial's next two commitment attempts.

        The attempts read their 3m outputs whole; y is (2, m, rows) and
        failmask (2, rows) has bit m-1-i set when coordinate i
        rejects a Hadamard round, the bit where the oracle's output
        carries coordinate i's challenge.  Honest or TestOnly pass every
        test round, so an attempt accepts iff challenge & failmask == 0.
        """
        m, n = self.m, self.n
        words = streams.words(3 * m, range(6 * m)).reshape(2, m, 3, -1)
        b, r, d = words[:, :, 0], words[:, :, 1], words[:, :, 2]
        y = np.where(b >> 31 == 1, x1, x0)
        r >>= 32 - n
        y ^= r
        # d = 0, a draw below 2^(32 - n), or a no-instance fails
        fail = (d < 1 << (32 - n)) | (not had_ok)
        # pack coordinate i's bit at m-1-i: big-endian bytes, then one shift
        packed = np.packbits(fail, axis=1)
        failmask = np.zeros(packed[:, 0].shape, dtype=np.uint64)
        for byte in packed.transpose(1, 0, 2):
            failmask <<= np.uint64(8)
            failmask |= byte
        failmask >>= np.uint64(8 * len(packed[0]) - m)
        return y, failmask

    def plain_verdicts(self, streams: "_TrialStreams", had_ok: bool):
        """(c, ok) per coordinate and trial, as (m, rows), for Honest or TestOnly.

        Both pass every test round; a Hadamard round passes only for an
        honest d != 0 on a yes-instance (had_ok).  A verdict reads only
        the m coins (words 5m on) and, under had_ok, p2's d (words 2m + 2,
        2m + 5, ...), so the streams jump to the output holding the first
        word read, and only those words are kept.
        """
        m = self.m
        coins = range(5 * m, 6 * m)
        if not had_ok:
            c = streams.words(self.raw_per_trial, coins)
            c >>= 31
            return c, c == 0
        words = streams.words(self.raw_per_trial, [*range(2 * m + 2, 5 * m, 3), *coins])
        d, c = words[:m], words[m:]
        c >>= 31
        # d != 0 is a draw of at least 2^(32 - n)
        return c, (c == 0) | (d >= 1 << (32 - self.n))

    def cheat_verdicts(self, streams: "_TrialStreams", cdfs: np.ndarray, yes: bool):
        """(c, ok) per coordinate and trial, as (m, rows), for UnitaryCheat.

        cdfs[c] is qsim's Born table of challenge c's outcomes, which
        `measure` searches with the measurement's double, the top 53 bits
        of one whole output.
        """
        m, n = self.m, self.n
        words = streams.words(self.raw_per_trial, range(6 * m))
        top, c = words[:3 * m], words[3 * m:4 * m]
        top >>= 32 - n
        c >>= 31
        (x0, x1), y = self._keys(top[:2 * m]), top[2 * m:]
        # random(): the top 53 bits of (high:low), as exact halves 2^-32 high + 2^-53 (low >> 11)
        u = words[4 * m + 1::2] * 2.0 ** -32
        u += (words[4 * m::2] >> 11) * 2.0 ** -53
        outcome = np.where(c == 0, np.searchsorted(cdfs[0], u, "right"),
                           np.searchsorted(cdfs[1], u, "right")).astype(np.uint64)
        first, rest = outcome >> n, outcome & ((1 << n) - 1)
        test_ok = (rest ^ np.where(first == 1, x1, x0)) == y
        had_ok = yes & (rest != 0) & (first == (np.bitwise_count(rest & (x0 ^ x1)) & 1))
        return c, np.where(c == 0, test_ok, had_ok)


def toy_protocol(num_qubits: int) -> FourRoundProtocol:
    """The bare toy instance; num_qubits is the width n of r and d.

    The statement x is the literal string "yes" for yes-instances; the
    Hadamard round rejects every other statement, so for any other x an
    honest prover wins only the test rounds.
    """
    return FourRoundProtocol(num_qubits)


def parallel_repeat(p: FourRoundProtocol, m: int) -> FourRoundProtocol:
    """m independent copies of p; accept iff every coordinate accepts.

    Messages become m-tuples of p's messages and the challenge the
    concatenation of m of p's.  m = 1 still wraps messages in 1-tuples,
    so callers can rely on one shape.
    """
    if not isinstance(p, FourRoundProtocol):
        raise ProtocolError(f"cannot repeat a {type(p).__name__}")
    return FourRoundProtocol(p.n, p.shape + (m,))


# ---------------------------------------------------------------------------
# Fiat-Shamir


@dataclass(frozen=True)
class TwoRoundFS:
    """Collapsed protocol: the challenge is the oracle's view of y."""

    base: FourRoundProtocol
    oracle: OracleTable

    def __post_init__(self):
        if not (isinstance(self.base, FourRoundProtocol) and isinstance(self.oracle, OracleTable)):
            raise ProtocolError(f"Fiat-Shamir of a {type(self.base).__name__} "
                                f"over a {type(self.oracle).__name__}")
        if self.oracle.out_bits != self.base.m:
            raise WidthMismatch(
                f"oracle width {self.oracle.out_bits} vs challenge width "
                f"{self.base.m}")

    def challenge_of(self, y) -> str:
        return self.oracle.query_bits(encode(y))

    def prove(self, x, k, rng):
        y, state = self.base.p2(x, k, rng)
        c = self.challenge_of(y)
        return y, self.base.p4(state, c)

    def verify(self, x, k, td, y, a) -> bool:
        try:
            c = self.challenge_of(y)
        except ProtocolError:
            return False  # y has no canonical encoding, so no challenge
        return self.base.v_out(x, k, td, y, c, a)


def fiat_shamir(p: FourRoundProtocol, oracle: OracleTable) -> TwoRoundFS:
    return TwoRoundFS(base=p, oracle=oracle)


# ---------------------------------------------------------------------------
# Adversary strategies
#
# A strategy exposes commit(x, k, rng) -> (y, state) and
# answer(state, c, rng) -> a.  run_protocol wires it into either the
# interactive or the Fiat-Shamir flow.


class Honest:
    """Follows the protocol exactly; built only for a FourRoundProtocol."""

    def __init__(self, p: FourRoundProtocol):
        if not isinstance(p, FourRoundProtocol):
            raise ProtocolError(f"{type(self).__name__} built for a "
                                f"{type(p).__name__}, not a FourRoundProtocol")
        self.p = p

    def commit(self, x, k, rng):
        return self.p.p2(x, k, rng)

    def answer(self, state, c, rng):
        return self.p.p4(state, c)


class TestOnly(Honest):
    """Commits honestly, answers test rounds perfectly, throws the rest.

    The Hadamard sentinel ("had", 0, 0) is rejected by construction, so
    this strategy accepts exactly when every coin lands on the test
    round: rate 2^-m under m-fold repetition.
    """

    def answer(self, state, c, rng):
        return self.p.nest([("test", b, r) if ci == "0" else ("had", 0, 0)
                            for (_, b, r, _), ci in zip(self.p._flat(state), c)])


class UnitaryCheat:
    """Product of per-coordinate quantum strategies over (C, X, Z).

    Each coordinate prepares the strategy's initial state, writes the
    challenge bit into C, applies U, and measures X; the measured bits
    (first, rest) are read as (b, r) on test rounds and (m0, d) on
    Hadamard rounds.  The answer does not depend on the committed y, so
    commit's state is y itself.  Coordinates are independent; entangled
    cross-coordinate cheats are out of scope at desk scale.
    """

    def __init__(self, strategy: ProverStrategy):
        if not isinstance(strategy, ProverStrategy):
            raise ProtocolError(f"UnitaryCheat built for a {type(strategy).__name__}")
        if strategy.m != 1:
            raise ProtocolError("per-coordinate strategy must have m=1")
        if strategy.x_width < 2:
            raise ProtocolError("X must carry a branch bit plus r")
        self.strategy = strategy
        self.n = strategy.x_width - 1

    def commit(self, x, k, rng):
        # a toy key is the pair (x0, x1); repeated keys nest tuples of them
        if isinstance(k[0], tuple):
            y = tuple(self.commit(x, ki, rng)[0] for ki in k)
        else:
            y = int(rng.integers(1 << self.n))
        return y, y

    def answer(self, state, c, rng):
        if isinstance(state, tuple):
            # a repeated state: answer each coordinate with its slice of c
            w = len(c) // len(state)
            return tuple(self.answer(state[i], c[i * w:(i + 1) * w], rng)
                         for i in range(len(state)))
        states = self.strategy.derived("cheat_states", _cheat_states, self.strategy)
        outcome = measure(states[int(c)], "X1", rng)
        return ("test" if c == "0" else "had", int(outcome[0]), int(outcome[1:], 2))

    def _outcome_cdfs(self) -> np.ndarray:
        """Per-challenge cumulative tables of the X measurement's outcomes.

        Row c is the `born_table` that `measure` searches when it samples
        the answer to challenge c.
        """
        states = self.strategy.derived("cheat_states", _cheat_states, self.strategy)
        return self.strategy.derived("cheat_cdfs", _cheat_cdfs, states)


def _cheat_states(s: ProverStrategy) -> tuple[StateVector, StateVector]:
    """U applied to |c>_C |0>_{X,Z}, for c = 0 and c = 1."""
    psi = np.zeros(s.xz_dim, dtype=np.complex128)
    psi[0] = 1.0
    return tuple(StateVector(s.layout(), answer_amps(s, c, psi)) for c in (0, 1))


def _cheat_cdfs(states) -> np.ndarray:
    return np.array([born_table(outcome_probs(st, "X1")) for st in states])


@dataclass
class FsGrinder:
    """Regrinds commitments hunting for a favorable derived challenge.

    Each attempt redraws the commitment randomness, so the oracle sees
    (with overwhelming probability) distinct inputs, and when the inner
    strategy wins only on the all-test challenge the success rate is
    1 - (1 - 2^-m)^budget.
    """

    query_budget: int
    inner: object

    def __post_init__(self):
        config.check_int("query_budget", self.query_budget, 1, ProtocolError)
        if isinstance(self.inner, FsGrinder):
            raise ProtocolError("FsGrinder cannot wrap another FsGrinder")
        _check_strategy(self.inner)


def _check_strategy(strategy):
    """ProtocolError unless strategy has a callable commit and answer."""
    if not all(callable(getattr(strategy, name, None)) for name in ("commit", "answer")):
        raise ProtocolError(f"{type(strategy).__name__} has no commit and answer")


def _unwrap(adversary) -> tuple[object, int]:
    """(strategy, commitment attempts per trial): a grinder's (inner, budget), else (adversary, 1)."""
    if isinstance(adversary, FsGrinder):
        return adversary.inner, adversary.query_budget
    return adversary, 1


# ---------------------------------------------------------------------------
# Statistics harness


@dataclass(frozen=True)
class Stats:
    """Counts of a run; accept_rate is derived from them, never stored."""

    trials: int
    accepts: int
    per_round_counts: dict
    queries: int

    @property
    def accept_rate(self) -> float:
        return self.accepts / self.trials


# Trials are seeded and replayed this many at a time, so memory stays
# flat however many trials a run asks for.
_TRIAL_CHUNK = 16384


def _trial_seeds(seed: int, trials: int):
    """Per-trial seed sequences, spawned one chunk at a time.

    Spawning in chunks hands out the same children as one spawn(trials).
    """
    root = np.random.SeedSequence(seed)
    for start in range(0, trials, _TRIAL_CHUNK):
        yield root.spawn(min(_TRIAL_CHUNK, trials - start))


# The bulk route derives each trial's PCG64 outputs as arrays over a
# chunk of child indices instead of building a SeedSequence and a PCG64
# per trial.  The constants and steps are numpy's: SeedSequence's entropy
# pool (hashmix/mix over uint32 words, pool size 4), generate_state, and
# PCG64's seeding, 128-bit LCG step and XSL-RR output.  The 32-bit
# arithmetic runs in uint32 arrays, whose wrap-around is SeedSequence's
# own mod 2^32.

_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# numpy converts a Python int operand on every ufunc call, so the stepping
# loop's operands are np.uint64 scalars made once
_U32, _U58, _U63, _U_MASK32 = (np.uint64(v) for v in (32, 58, 63, _MASK32))


@cache
def _hash_chain(hc: int, mult: int, calls: int) -> np.ndarray:
    """hc and its next calls multiples by mult (mod 2^32), as uint32.

    Hash call i of a chain xors in entry i, then multiplies by entry i + 1.
    Every argument follows from a root seed's word count, so the cache
    stays small.
    """
    chain = [hc]
    for _ in range(calls):
        chain.append(chain[-1] * mult & _MASK32)
    chain = np.array(chain, dtype=np.uint32)
    chain.flags.writeable = False  # cached, so shared
    return chain


def _hashmix(value, xor, times):
    """SeedSequence's hashmix, as a new array broadcast over its operands."""
    value = value ^ xor
    value *= times
    value ^= value >> 16
    return value


def _mix(x, y):
    """SeedSequence's mix of x with y, written over y."""
    y *= _MIX_R
    np.subtract(_MIX_L * x, y, out=y)
    y ^= y >> 16
    return y


def _word_count(v) -> int:
    """uint32 words of SeedSequence entropy: an int's little-endian words
    (0 is one word), a sequence's entries' words summed."""
    if isinstance(v, (int, np.integer)):
        return max(1, (int(v).bit_length() + 31) // 32)
    return sum(_word_count(item) for item in v)


def _mul128(hi: np.ndarray, lo: np.ndarray, limbs: tuple, scratch: np.ndarray) -> None:
    """(hi:lo) *= c mod 2^128 in place, for uint64 rows and c's _limbs.

    scratch holds four rows.  lo * (c mod 2^64) takes its high half from
    32-bit halves a of lo and b of c: with t = a1 b0 + (a0 b0 >> 32) and
    u = (t mod 2^32) + a0 b1, it is a1 b1 + (t >> 32) + (u >> 32).
    """
    a0, a1, t, u = scratch
    c_hi, c_lo, b0, b1 = limbs
    np.bitwise_and(lo, _U_MASK32, out=a0)
    np.right_shift(lo, _U32, out=a1)
    hi *= c_lo
    hi += np.multiply(lo, c_hi, out=t)
    lo *= c_lo
    np.multiply(a0, b0, out=t)
    t >>= _U32
    t += np.multiply(a1, b0, out=u)
    hi += np.multiply(a1, b1, out=a1)
    hi += np.right_shift(t, _U32, out=u)
    t &= _U_MASK32
    t += np.multiply(a0, b1, out=a0)
    hi += np.right_shift(t, _U32, out=t)


def _limbs(c: int) -> tuple:
    """c < 2^128 as np.uint64 (c_hi, c_lo, c_lo mod 2^32, c_lo >> 32), _mul128's operands."""
    c_lo = c & 0xFFFFFFFFFFFFFFFF
    return tuple(np.uint64(v) for v in (c >> 64, c_lo, c_lo & _MASK32, c_lo >> 32))


@cache
def _pcg_jump(k: int) -> tuple[tuple, tuple | None]:
    """The _limbs of (A, B) with k LCG steps = state * A + inc * B (mod 2^128);
    None for B = 1."""
    a, b = 1, 0
    for _ in range(k):
        a, b = a * _PCG_MULT % 2**128, (b * _PCG_MULT + 1) % 2**128
    return _limbs(a), None if b == 1 else _limbs(b)


def _child_states(seed, start: int, count: int) -> np.ndarray:
    """generate_state(4, uint64) of children start..start+count-1 of seed, as a (4, count) array."""
    # a child's entropy is the root's words padded to the pool size,
    # then its index, so every child's pool before the index is the
    # root's own, mixed by 4 hash calls per padded word
    root = np.random.SeedSequence(seed)
    hc = int(_hash_chain(_INIT_A, _MULT_A, _POOL * max(_POOL, _word_count(root.entropy)))[-1])
    idx = np.arange(start, start + count, dtype=np.uint64)
    # the pool's four words are the rows of a (4, count) array; the
    # child index enters as one word, or two from 2^32 on
    pool = root.pool[:, None]
    chain = _hash_chain(hc, _MULT_A, 2 * _POOL)[:, None]
    pool = _mix(pool, _hashmix(idx.astype(np.uint32), chain[:_POOL], chain[1:_POOL + 1]))
    if start + count > 1 << 32:
        hi = (idx >> 32).astype(np.uint32)
        wide = _mix(pool, _hashmix(hi, chain[_POOL:-1], chain[_POOL + 1:]))
        pool = np.where(hi != 0, wide, pool)
    # eight words cycled from the pool; words 2j and 2j + 1 are the low
    # and high halves of uint64 j, joined as the rows of a contiguous
    # (4, count) array
    chain = _hash_chain(_INIT_B, _MULT_B, 8)
    xor, times = chain[:-1].reshape(2, _POOL, 1), chain[1:].reshape(2, _POOL, 1)
    words = _hashmix(pool, xor, times).reshape(4, 2, count)
    state = words[:, 1].astype(np.uint64)
    state <<= _U32
    state |= words[:, 0]
    return state


@cache
def _read_plan(k: int, idx: tuple) -> tuple[tuple, int]:
    """How `_TrialStreams.words` reads words idx of k outputs.

    Each output read, in order, is (outputs passed over before it, its
    writes (result rows, half: 0 low, 1 high, 2 both)); then come the
    outputs passed over after the last one read.  An output read whole,
    low half then high, is written as one block.  Each reader asks for
    one layout per shape, so the cache stays small.
    """
    reads: dict[int, list] = {}
    for r, w in enumerate(idx):
        j, half = divmod(int(w), 2)
        assert 0 <= j < k
        here = reads.setdefault(j, [])
        if half and here == [(r - 1, 0)]:
            here[0] = (slice(r - 1, r + 1), 2)
        else:
            here.append((r, half))
    done, plan = 0, []
    for j in sorted(reads):
        plan.append((j - done, tuple(reads[j])))
        done = j + 1
    return tuple(plan), k - done


class _TrialStreams:
    """The PCG64 output streams of children start..start+count-1 of seed.

    Row i continues np.random.PCG64(child).random_raw for the child
    SeedSequence(seed, spawn_key=(start + i,)), which is what
    SeedSequence(seed).spawn hands out in that position.  The arrays run
    coordinates first: the state words are contiguous rows over the
    kept children, and words(k, idx) returns the 32-bit words idx of the
    next k outputs of every child still kept, one row per word read.
    Seeding's own step and every output no word is read from wait in one
    pending advance, which the next output read folds into its step.
    """

    def __init__(self, seed, start: int, count: int):
        s_hi, s_lo, self.inc_hi, self.inc_lo = _child_states(seed, start, count)
        # PCG64 seeding, in place: inc = 2q + 1, state = (inc + s) stepped
        # once, left pending
        self.inc_hi <<= 1
        self.inc_hi |= self.inc_lo >> _U63
        self.inc_lo <<= 1
        self.inc_lo |= 1
        s_lo += self.inc_lo
        s_hi += self.inc_hi
        s_hi += s_lo < self.inc_lo
        self.hi, self.lo = s_hi, s_lo
        self.pending = 1

    def _jump(self, k: int, scratch: np.ndarray) -> None:
        """Advance every kept row k LCG steps in place."""
        a, b = _pcg_jump(k)
        _mul128(self.hi, self.lo, a, scratch)
        inc_hi, inc_lo = self.inc_hi, self.inc_lo
        if b is not None:
            inc_hi, inc_lo = inc_hi.copy(), inc_lo.copy()
            _mul128(inc_hi, inc_lo, b, scratch)
        self.lo += inc_lo
        self.hi += inc_hi
        self.hi += np.less(self.lo, inc_lo, out=scratch[0])

    def words(self, k: int, idx) -> np.ndarray:
        """Words idx of the next k outputs of every kept row, as a (len(idx), rows) uint32 array.

        Words run in drawing order: word 2j is output j's low half and
        word 2j + 1 its high half, as a Generator's 32-bit draws hand them
        out.  Each output read is computed as its step is taken and its
        words written straight into the result; an output with no word
        read is folded into the pending advance, which the next output
        read takes in one jump.
        """
        idx = tuple(idx)
        reads, tail = _read_plan(k, idx)
        rows = self.lo.size
        out = np.empty((len(idx), rows), dtype=np.uint32)
        scratch = np.empty((4, rows), dtype="<u8")
        x, rot, raw = scratch[:3]
        # the low half, the high half and both, of each little-endian output
        both = raw.view("<u4").reshape(rows, 2).T
        halves = (both[0], both[1], both)
        for gap, writes in reads:
            self._jump(self.pending + gap + 1, scratch)
            self.pending = 0
            # XSL-RR: hi ^ lo rotated right by the top six bits of hi
            np.bitwise_xor(self.hi, self.lo, out=x)
            np.right_shift(self.hi, _U58, out=rot)
            np.right_shift(x, rot, out=raw)
            np.negative(rot, out=rot)
            rot &= _U63
            x <<= rot
            raw |= x
            for dst, src in writes:
                out[dst] = halves[src]
        self.pending += tail
        return out

    def keep(self, rows: np.ndarray):
        """Drop every row not selected by rows (a mask or index array)."""
        self.lo, self.hi = self.lo[rows], self.hi[rows]
        self.inc_lo, self.inc_hi = self.inc_lo[rows], self.inc_hi[rows]


def run_protocol(p, adversary, x, trials: int, seed: int) -> Stats:
    """Seeded acceptance statistics for a strategy against a protocol.

    Accepts a FourRoundProtocol (interactive flow) or a TwoRoundFS
    (hashed challenge; each trial gets a fresh oracle derived from the
    trial seed so trials stay independent).  per_round_counts splits
    pass/total by round type per coordinate in the interactive flow;
    queries counts the prover's oracle calls and stays 0 when no oracle
    is involved.

    Trials take one of two routes with the same Stats on the same seed.
    The bulk route replays, as arrays over the protocol's draw layout,
    an Honest or TestOnly built for a protocol equal to this one and a
    UnitaryCheat whose strategy acts on the protocol's width n; under
    Fiat-Shamir it replays the Honest or TestOnly, alone or inside an
    FsGrinder, on a one-level repetition of up to 64 challenge bits.
    Every other adversary, and under Fiat-Shamir the bare toy and nested
    repetitions, runs on the per-trial route, which calls the protocol's
    methods trial by trial and is the bulk route's reference.  Refused
    when built: a grinder around a grinder or a strategy without commit
    and answer, and an Honest, TestOnly or UnitaryCheat of the wrong
    type.  Refused here, before any trial: a p of neither type, a
    strategy without commit and answer, an FsGrinder outside Fiat-Shamir,
    an Honest or TestOnly for another shape, a trial count that is not a
    positive int, and a seed that is None, a bool or no seed entropy.
    """
    config.check_int("trials", trials, 1, ProtocolError)
    # None would draw fresh OS entropy for every chunk; a bool is no seed
    if seed is None or isinstance(seed, (bool, np.bool_)):
        raise ProtocolError(f"seed={seed!r}")
    try:
        np.random.SeedSequence(seed)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"seed={seed!r}: {exc}") from None
    if not isinstance(p, (FourRoundProtocol, TwoRoundFS)):
        raise ProtocolError(f"{type(p).__name__} is no FourRoundProtocol or TwoRoundFS")
    hashed = isinstance(p, TwoRoundFS)
    base = p.base if hashed else p
    inner, attempts = _unwrap(adversary)
    _check_strategy(inner)
    if inner is not adversary and not hashed:
        raise ProtocolError("FsGrinder needs a Fiat-Shamir protocol")
    if isinstance(inner, Honest) and inner.p.shape != base.shape:
        raise WidthMismatch(f"strategy built for shape {inner.p.shape} "
                            f"({inner.p.m} challenge bits), "
                            f"protocol has shape {base.shape}")
    kind = type(inner)
    plain = kind in (Honest, TestOnly) and inner.p == base
    had_ok = kind is Honest and x == "yes"
    width = inner.n if kind is UnitaryCheat else None
    if hashed and plain and len(base.shape) == 1 and base.m <= _FS_MAX_M:
        return _run_fs_batch(base, had_ok, attempts, trials, seed)
    if not hashed and plain:
        return _run_toy_batch(partial(p.plain_verdicts, had_ok=had_ok), trials, seed)
    if not hashed and width == p.n:
        cdfs = inner._outcome_cdfs()
        return _run_toy_batch(partial(p.cheat_verdicts, cdfs=cdfs, yes=x == "yes"), trials, seed)
    return _run_per_trial(p, adversary, x, trials, seed)


def _run_per_trial(p, adversary, x, trials: int, seed: int) -> Stats:
    accepts = 0
    queries = 0
    counts = {"test": [0, 0], "hadamard": [0, 0]}
    for chunk in _trial_seeds(seed, trials):
        for child in chunk:
            # same stream default_rng would build, minus the dispatch
            rng = np.random.Generator(np.random.PCG64(child))
            if isinstance(p, TwoRoundFS):
                ok, q = _run_fs_trial(p, adversary, x, rng)
                queries += q
            else:
                ok = _run_interactive_trial(p, adversary, x, rng, counts)
            accepts += int(ok)
    return Stats(trials, accepts, counts, queries)


def _run_toy_batch(verdicts: Callable, trials: int, seed: int) -> Stats:
    """Stats from verdicts(streams) -> (c, ok), per coordinate and trial."""
    tally = np.zeros(5, dtype=np.int64)
    # each chunk's streams and verdicts are released before the next is seeded
    for start in range(0, trials, _TRIAL_CHUNK):
        tally += _toy_tally(*verdicts(_TrialStreams(seed, start, min(_TRIAL_CHUNK, trials - start))))
    accepts, test_ok, tests, had_ok, hads = tally.tolist()
    return Stats(trials, accepts, {"test": [test_ok, tests], "hadamard": [had_ok, hads]}, 0)


def _toy_tally(c: np.ndarray, ok: np.ndarray) -> list[int]:
    """(accepts, test passes, test rounds, Hadamard passes, Hadamard rounds) of one chunk."""
    had = c == 1
    n_had = int(np.count_nonzero(had))
    return [int(np.count_nonzero(ok.all(axis=0))), int(np.count_nonzero(ok & ~had)),
            had.size - n_had, int(np.count_nonzero(ok & had)), n_had]


# The Fiat-Shamir bulk route keeps failmasks and challenges in uint64;
# wider challenges run trial by trial.
_FS_MAX_M = 64


def _fs_oracle_inputs(seeds: np.ndarray, y: np.ndarray) -> tuple[bytes, list]:
    """seed || encode(tuple(y)) || counter 0 of each row, as one blob and its end offsets.

    seeds is (rows,) and y (rows, m) holds each commitment's coordinates.
    Each piece is an 8-byte big-endian slot with a length: the seed (8
    bytes), the tuple header (tag and the 4-byte length of the
    coordinates' frames), a coordinate's int frame (tag, 4-byte width,
    1-3 value bytes, so coordinates must stay below 2^24) and the counter
    (4 zero bytes).  The blob keeps each slot's leading bytes.
    """
    rows, m = y.shape
    width = (y >= 1 << 8).astype(np.uint64) + (y >= 1 << 16) + 1
    payload = (5 + width).sum(axis=1, dtype=np.uint64)
    slots = np.zeros((rows, m + 3), dtype=np.uint64)
    slots[:, 0] = seeds
    slots[:, 1] = (ord(_TAG_TUPLE) << 56) | (payload << 24)
    slots[:, 2:-1] = (ord(_TAG_INT) << 56) | (width << 24) | (y << 8 * (3 - width))
    lens = np.empty((rows, m + 3), dtype=np.uint8)
    lens[:, 0], lens[:, 1], lens[:, 2:-1], lens[:, -1] = 8, 5, 5 + width, 4
    keep = np.arange(8, dtype=np.uint8) < lens[:, :, None]
    blob = slots.astype(">u8").view(np.uint8).reshape(-1)[keep.reshape(-1)].tobytes()
    # a row is its seed, its tuple header, its frames and its counter
    return blob, np.cumsum(payload + 17).tolist()


def _fs_challenges(seeds: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """Each row's m-bit oracle output for y under its seed, as `_oracle_value` gives it.

    m <= 64, so the output is the leading bytes of one sha256 digest.
    """
    blob, ends = _fs_oracle_inputs(seeds, y)
    view = memoryview(blob)
    digests = b"".join([hashlib.sha256(view[a:b]).digest()
                        for a, b in zip([0] + ends[:-1], ends)])
    lead = np.frombuffer(digests, dtype=">u8")[::4].astype(np.uint64)
    return (lead >> (64 - 8 * ((m + 7) // 8))) & ((1 << m) - 1)


def _run_fs_batch(p: FourRoundProtocol, had_ok: bool, budget: int, trials: int,
                  seed) -> Stats:
    """Stats of Honest or TestOnly under Fiat-Shamir, alone (budget 1) or grinding.

    p is a one-level repetition.  A trial makes commitment attempts in
    order until one's hashed challenge misses its failmask, at most
    budget of them; each attempt is one oracle query, as on the per-trial
    route.  Attempts run two at a time, 3m raw outputs, over the trials
    of a chunk still grinding, so memory stays flat whatever the query
    budget.
    """
    # coordinates below 2^24 keep each int frame in an 8-byte slot; the
    # qubit cap keeps toys at n <= 18
    assert p.n <= 24
    tally = np.zeros(2, dtype=np.int64)
    # each chunk's streams and arrays are released before the next is seeded
    for start in range(0, trials, _TRIAL_CHUNK):
        tally += _fs_chunk(p, had_ok, budget, _TrialStreams(seed, start, min(_TRIAL_CHUNK, trials - start)))
    accepts, queries = tally.tolist()
    return Stats(trials, accepts, {"test": [0, 0], "hadamard": [0, 0]}, queries)


def _fs_chunk(p: FourRoundProtocol, had_ok: bool, budget: int, streams: _TrialStreams) -> list[int]:
    """(accepts, oracle queries) of one chunk of `_run_fs_batch`'s trials."""
    m = p.m
    accepts = queries = 0
    seeds, x0, x1 = p.fs_head(streams)
    done = 0
    while seeds.size and done < budget:
        y, failmask = p.fs_attempts(streams, x0, x1, had_ok)
        grinding = np.ones(seeds.size, dtype=bool)
        # a budget that runs out on the first attempt makes only that
        # one; an attempt with failmask 0 accepts whatever its challenge,
        # so it is counted but not hashed
        for a in range(min(2, budget - done)):
            queries += int(np.count_nonzero(grinding))
            grinding &= failmask[a] != 0
            rows = np.flatnonzero(grinding)
            ch = _fs_challenges(seeds[rows], y[a][:, rows].T, m)
            grinding[rows] = ch & failmask[a, rows] != 0
        accepts += seeds.size - int(np.count_nonzero(grinding))
        streams.keep(grinding)
        seeds, x0, x1 = seeds[grinding], x0[:, grinding], x1[:, grinding]
        done += 2
    return [accepts, queries]


def _run_interactive_trial(p, adversary, x, rng, counts) -> bool:
    k, td = p.v1(x, rng)
    y, state = adversary.commit(x, k, rng)
    c = p.v3(rng)
    a = adversary.answer(state, c, rng)
    coords = p.v_out_coords(x, k, td, y, c, a)
    for ci, ok in zip(c, coords):
        row = counts["test"] if ci == "0" else counts["hadamard"]
        row[0] += int(ok)
        row[1] += 1
    # v_out is the conjunction of these verdicts; reusing them avoids
    # verifying every coordinate a second time
    return all(coords)


def _run_fs_trial(p: TwoRoundFS, adversary, x, rng) -> tuple[bool, int]:
    # fresh oracle per trial, seeded from the trial rng, keeps trials iid
    oracle = OracleTable(int(rng.integers(1 << 62)), p.oracle.out_bits)
    k, td = p.base.v1(x, rng)
    # a grinder retries until an attempt verifies; anything else makes one
    inner, attempts = _unwrap(adversary)
    for _ in range(attempts):
        y, state = inner.commit(x, k, rng)
        c = oracle.query_bits(encode(y))
        a = inner.answer(state, c, rng)
        ok = p.base.v_out(x, k, td, y, c, a)
        if ok:
            break
    return ok, oracle.query_count


# The rate oracles' powers read each count as a float, which holds every int
# up to 2^53 exactly; a larger count would be rounded, or overflow past 2^1024.
_EXACT_COUNT = 2**53


def testonly_rate_oracle(m: int) -> float:
    """Exact acceptance of the test-only strategy under m-fold repetition."""
    return 2.0 ** -config.check_int("m", m, 1, ProtocolError, _EXACT_COUNT)


def grinder_rate_oracle(m: int, budget: int) -> float:
    """Exact classical grinding success with distinct queries."""
    m = config.check_int("m", m, 1, ProtocolError, _EXACT_COUNT)
    budget = config.check_int("query_budget", budget, 1, ProtocolError, _EXACT_COUNT)
    return 1.0 - (1.0 - 2.0 ** -m) ** budget


def honest_rate_oracle(n: int, m: int) -> float:
    """Exact honest acceptance: only d = 0 on a Hadamard coin fails."""
    n = config.check_int("num_qubits", n, 1, ProtocolError, _EXACT_COUNT)
    return (1.0 - 2.0 ** -(n + 1)) ** config.check_int("m", m, 1, ProtocolError, _EXACT_COUNT)
