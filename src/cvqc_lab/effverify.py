"""Efficient-verifier delegation of a two-round protocol.

The composition makes the verifier's work nearly independent of the
inner protocol's running time T.  The verifier samples a short seed s,
encrypts it, and ships a randomized encoding of the machine M that
expands s into the inner key k; the prover decodes k, answers the inner
protocol, evaluates the verification circuit C[x, e] homomorphically on
the encrypted seed, and proves it did so under a salted oracle.  The
verifier only checks the proof and decrypts one bit.

All cryptographic backends here are functionally correct stubs with no
security: the FHE scheme is transparent, the randomized encoding ships
the machine in the clear, and the SNARK is a hash binding.  They are
marked as such and exist to exercise the composition, the statement
binding, the salting discipline, and the cost asymmetry between the
parties.
"""

from __future__ import annotations

import functools
import hashlib
import operator
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import config
from .protocol import (
    FourRoundProtocol,
    OracleTable,
    TwoRoundFS,
    _oracle_value,
    encode,
    fiat_shamir,
    frame_tuple,
    parallel_repeat,
    toy_protocol,
)

ELL_S = 16          # seed length in bytes
ELL_R = 256         # fixed PRG output length in bytes
SECURITY = 16       # n_sec in bytes at desk scale
SALT_LEN = 2 * SECURITY
DEFAULT_TIME_BOUND = 4096
MACHINE_WORD = (1 << 64) - 1
# opcodes whose second operand indexes a register or memory; SETI's is an
# immediate and JNZ's a jump target
_INDEXED_2 = frozenset({"MOV", "LOAD", "XOR", "AND", "OR"})


class BackendFailure(Exception):
    pass


class InnerProtocolError(Exception):
    pass


# ---------------------------------------------------------------------------
# Register machine
#
# The machine the verifier delegates is spelled out as a tiny register
# program rather than a Python closure, so "the prover runs M" is a real
# step-counted execution.  Eight 64-bit registers, a byte memory that the
# HASH instruction fills with the PRG expansion of the machine input, and
# an output tape of integers.


def run_machine(program: tuple, inp: bytes, prg: Callable, budget: int):
    """Execute until HALT; returns (outputs, steps).  Deterministic.

    Raises BackendFailure when the step budget runs out first; callers
    use the encoding's declared time bound as the budget, so decode time
    is capped by min(T, Time(M)).  A counted loop, DEC r directly
    followed by JNZ r back to that DEC, runs in one step of the
    interpreter but is charged its 2 * passes machine steps, so outputs,
    step counts and budget failures are those of executing it pass by
    pass.  A malformed instruction, a negative register or memory operand
    included, raises BackendFailure naming its pc; so do a program that is
    no tuple or list, an input that is no bytes and a budget that is no
    integer >= 0, before the first step.
    """
    budget = config.check_int("budget", budget, 0, BackendFailure)
    if not isinstance(program, (tuple, list)) or not isinstance(inp, bytes):
        raise BackendFailure(f"need a tuple or list program and bytes input, got "
                             f"{type(program).__name__} and {type(inp).__name__}")
    index = operator.index  # immediates as ints, numpy integers included
    size = len(program)
    regs = [0] * 8
    mem = bytearray(ELL_R)
    out: list[int] = []
    pc = 0
    steps = 0
    while True:
        if not 0 <= pc < size:
            raise BackendFailure(f"pc {pc} outside program")
        if steps >= budget:
            raise BackendFailure(f"step budget {budget} exhausted")
        ins = program[pc]
        steps += 1
        nxt = pc + 1
        try:
            name = ins[0]
            # Python would read a negative index from the end instead
            if len(ins) > 1 and (ins[1] < 0 or name in _INDEXED_2 and ins[2] < 0):
                raise IndexError("negative operand")
            if name == "HALT":
                return tuple(out), steps
            elif name == "SETI":
                regs[ins[1]] = index(ins[2]) & MACHINE_WORD
            elif name == "MOV":
                regs[ins[1]] = regs[ins[2]]
            elif name == "LOAD":
                regs[ins[1]] = mem[ins[2]]
            elif name == "XOR":
                regs[ins[1]] ^= regs[ins[2]]
            elif name == "AND":
                regs[ins[1]] &= regs[ins[2]]
            elif name == "OR":
                regs[ins[1]] |= regs[ins[2]]
            elif name == "SHR":
                regs[ins[1]] >>= index(ins[2])
            elif name == "SHL":
                regs[ins[1]] = (regs[ins[1]] << index(ins[2])) & MACHINE_WORD
            elif name == "DEC":
                r = ins[1]
                if nxt < size and program[nxt] == ("JNZ", r, pc):
                    # DEC wraps, so a loop entered at 0 makes 2^64 passes
                    passes = regs[r] or MACHINE_WORD + 1
                    if steps - 1 + 2 * passes > budget:
                        raise BackendFailure(f"step budget {budget} exhausted")
                    steps += 2 * passes - 1
                    regs[r] = 0
                    nxt = pc + 2
                else:
                    regs[r] = (regs[r] - 1) & MACHINE_WORD
            elif name == "JNZ":
                if regs[ins[1]] != 0:
                    nxt = index(ins[2])
            elif name == "OUT":
                out.append(regs[ins[1]])
            elif name != "HASH":
                raise BackendFailure(f"unknown opcode {name!r}")
        except (IndexError, TypeError, ValueError) as exc:
            raise BackendFailure(
                f"malformed instruction {ins!r} at pc {pc}: {exc}") from exc
        if name == "HASH":
            # outside the guard, so a failing prg keeps its own error
            stream = prg(inp)
            mem[:len(stream)] = stream[:ELL_R]
        pc = nxt


class _KeyProgram(tuple):
    """A program key_machine built, carrying its encode bytes as `encoded`."""


def _key_shape(n, m) -> tuple[int, int]:
    # each key value is built from two stream bytes (n <= 16), and each
    # coordinate reads four of the PRG stream's ELL_R bytes (m <= ELL_R // 4)
    return (config.check_int("n", n, 1, BackendFailure, 16),
            config.check_int("m", m, 1, BackendFailure, ELL_R // 4))


@functools.lru_cache(maxsize=None, typed=True)
def key_machine(n: int, m: int, time_bound: int) -> tuple:
    """Program computing the inner keys from the seed, then idling.

    Per coordinate it reads four PRG stream bytes, builds two n-bit
    values, forces their xor to odd parity, and OUTs the pair; the busy
    loop at the end pads execution up to the declared time bound, which
    models an inner key derivation that genuinely costs T steps.  The
    loop is a counted loop, so run_machine charges its T steps in
    constant wall time.  Built and encoded once per (n, m, time_bound):
    every call with the same arguments returns the same tuple, carrying
    its bytes.  Its idle passes (T - 32m - 5) // 2 must fit a machine
    word: BackendFailure refuses T >= 2^65 + 32m + 5, and any n, m or T
    that is not an integer.
    """
    n, m = _key_shape(n, m)
    time_bound = config.check_int("time_bound", time_bound, 1, BackendFailure)
    mask = (1 << n) - 1
    prog: list[tuple] = [("HASH",)]
    for i in range(m):
        base = 4 * i
        prog += [
            ("LOAD", 0, base), ("SHL", 0, 8), ("LOAD", 1, base + 1),
            ("OR", 0, 1), ("SETI", 7, mask), ("AND", 0, 7),
            ("LOAD", 1, base + 2), ("SHL", 1, 8), ("LOAD", 2, base + 3),
            ("OR", 1, 2), ("AND", 1, 7),
            # parity of x0 ^ x1 folds into bit 0 of r2
            ("MOV", 2, 0), ("XOR", 2, 1),
            ("MOV", 3, 2), ("SHR", 3, 8), ("XOR", 2, 3),
            ("MOV", 3, 2), ("SHR", 3, 4), ("XOR", 2, 3),
            ("MOV", 3, 2), ("SHR", 3, 2), ("XOR", 2, 3),
            ("MOV", 3, 2), ("SHR", 3, 1), ("XOR", 2, 3),
            ("SETI", 3, 1), ("AND", 2, 3),
        ]
        skip_to = len(prog) + 3
        prog += [("JNZ", 2, skip_to), ("SETI", 3, 1), ("XOR", 1, 3),
                 ("OUT", 0), ("OUT", 1)]
    base_cost = len(prog) + 4
    if time_bound < base_cost + 4:
        raise BackendFailure(
            f"time bound {time_bound} below key-derivation cost {base_cost + 4}")
    busy = max(1, (time_bound - base_cost) // 2)
    if busy > MACHINE_WORD:
        raise BackendFailure(f"time bound {time_bound}: {busy} idle passes overflow a machine word")
    loop_at = len(prog) + 1
    prog += [("SETI", 0, busy), ("DEC", 0), ("JNZ", 0, loop_at), ("HALT",)]
    program = _KeyProgram(prog)
    program.encoded = encode(program)
    return program


def derive_keys(stream: bytes, n: int, m: int):
    """Reference key derivation; must agree with key_machine's output."""
    n, m = _key_shape(n, m)
    if not isinstance(stream, bytes):
        raise BackendFailure(f"stream is a {type(stream).__name__}, not bytes")
    if len(stream) < 4 * m:
        raise BackendFailure("stream shorter than key material")
    mask = (1 << n) - 1
    ks = []
    for i in range(m):
        x0 = int.from_bytes(stream[4 * i:4 * i + 2], "big") & mask
        x1 = int.from_bytes(stream[4 * i + 2:4 * i + 4], "big") & mask
        if (x0 ^ x1).bit_count() % 2 == 0:
            x1 ^= 1
        ks.append((x0, x1))
    k = tuple(ks)
    return k, k  # the toy trapdoor equals the key


# ---------------------------------------------------------------------------
# Stub backends


def _prg_bytes(seed: bytes) -> bytes:
    """ELL_R bytes of the sha256 counter stream of "prg" || seed."""
    return _oracle_value(b"prg", seed, 8 * ELL_R).to_bytes(ELL_R, "big")


@dataclass(frozen=True)
class FheKey:
    tag: bytes
    secret: bool

    def serialize(self) -> bytes:
        kind = "fhe-sk" if self.secret else "fhe-pk"
        # the marker travels inside the serialized key bytes
        return encode((kind, "INSECURE-STUB", self.tag))


@dataclass(frozen=True)
class FheCiphertext:
    tag: bytes
    payload: object  # bytes or int, carried in the clear

    def serialize(self) -> bytes:
        return encode(("fhe-ct", "INSECURE-STUB", self.tag, self.payload))


class StubFhe:
    """Transparent scheme: ciphertexts carry the plaintext with a key tag."""

    def keygen(self, rng):
        tag = rng.bytes(8)
        return FheKey(tag, False), FheKey(tag, True)

    def enc(self, pk: FheKey, msg) -> FheCiphertext:
        if pk.secret:
            raise BackendFailure("encrypting under a secret key")
        return FheCiphertext(pk.tag, msg)

    def eval(self, pk: FheKey, circuit, ct: FheCiphertext) -> FheCiphertext:
        if ct.tag != pk.tag:
            raise BackendFailure("ciphertext under a different key")
        return FheCiphertext(pk.tag, circuit(ct.payload))

    def dec(self, sk: FheKey, ct: FheCiphertext):
        if not sk.secret:
            raise BackendFailure("decrypting with a public key")
        if ct.tag != sk.tag:
            raise BackendFailure("ciphertext under a different key")
        return ct.payload


@dataclass(frozen=True)
class ReEncodingKey:
    security: int
    ell: int
    crs_digest: bytes

    def serialize(self) -> bytes:
        return encode(("re-ek", self.security, self.ell, self.crs_digest))


@dataclass(frozen=True)
class ReEncoding:
    program: tuple
    inp: bytes
    bound: int
    crs_digest: bytes

    def serialize(self) -> bytes:
        """encode(("re-enc", program, inp, bound, crs_digest)), reusing a key machine's bytes.

        Any other program, even an equal one holding a bool, is encoded afresh.
        """
        prog = self.program
        return frame_tuple([encode("re-enc"), prog.encoded if type(prog) is _KeyProgram
                            else encode(prog), encode(self.inp), encode(self.bound),
                            encode(self.crs_digest)])


def _crs_digest(crs: bytes) -> bytes:
    """The crs fingerprint a re-encoding key binds its encodings to."""
    return hashlib.sha256(crs).digest()[:SECURITY]


class StubRe:
    """Randomized encoding that ships the machine in the clear.

    Encoding cost stays poly(n, log T) by construction; decode runs the
    machine under the declared step budget and is the only place the
    inner time bound is ever paid.
    """

    def setup(self, security: int, ell: int, crs: bytes) -> ReEncodingKey:
        security = config.check_int("security", security, 1, BackendFailure)
        ell = config.check_int("ell", ell, 1, BackendFailure)
        return ReEncodingKey(security, ell, _crs_digest(crs))

    def enc(self, ek: ReEncodingKey, machine: tuple, inp: bytes,
            time_bound: int) -> ReEncoding:
        time_bound = config.check_int("time_bound", time_bound, 1, BackendFailure)
        return ReEncoding(machine, inp, time_bound, ek.crs_digest)

    def dec(self, crs: bytes, encoding: ReEncoding):
        """(outputs, steps) of the decoded machine, as run_machine returns."""
        if _crs_digest(crs) != encoding.crs_digest:
            raise BackendFailure("encoding bound to a different crs")
        return run_machine(encoding.program, encoding.inp, _prg_bytes,
                           budget=encoding.bound)


@dataclass(frozen=True)
class SnarkProof:
    binding: bytes
    witness_digest: bytes
    witness: bytes  # carried for extractability checks, never re-executed

    def serialize(self) -> bytes:
        return encode(("snark", self.binding, self.witness_digest,
                       self.witness))


class StubSnark:
    """Hash binding of the statement under the salted oracle.

    The verifier recomputes the binding and the witness digest; it never
    re-runs the relation, so its cost stays independent of the inner
    time bound.  Succinctness is simulated by the session's cost ledger,
    not by actual compression.
    """

    @staticmethod
    def _key(statement: bytes) -> bytes:
        return b"bind" + hashlib.sha256(statement).digest()

    def prove(self, oracle, statement: bytes, witness: bytes) -> SnarkProof:
        return SnarkProof(
            binding=oracle.query(self._key(statement)),
            witness_digest=hashlib.sha256(witness).digest(),
            witness=witness,
        )

    def verify(self, oracle, statement: bytes, proof: SnarkProof) -> bool:
        if oracle.query(self._key(statement)) != proof.binding:
            return False
        return hashlib.sha256(proof.witness).digest() == proof.witness_digest


@dataclass
class BackendSuite:
    """Bundle of the pluggable primitives and the oracles they query."""

    fhe: StubFhe
    re: StubRe
    snark: StubSnark
    snark_oracle: OracleTable
    salt_oracle: OracleTable


def make_stub_suite(oracle_seed: int = 0) -> BackendSuite:
    # the suite's oracle seeds are oracle_seed ^ constant, each in 0..2^64-1
    oracle_seed = config.check_int("oracle_seed", oracle_seed, 0, BackendFailure, 2**64 - 1)
    return BackendSuite(
        fhe=StubFhe(),
        re=StubRe(),
        snark=StubSnark(),
        snark_oracle=OracleTable(oracle_seed ^ 0x5A17ED, 256),
        salt_oracle=OracleTable(oracle_seed ^ 0xC0FFEE, 8 * SALT_LEN),
    )


# ---------------------------------------------------------------------------
# Inner protocol
#
# The composition consumes the two-round Fiat-Shamir protocol itself
# (P = prove, V = (V1, verify)), of any repetition shape.  Its V1
# randomness comes from an explicit byte stream instead of an rng, so the
# delegated machine and the verification circuit re-derive the same keys
# from the same seed; n, m and the nesting are read from inner.base.


def toy_inner(num_qubits: int, m: int, fs_seed: int = 7) -> TwoRoundFS:
    """Fiat-Shamir collapse of the m-fold repeated toy protocol."""
    config.check_int("num_qubits", num_qubits, 1, InnerProtocolError, 16)
    rep = parallel_repeat(toy_protocol(num_qubits), m)
    return fiat_shamir(rep, OracleTable(fs_seed, m))


def key_length(inner: TwoRoundFS) -> int:
    """Bytes; upper bound on the encoded key of inner's width and shape."""
    if not isinstance(inner, TwoRoundFS):
        raise InnerProtocolError(f"inner {type(inner).__name__} is not a TwoRoundFS")
    return _key_length(inner.base.n, tuple(inner.base.shape))


@functools.cache
def _key_length(n: int, shape: tuple) -> int:
    """key_length of every inner protocol of width n and shape, encoded once."""
    base = FourRoundProtocol(n, shape)
    mask = (1 << n) - 1
    return len(encode(base.nest([(mask, mask)] * base.m)))


@dataclass(frozen=True)
class VerificationCircuit:
    """C[x, e](s) = 1 iff the inner verifier accepts e under keys from s."""

    x: object
    e: object
    inner: TwoRoundFS

    def __call__(self, s: bytes) -> int:
        if not (isinstance(self.e, tuple) and len(self.e) == 2):
            return 0
        base = self.inner.base
        k, td = derive_keys(_prg_bytes(s), base.n, base.m)
        y, a = self.e
        return int(self.inner.verify(self.x, base.nest(k), base.nest(td), y, a))


# ---------------------------------------------------------------------------
# Sessions


@dataclass(frozen=True)
class CostReport:
    verifier_ops: int
    prover_ops: int
    message_bytes: int


@dataclass(frozen=True)
class EffSession:
    """One finished session: messages, their bytes as `sent`, the verifier's secrets, costs."""

    x: object
    s: bytes
    pk_fhe: FheKey
    sk_fhe: FheKey
    ct: FheCiphertext
    encoding: ReEncoding
    e: object
    ct_prime: FheCiphertext
    z: bytes
    proof: SnarkProof
    sent: tuple
    statement: bytes
    cost: CostReport

    def dump(self) -> dict:
        """JSON-ready view: every message hex-encoded, plus the costs."""
        return {
            "x": repr(self.x),
            "time_bound": self.encoding.bound,
            "seed_s": self.s.hex(),
            **{name: data.hex() for name, data in self.sent},
            "statement": self.statement.hex(),
            "cost": asdict(self.cost),
        }


def cost_report(session: EffSession) -> CostReport:
    return session.cost


_PROVER_MODES = ("honest", "mismatched-statement", "rejecting-e")


def _statement(x, sent: dict) -> bytes:
    # the proved statement is exactly the session's public transcript
    return encode((x, sent["pk_fhe"], sent["ct"], sent["ct_prime"]))


def _run_session(suite: BackendSuite, inner: TwoRoundFS, x, prover,
                 seed: int, time_bound: int, derive_salt: bool):
    """One session: each message serialized once, into `sent`; each ledger charge after its call."""
    time_bound = config.check_int("time_bound", time_bound, 1, BackendFailure)
    seed = config.check_int("seed", seed, 0, BackendFailure)
    if prover not in _PROVER_MODES:
        raise InnerProtocolError(f"unknown prover mode {prover!r}")
    ell = key_length(inner)  # refuses an inner that is no TwoRoundFS
    if not isinstance(suite, BackendSuite):
        raise BackendFailure(f"suite {type(suite).__name__} is not a BackendSuite")
    base = inner.base
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    # V_eff,1: seed, crs and encoder key, encrypted seed, delegated key machine
    s = rng.bytes(ELL_S)
    crs = rng.bytes(SECURITY)
    ek = suite.re.setup(SECURITY, ell, crs)
    verifier_ops = SECURITY + ell.bit_length()
    pk_fhe, sk_fhe = suite.fhe.keygen(rng)
    verifier_ops += ELL_S
    ct = suite.fhe.enc(pk_fhe, s)
    verifier_ops += len(s)
    machine = key_machine(base.n, base.m, time_bound)
    encoding = suite.re.enc(ek, machine, s, time_bound)
    verifier_ops += len(machine) + len(s) + time_bound.bit_length()
    sent = {"pk_fhe": pk_fhe.serialize(), "ct": ct.serialize(),
            "encoding": encoding.serialize()}

    # P_eff,2: decode keys, answer the inner protocol, evaluate C[x, e]
    flat_key, prover_ops = suite.re.dec(crs, encoding)  # decode steps
    if len(flat_key) != 2 * base.m:
        raise InnerProtocolError(f"decoded {len(flat_key)} key words")
    k = base.nest([(int(x0), int(x1)) for x0, x1 in zip(flat_key[::2], flat_key[1::2])])
    e = inner.prove(x, k, rng)
    if prover == "rejecting-e":
        # the Hadamard sentinel rejects every coordinate it answers
        e = (e[0], base.nest([("had", 0, 0)] * base.m))
    circuit = VerificationCircuit(x=x, e=e, inner=inner)
    ct_prime = suite.fhe.eval(pk_fhe, circuit, ct)
    # evaluating C re-derives the keys, the same T the machine pays
    prover_ops += time_bound
    sent["ct_prime"] = ct_prime.serialize()
    # the proof binds the evaluated ct'; a mismatched prover ships another
    proof_statement = _statement(x, sent)
    if prover == "mismatched-statement":
        ct_prime = suite.fhe.enc(pk_fhe, 0)
        prover_ops += 1
        sent["ct_prime"] = ct_prime.serialize()

    # V_eff,3: the salt, fresh or derived from the received ct'
    if derive_salt:
        z = suite.salt_oracle.query(sent["ct_prime"])
    else:
        z = rng.bytes(SALT_LEN)
    sent["salt"] = z
    verifier_ops += len(z)

    # P_eff,4: proof under the salted oracle
    witness = encode(e)
    proof = suite.snark.prove(suite.snark_oracle.salted(z), proof_statement,
                              witness)
    # 16-byte words, so the proof stays a small term next to the T-linear work
    prover_ops += (len(proof_statement) + len(witness)) // 16 + 4
    sent["proof"] = proof.serialize()

    # V_eff,out: proof check of the received transcript and one decryption, both charged
    statement = _statement(x, sent)
    ok_proof = suite.snark.verify(suite.snark_oracle.salted(z), statement, proof)
    verifier_ops += len(statement)
    ok_dec = suite.fhe.dec(sk_fhe, ct_prime) == 1
    verifier_ops += 1

    return ok_proof and ok_dec, EffSession(
        x=x, s=s, pk_fhe=pk_fhe, sk_fhe=sk_fhe, ct=ct,
        encoding=encoding, e=e, ct_prime=ct_prime, z=z, proof=proof,
        sent=tuple(sent.items()), statement=statement,
        cost=CostReport(verifier_ops, prover_ops, sum(map(len, sent.values()))))


def run_four_round(suite: BackendSuite, inner: TwoRoundFS, x,
                   prover: str = "honest", seed: int = 0,
                   time_bound: int = DEFAULT_TIME_BOUND):
    """Interactive flow: the salt is a fresh verifier coin."""
    return _run_session(suite, inner, x, prover, seed, time_bound,
                        derive_salt=False)


def run_two_round_fs(suite: BackendSuite, inner: TwoRoundFS, x,
                     prover: str = "honest", seed: int = 0,
                     time_bound: int = DEFAULT_TIME_BOUND):
    """Collapsed flow: the salt is the oracle's view of ct'."""
    return _run_session(suite, inner, x, prover, seed, time_bound,
                        derive_salt=True)
