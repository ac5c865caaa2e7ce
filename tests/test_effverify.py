"""Delegated verification: machine, stub backends, composed sessions."""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from cvqc_lab.effverify import (
    BackendFailure,
    BackendSuite,
    EffSession,
    FheCiphertext,
    InnerProtocolError,
    ReEncoding,
    SALT_LEN,
    StubFhe,
    StubRe,
    StubSnark,
    VerificationCircuit,
    cost_report,
    derive_keys,
    key_length,
    key_machine,
    make_stub_suite,
    run_four_round,
    run_machine,
    run_two_round_fs,
    toy_inner,
    _prg_bytes,
)
from cvqc_lab.protocol import (
    FourRoundProtocol,
    OracleTable,
    ProtocolError,
    encode,
    fiat_shamir,
)


def _suite_and_inner(seed=3, n=12, m=4, fs_seed=11):
    return make_stub_suite(seed), toy_inner(n, m, fs_seed=fs_seed)


def _keys_from_seed(inner, s):
    """(k, td) of inner, derived from seed s as the delegated machine derives them."""
    base = inner.base
    k, td = derive_keys(_prg_bytes(s), base.n, base.m)
    return base.nest(k), base.nest(td)


def _grid_sessions(m, n=12):
    """(T, session) over both flows, all three prover modes and T = 2^8, 2^12, 2^40."""
    suite, inner = _suite_and_inner(n=n, m=m)
    seed = 0
    for flow in (run_four_round, run_two_round_fs):
        for mode in ("honest", "mismatched-statement", "rejecting-e"):
            for t in (1 << 8, 1 << 12, 1 << 40):
                _, ses = flow(suite, inner, "yes", mode, seed, time_bound=t)
                yield t, ses
                seed += 1


def _rejecting_e(inner, x, k, rng):
    """An honest commitment answered by the Hadamard sentinel in every coordinate."""
    y, _ = inner.prove(x, k, rng)
    return y, inner.base.nest([("had", 0, 0)] * inner.base.m)


class TestMachine:
    def test_matches_reference_derivation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 17))
            m = int(rng.integers(1, 7))
            s = rng.bytes(16)
            out, steps = run_machine(key_machine(n, m, 4096), s, _prg_bytes,
                                     budget=4096)
            k, td = derive_keys(_prg_bytes(s), n, m)
            assert out == tuple(v for pair in k for v in pair)
            assert td == k
            assert steps <= 4096

    def test_keys_have_odd_parity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k, _ = derive_keys(rng.bytes(64), 10, 5)
            for x0, x1 in k:
                assert bin(x0 ^ x1).count("1") % 2 == 1

    def test_busy_loop_pads_to_time_bound(self):
        s = b"\x07" * 16
        for t in (256, 1024, 4096):
            _, steps = run_machine(key_machine(8, 2, t), s, _prg_bytes,
                                   budget=t)
            assert t - 90 <= steps <= t

    def test_deterministic(self):
        s = b"\x11" * 16
        prog = key_machine(6, 3, 512)
        assert run_machine(prog, s, _prg_bytes, 512) == \
            run_machine(prog, s, _prg_bytes, 512)

    def test_budget_exhaustion(self):
        prog = key_machine(8, 1, 256)
        with pytest.raises(BackendFailure):
            run_machine(prog, b"\x00" * 16, _prg_bytes, budget=10)

    def test_time_bound_too_small_for_derivation(self):
        with pytest.raises(BackendFailure):
            key_machine(8, 4, 20)

    def test_idle_count_fits_a_machine_word(self):
        # SETI masks its operand to 64 bits, so (T - 32m - 5) // 2 idle
        # passes must fit one word: the largest T still decodes in T steps
        top = (1 << 65) + 32 * 4 + 5 - 1
        _, steps = run_machine(key_machine(12, 4, top), b"\x07" * 16, _prg_bytes, budget=top)
        assert top - 90 <= steps <= top
        with pytest.raises(BackendFailure, match="machine word"):
            key_machine(12, 4, top + 1)

    @pytest.mark.parametrize("args", [(12, 4.0, 4096), (12.5, 4, 4096), ("12", 4, 4096),
                                      (True, 4, 4096)])
    def test_sizes_follow_the_integer_rule(self, args):
        with pytest.raises(BackendFailure, match="not an integer"):
            key_machine(*args)

    def test_guards(self):
        with pytest.raises(BackendFailure):
            key_machine(0, 1, 512)
        with pytest.raises(BackendFailure):
            key_machine(17, 1, 512)
        with pytest.raises(BackendFailure):
            run_machine((("NOP",),), b"", _prg_bytes, 10)
        with pytest.raises(BackendFailure, match="unknown opcode 'ADD'"):
            run_machine((("ADD", 0, 1), ("HALT",)), b"", _prg_bytes, 10)
        with pytest.raises(BackendFailure):
            # no HALT: falls off the end
            run_machine((("SETI", 0, 1),), b"", _prg_bytes, 10)
        with pytest.raises(BackendFailure):
            derive_keys(b"\x00" * 3, 8, 1)


def _stepwise_machine(program, inp, prg, budget):
    """Reference interpreter: one machine step per loop iteration, no fusion."""
    regs = [0] * 8
    mem = bytearray(256)
    out = []
    pc = 0
    steps = 0
    word = (1 << 64) - 1
    while True:
        if pc < 0 or pc >= len(program):
            raise BackendFailure(f"pc {pc} outside program")
        if steps >= budget:
            raise BackendFailure(f"step budget {budget} exhausted")
        ins = program[pc]
        steps += 1
        name = ins[0]
        nxt = pc + 1
        if name == "HALT":
            return tuple(out), steps
        elif name == "SETI":
            regs[ins[1]] = ins[2] & word
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
            regs[ins[1]] >>= ins[2]
        elif name == "SHL":
            regs[ins[1]] = (regs[ins[1]] << ins[2]) & word
        elif name == "DEC":
            regs[ins[1]] = (regs[ins[1]] - 1) & word
        elif name == "JNZ":
            if regs[ins[1]] != 0:
                nxt = ins[2]
        elif name == "HASH":
            stream = prg(inp)
            mem[:len(stream)] = stream[:256]
        elif name == "OUT":
            out.append(regs[ins[1]])
        else:
            raise BackendFailure(f"unknown opcode {name!r}")
        pc = nxt


def _outcome(interpreter, program, budget, inp=b"\x00" * 16):
    """(outputs, steps), or the failure's type and message."""
    try:
        return interpreter(program, inp, _prg_bytes, budget)
    except BackendFailure as exc:
        return type(exc), str(exc)


def _assert_matches_stepwise(program, budgets, inp=b"\x00" * 16):
    for budget in budgets:
        assert _outcome(run_machine, program, budget, inp) == \
            _outcome(_stepwise_machine, program, budget, inp), (program, budget)


class TestCountedLoop:
    """run_machine runs DEC r; JNZ r <that DEC> in one interpreter step."""

    def test_key_machines_match_stepwise_at_every_budget_region(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(1, 17))
            m = int(rng.integers(1, 8))
            t = int(rng.integers(256, 3001))
            prog = key_machine(n, m, t)
            inp = rng.bytes(16)
            _, total = _stepwise_machine(prog, inp, _prg_bytes, t + 50)
            busy = prog[-4][2]
            before_loop = total - 1 - 2 * busy
            budgets = {1, before_loop - 1, before_loop, before_loop + 1,
                       before_loop + 2, before_loop + busy, total - 3,
                       total - 2, total - 1, total, t + 50}
            budgets |= {int(b) for b in rng.integers(1, t + 51, size=4)}
            _assert_matches_stepwise(prog, sorted(budgets), inp)

    def test_loop_entered_at_zero_wraps_to_two_to_the_64_passes(self):
        prog = (("DEC", 0), ("JNZ", 0, 0), ("HALT",))
        _assert_matches_stepwise(prog, (1, 2, 3, 1000))
        passes = 1 << 64
        with pytest.raises(BackendFailure, match=r"step budget 1000000 exhausted"):
            run_machine(prog, b"", _prg_bytes, budget=10**6)
        # the loop fits exactly; HALT is the step that runs out
        with pytest.raises(BackendFailure, match="exhausted"):
            run_machine(prog, b"", _prg_bytes, budget=2 * passes)
        assert run_machine(prog, b"", _prg_bytes, budget=2 * passes + 1) == \
            ((), 2 * passes + 1)

    def test_jnz_to_another_pc_or_register_is_not_fused(self):
        programs = [
            # JNZ tests another register, which never reaches zero
            (("SETI", 0, 3), ("SETI", 1, 4), ("DEC", 1), ("JNZ", 0, 2),
             ("OUT", 0), ("OUT", 1), ("HALT",)),
            # JNZ jumps back past the DEC, re-arming the counter
            (("SETI", 0, 3), ("DEC", 0), ("JNZ", 0, 0), ("HALT",)),
            # JNZ jumps forward
            (("SETI", 0, 3), ("DEC", 0), ("JNZ", 0, 4), ("OUT", 0),
             ("HALT",)),
            # DEC then a JNZ on the same register with an OUT between
            (("SETI", 0, 3), ("DEC", 0), ("OUT", 0), ("JNZ", 0, 1),
             ("HALT",)),
        ]
        for prog in programs:
            _assert_matches_stepwise(prog, range(1, 40))

    def test_dec_at_last_pc(self):
        prog = (("SETI", 0, 3), ("DEC", 0))
        _assert_matches_stepwise(prog, range(1, 5))
        with pytest.raises(BackendFailure, match="pc 2 outside program"):
            run_machine(prog, b"", _prg_bytes, budget=10)

    def test_loop_at_last_pc_that_uses_the_whole_budget(self):
        # the loop's 6 steps fit a budget of 7, so the run falls off the
        # end of the program before the budget runs out
        prog = (("SETI", 0, 3), ("DEC", 0), ("JNZ", 0, 1))
        _assert_matches_stepwise(prog, range(1, 10))
        with pytest.raises(BackendFailure, match="pc 3 outside program"):
            run_machine(prog, b"", _prg_bytes, budget=7)

    def test_counted_loop_nested_in_outer_loop(self):
        prog = (("SETI", 1, 3), ("SETI", 0, 5), ("DEC", 0), ("JNZ", 0, 2),
                ("OUT", 1), ("DEC", 1), ("JNZ", 1, 1), ("HALT",))
        out, steps = run_machine(prog, b"", _prg_bytes, budget=10**6)
        assert out == (3, 2, 1)
        assert steps == 1 + 3 * (1 + 10 + 3) + 1
        _assert_matches_stepwise(prog, range(1, steps + 3))

    def test_random_small_programs_match_stepwise(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            size = int(rng.integers(2, 9))
            prog = []
            for _ in range(size - 1):
                r = int(rng.integers(0, 3))
                kind = int(rng.integers(0, 5))
                if kind == 0:
                    prog.append(("SETI", r, int(rng.integers(0, 6))))
                elif kind == 1:
                    prog.append(("DEC", r))
                elif kind == 2:
                    prog.append(("JNZ", r, int(rng.integers(0, size + 1))))
                elif kind == 3:
                    prog.append(("XOR", r, int(rng.integers(0, 3))))
                else:
                    prog.append(("OUT", r))
                if kind == 1 and rng.random() < 0.5:
                    # a counted loop on the DEC just placed
                    prog.append(("JNZ", r, len(prog) - 1))
            prog.append(("HALT",))
            _assert_matches_stepwise(tuple(prog), range(1, 60, 3))


class TestMalformedProgram:
    @pytest.mark.parametrize("ins", [
        ("LOAD", 0, 999),   # memory address out of range
        ("SETI", 8, 1),     # register out of range
        ("SETI", 0),        # missing operand
        (),                 # no opcode
        ("SHR", 0, -1),     # negative shift
        ("SETI", 0, 1.5),   # non-integer immediate
        ("SHL", 0, np.float64(2.0)),
    ])
    def test_malformed_instruction_is_typed_failure(self, ins):
        prog = (("SETI", 1, 1), ins, ("HALT",))
        with pytest.raises(BackendFailure, match=r"at pc 1"):
            run_machine(prog, b"", _prg_bytes, budget=10)

    def test_non_integer_jump_target_fails_when_taken(self):
        prog = (("SETI", 0, 1), ("JNZ", 0, "top"), ("HALT",))
        with pytest.raises(BackendFailure, match=r"at pc 1"):
            run_machine(prog, b"", _prg_bytes, budget=10)
        # not taken, the target is never read
        untaken = (("SETI", 0, 0), ("JNZ", 0, "top"), ("HALT",))
        assert run_machine(untaken, b"", _prg_bytes, budget=10) == ((), 3)

    def test_prg_errors_are_not_relabelled(self):
        def broken_prg(_inp):
            raise ValueError("prg down")

        with pytest.raises(ValueError, match="prg down"):
            run_machine((("HASH",), ("HALT",)), b"", broken_prg, budget=10)

class TestNumpyOperands:
    """Numpy integer operands run as their int values, as config.check_int reads them."""

    @staticmethod
    def _as_numpy(prog):
        def conv(v):
            if type(v) is not int:
                return v
            return np.int64(v) if v < 2**63 else np.uint64(v)
        return tuple(tuple(conv(v) for v in ins) for ins in prog)

    @pytest.mark.parametrize("prog", [
        key_machine(12, 4, 4096),
        (("SETI", 0, 3), ("OUT", 0), ("HALT",)),
        (("SETI", 0, 1), ("SHL", 0, 3), ("SHL", 0, 63), ("OUT", 0), ("HALT",)),
        (("SETI", 1, 2**64 - 1), ("SHR", 1, 60), ("OUT", 1), ("SETI", 2, -1), ("OUT", 2),
         ("HALT",)),
    ])
    def test_same_outputs_and_steps_as_plain_ints(self, prog):
        want = run_machine(prog, b"\x07" * 16, _prg_bytes, 4096)
        got = run_machine(self._as_numpy(prog), b"\x07" * 16, _prg_bytes, 4096)
        assert got == want
        # registers, and so outputs, stay plain ints
        assert all(type(v) is int for v in got[0]) and type(got[1]) is int


class TestNegativeOperands:
    @pytest.mark.parametrize("ins", [
        ("SETI", -1, 5),    # would write r7
        ("LOAD", 0, -1),    # would read memory byte 255
        ("MOV", 0, -8),     # would read r0
        ("OUT", -2),
        ("XOR", -8, 0),
        ("DEC", -1),
        ("JNZ", -1, 0),
    ])
    def test_negative_operand_is_typed_failure(self, ins):
        prog = (("HASH",), ("SETI", 0, 5), ins, ("OUT", 7), ("HALT",))
        with pytest.raises(BackendFailure, match=r"at pc 2: negative operand"):
            run_machine(prog, b"", _prg_bytes, budget=10)

    def test_negative_immediate_still_wraps(self):
        prog = (("SETI", 0, -1), ("OUT", 0), ("HALT",))
        assert run_machine(prog, b"", _prg_bytes, budget=10) == ((2**64 - 1,), 3)


class TestPrgStream:
    def test_prg_is_the_sha256_counter_stream(self):
        s = bytes(range(16))
        want = b"".join(hashlib.sha256(b"prg" + s + i.to_bytes(4, "big")).digest()
                        for i in range(8))
        assert _prg_bytes(s) == want


class TestStubFhe:
    def test_round_trip(self):
        suite = make_stub_suite(0)
        rng = np.random.default_rng(2)
        pk, sk = suite.fhe.keygen(rng)
        for msg in (b"hello", b"", 0, 1, b"\x00" * 16):
            assert suite.fhe.dec(sk, suite.fhe.enc(pk, msg)) == msg

    def test_homomorphic_evaluation_equivalence(self):
        # dec(sk, eval(pk, C, enc(pk, s))) = C(s) over random (x, e, s)
        suite, inner = _suite_and_inner()
        rng = np.random.default_rng(3)
        pk, sk = suite.fhe.keygen(rng)
        for i in range(100):
            s = rng.bytes(16)
            x = "yes" if i % 3 else "no"
            k, _ = _keys_from_seed(inner, s)
            if i % 2:
                e = inner.prove(x, k, rng)
            else:
                e = _rejecting_e(inner, x, k, rng)
            circuit = VerificationCircuit(x=x, e=e, inner=inner)
            ct = suite.fhe.enc(pk, s)
            assert suite.fhe.dec(sk, suite.fhe.eval(pk, circuit, ct)) == circuit(s)

    def test_malformed_response_evaluates_to_zero(self):
        _, inner = _suite_and_inner()
        rng = np.random.default_rng(8)
        s = rng.bytes(16)
        k, _ = _keys_from_seed(inner, s)
        y, a = inner.prove("yes", k, rng)

        def circuit(e):
            return VerificationCircuit(x="yes", e=e, inner=inner)

        assert circuit((y, a))(s) == 1
        for e in [(y, ()), (y, a[:-1]), (y, a + a[:1]), (y[:-1], a), (y,), (), None]:
            assert circuit(e)(s) == 0

    def test_key_discipline(self):
        suite = make_stub_suite(0)
        rng = np.random.default_rng(4)
        pk, sk = suite.fhe.keygen(rng)
        pk2, sk2 = suite.fhe.keygen(rng)
        ct = suite.fhe.enc(pk, b"m")
        with pytest.raises(BackendFailure):
            suite.fhe.enc(sk, b"m")
        with pytest.raises(BackendFailure):
            suite.fhe.dec(pk, ct)
        with pytest.raises(BackendFailure):
            suite.fhe.dec(sk2, ct)

    def test_insecure_marker_is_serialized(self):
        suite = make_stub_suite(0)
        pk, sk = suite.fhe.keygen(np.random.default_rng(5))
        assert b"INSECURE-STUB" in pk.serialize()
        assert b"INSECURE-STUB" in sk.serialize()
        assert b"INSECURE-STUB" in suite.fhe.enc(pk, b"x").serialize()


class TestStubRe:
    def test_correctness(self):
        suite = make_stub_suite(0)
        rng = np.random.default_rng(6)
        crs = rng.bytes(16)
        ek = suite.re.setup(16, 64, crs)
        prog = key_machine(8, 2, 512)
        s = rng.bytes(16)
        out, _ = suite.re.dec(crs, suite.re.enc(ek, prog, s, 512))
        k, _ = derive_keys(_prg_bytes(s), 8, 2)
        assert out == tuple(v for pair in k for v in pair)

    def test_wrong_crs_rejected(self):
        suite = make_stub_suite(0)
        rng = np.random.default_rng(7)
        ek = suite.re.setup(16, 64, rng.bytes(16))
        enc = suite.re.enc(ek, key_machine(8, 1, 256), b"\x00" * 16, 256)
        with pytest.raises(BackendFailure):
            suite.re.dec(b"not the crs!!!!!", enc)

    def test_encoder_key_size_polylog_in_ell(self):
        suite = make_stub_suite(0)
        sizes = {}
        for ell in (1, 1 << 10, 1 << 20):
            ek = suite.re.setup(16, ell, b"\x00" * 16)
            sizes[ell] = len(ek.serialize())
        # growing ell a millionfold adds only a few length bytes
        assert sizes[1 << 20] - sizes[1] <= 16

    @pytest.mark.parametrize("security,ell,name", [
        (True, 2, "security"), (16, 2.5, "ell"), (0, 64, "security"), (16, "64", "ell"),
        (None, 64, "security"), (16, 0, "ell")])
    def test_setup_sizes_follow_the_integer_rule(self, security, ell, name):
        # a bool or float size builds no key, and a str or None escapes as no TypeError
        with pytest.raises(BackendFailure, match=f"{name}="):
            make_stub_suite(0).re.setup(security, ell, b"\x00" * 16)

    def test_setup_deterministic_under_seed(self):
        suite = make_stub_suite(0)
        crs = np.random.default_rng(8).bytes(16)
        assert suite.re.setup(16, 64, crs) == suite.re.setup(16, 64, crs)
        other = suite.re.setup(16, 64, np.random.default_rng(9).bytes(16))
        assert other.crs_digest != suite.re.setup(16, 64, crs).crs_digest

    def test_degenerate_ell(self):
        suite = make_stub_suite(0)
        ek = suite.re.setup(16, 1, np.random.default_rng(9).bytes(16))
        assert ek.ell == 1

    def test_guards(self):
        suite = make_stub_suite(0)
        with pytest.raises(BackendFailure):
            suite.re.setup(0, 4, b"")
        with pytest.raises(BackendFailure):
            suite.re.setup(16, 0, b"")
        ek = suite.re.setup(16, 4, b"\x01" * 16)
        with pytest.raises(BackendFailure):
            suite.re.enc(ek, (("HALT",),), b"", 0)

    def test_time_bound_must_be_an_integer(self):
        suite = make_stub_suite(0)
        ek = suite.re.setup(16, 4, b"\x01" * 16)
        prog = key_machine(8, 1, 4096)
        want = suite.re.enc(ek, prog, b"\x00" * 16, 4096)
        assert suite.re.enc(ek, prog, b"\x00" * 16, np.int64(4096)) == want
        for bad in (4096.0, True):
            with pytest.raises(BackendFailure, match="time_bound"):
                suite.re.enc(ek, prog, b"\x00" * 16, bad)


class TestStubSnark:
    def test_completeness(self):
        suite = make_stub_suite(1)
        rng = np.random.default_rng(10)
        for _ in range(30):
            z = rng.bytes(32)
            oracle = suite.snark_oracle.salted(z)
            stmt, wit = rng.bytes(40), rng.bytes(24)
            proof = suite.snark.prove(oracle, stmt, wit)
            assert suite.snark.verify(oracle, stmt, proof)

    def test_statement_mutation_rejected(self):
        suite = make_stub_suite(1)
        rng = np.random.default_rng(11)
        z = rng.bytes(32)
        oracle = suite.snark_oracle.salted(z)
        stmt = rng.bytes(64)
        proof = suite.snark.prove(oracle, stmt, b"witness")
        for pos in range(0, 64, 7):
            bad = bytearray(stmt)
            bad[pos] ^= 0x01
            assert not suite.snark.verify(oracle, bytes(bad), proof)

    def test_witness_tamper_rejected(self):
        suite = make_stub_suite(1)
        z = b"\x05" * 32
        oracle = suite.snark_oracle.salted(z)
        proof = suite.snark.prove(oracle, b"stmt", b"witness")
        tampered = type(proof)(binding=proof.binding,
                               witness_digest=proof.witness_digest,
                               witness=b"witnes5")
        assert not suite.snark.verify(oracle, b"stmt", tampered)

    def test_salting_isolation(self):
        # a proof made under salt z never verifies under any other salt
        suite = make_stub_suite(1)
        rng = np.random.default_rng(12)
        z = rng.bytes(32)
        stmt = b"the statement"
        proof = suite.snark.prove(suite.snark_oracle.salted(z), stmt, b"w")
        assert suite.snark.verify(suite.snark_oracle.salted(z), stmt, proof)
        for _ in range(20):
            zp = rng.bytes(32)
            if zp == z:
                continue
            assert not suite.snark.verify(suite.snark_oracle.salted(zp),
                                          stmt, proof)


class TestComposition:
    def test_honest_sessions_accept(self):
        suite, inner = _suite_and_inner()
        for seed in range(30):
            verdict, ses = run_four_round(suite, inner, "yes", "honest", seed)
            assert verdict

    def test_verdict_matches_inner_protocol(self):
        # the composed verdict equals the inner verdict computed from the
        # same seed s, for both flows
        suite, inner = _suite_and_inner()
        for seed in range(50):
            for flow in (run_four_round, run_two_round_fs):
                verdict, ses = flow(suite, inner, "yes", "honest", seed)
                k, td = _keys_from_seed(inner, ses.s)
                assert verdict == inner.verify("yes", k, td, *ses.e)

    def test_statement_is_session_transcript(self):
        suite, inner = _suite_and_inner()
        _, ses = run_four_round(suite, inner, "yes", "honest", 0)
        expect = encode(("yes", ses.pk_fhe.serialize(), ses.ct.serialize(),
                         ses.ct_prime.serialize()))
        assert ses.statement == expect

    def test_mismatched_statement_rejected(self):
        suite, inner = _suite_and_inner()
        for seed in range(20):
            verdict, ses = run_four_round(suite, inner, "yes",
                                          "mismatched-statement", seed)
            assert not verdict
            # the shipped ciphertext decrypts to 0 as well
            assert suite.fhe.dec(ses.sk_fhe, ses.ct_prime) == 0

    def test_rejected_inner_response_fails_only_decryption(self):
        suite, inner = _suite_and_inner()
        for seed in range(20):
            verdict, ses = run_four_round(suite, inner, "yes",
                                          "rejecting-e", seed)
            assert not verdict
            # the proof itself is fine; the conjunction fails on dec
            oracle = suite.snark_oracle.salted(ses.z)
            assert suite.snark.verify(oracle, ses.statement, ses.proof)
            assert suite.fhe.dec(ses.sk_fhe, ses.ct_prime) == 0

    def test_no_instance_rejected(self):
        suite, inner = _suite_and_inner()
        for seed in range(10):
            verdict, _ = run_four_round(suite, inner, "no", "honest", seed)
            assert not verdict

    def test_unknown_prover_mode(self):
        suite, inner = _suite_and_inner()
        with pytest.raises(InnerProtocolError):
            run_four_round(suite, inner, "yes", "clever", 0)

    def test_time_bound_must_be_an_integer(self):
        suite, inner = _suite_and_inner()
        _, want = run_four_round(suite, inner, "yes", "honest", 5, time_bound=4096)
        _, got = run_four_round(suite, inner, "yes", "honest", 5,
                                time_bound=np.int64(4096))
        assert cost_report(got) == cost_report(want)
        assert json.dumps(got.dump()) == json.dumps(want.dump())
        for bad in (4096.0, "4096", None, True):
            with pytest.raises(BackendFailure, match="time_bound"):
                run_four_round(suite, inner, "yes", "honest", 5, time_bound=bad)

    def test_seed_must_be_a_nonnegative_integer(self):
        suite, inner = _suite_and_inner()
        _, want = run_four_round(suite, inner, "yes", "honest", 5)
        _, got = run_four_round(suite, inner, "yes", "honest", np.uint32(5))
        assert json.dumps(got.dump()) == json.dumps(want.dump())
        for bad in (-1, 1.5, None, True, "5"):
            with pytest.raises(BackendFailure, match="seed"):
                run_four_round(suite, inner, "yes", "honest", bad)
            with pytest.raises(BackendFailure, match="seed"):
                run_two_round_fs(suite, inner, "yes", "honest", bad)

    def test_key_builders_refuse_what_the_machine_refuses(self):
        with pytest.raises(InnerProtocolError, match="NoneType is not a TwoRoundFS"):
            key_length(None)
        for stream in (None, "x" * 64, [0] * 64):
            with pytest.raises(BackendFailure, match="stream is a"):
                derive_keys(stream, 2, 2)
        for n, m, match in [(-1, 2, "n=-1"), (None, 2, "n=None"), (17, 2, "n=17"),
                            (12, 0, "m=0"), (12, 65, "m=65"), (12, 2.0, "m=2.0")]:
            with pytest.raises(BackendFailure, match=match):
                derive_keys(b"x" * 64, n, m)

    def test_inner_guards(self):
        with pytest.raises(InnerProtocolError):
            toy_inner(0, 2)
        with pytest.raises(InnerProtocolError):
            toy_inner(17, 2)
        # a decoder that returns other than 2m key words is a typed failure
        suite, inner = _suite_and_inner()
        decode = suite.re.dec
        suite.re.dec = lambda crs, enc: ((1, 2, 3), decode(crs, enc)[1])
        for flow in (run_four_round, run_two_round_fs):
            with pytest.raises(InnerProtocolError, match="decoded 3 key words"):
                flow(suite, inner, "yes", "honest", 0)


class TestAnyShape:
    """Every repetition shape of the Fiat-Shamir protocol delegates."""

    @pytest.mark.parametrize("shape", [(), (4,), (2, 2), (1, 3)])
    def test_both_flows_over_shape(self, shape):
        suite = make_stub_suite(3)
        m = math.prod(shape)
        inner = fiat_shamir(FourRoundProtocol(12, shape), OracleTable(11, m))
        honest = 0
        for flow in (run_four_round, run_two_round_fs):
            for seed in range(20):
                verdict, ses = flow(suite, inner, "yes", "honest", seed)
                k, td = _keys_from_seed(inner, ses.s)
                assert verdict == inner.verify("yes", k, td, *ses.e)
                assert len(encode(k)) <= key_length(inner)
                honest += verdict
                for mode in ("rejecting-e", "mismatched-statement"):
                    assert not flow(suite, inner, "yes", mode, seed)[0]
        assert honest == 40

    def test_inputs_the_machine_cannot_serve_are_typed(self):
        suite = make_stub_suite(3)
        with pytest.raises(InnerProtocolError, match="not a TwoRoundFS"):
            run_four_round(suite, FourRoundProtocol(12, (4,)), "yes")
        # 17-bit keys exceed the machine's 16-bit loads; 128 coordinates its
        # PRG stream's 64 key slots
        for n, shape, match in [(17, (2,), "n=17"), (12, (8, 8, 2), "m=128")]:
            base = FourRoundProtocol(n, shape)
            inner = fiat_shamir(base, OracleTable(0, base.m))
            with pytest.raises(BackendFailure, match=match):
                run_two_round_fs(suite, inner, "yes", time_bound=1 << 14)


class TestTwoRoundFlow:
    def test_salt_derived_from_ct_prime(self):
        suite, inner = _suite_and_inner()
        verdict, ses = run_two_round_fs(suite, inner, "yes", "honest", 4)
        assert verdict
        assert ses.z == suite.salt_oracle.query(ses.ct_prime.serialize())

    def test_same_seed_identical_transcripts(self):
        suite, inner = _suite_and_inner()
        _, a = run_two_round_fs(suite, inner, "yes", "honest", 9)
        _, b = run_two_round_fs(suite, inner, "yes", "honest", 9)
        assert a.dump() == b.dump()

    def test_ct_prime_flip_changes_salt_and_rejects(self):
        suite, inner = _suite_and_inner()
        _, ses = run_two_round_fs(suite, inner, "yes", "honest", 13)
        mutated = FheCiphertext(ses.ct_prime.tag, 1 - ses.ct_prime.payload)
        z2 = suite.salt_oracle.query(mutated.serialize())
        assert z2 != ses.z
        stmt2 = encode(("yes", ses.pk_fhe.serialize(), ses.ct.serialize(),
                        mutated.serialize()))
        assert not suite.snark.verify(suite.snark_oracle.salted(z2), stmt2,
                                      ses.proof)

    def test_dump_is_json_ready(self):
        suite, inner = _suite_and_inner()
        _, ses = run_two_round_fs(suite, inner, "yes", "honest", 2)
        blob = json.dumps(ses.dump())
        back = json.loads(blob)
        assert bytes.fromhex(back["salt"]) == ses.z
        assert back["cost"]["verifier_ops"] > 0


class TestCostReport:
    def test_incomplete_session_rejected(self):
        # a session is built only once every message exists
        with pytest.raises(TypeError):
            EffSession(x="yes", s=b"\x00" * 16)

    # verifier_ops - T.bit_length(), summed over the verifier's charge sites
    @pytest.mark.parametrize("m,offset", [(1, 335), (2, 368), (3, 400), (4, 433),
                                          (5, 465), (6, 497), (7, 530)])
    def test_verifier_cost_is_exact(self, m, offset):
        # the same for every flow, prover mode and seed: a charge sent to
        # the wrong party, or a verdict that skips dec, moves it
        suite, inner = _suite_and_inner(m=m)
        seed = 0
        for flow in (run_four_round, run_two_round_fs):
            for mode in ("honest", "mismatched-statement", "rejecting-e"):
                for t in (1 << 8, 1 << 12, 1 << 40):
                    _, ses = flow(suite, inner, "yes", mode, seed, time_bound=t)
                    rep = cost_report(ses)
                    assert rep.verifier_ops - t.bit_length() == offset
                    assert rep.prover_ops > 2 * t
                    seed += 1

    @pytest.mark.parametrize("n", [4, 12, 16])
    @pytest.mark.parametrize("m", range(1, 8))
    def test_message_bytes_are_exact(self, n, m):
        # 449: the salt (32) and the frames of pk (47), ct (68), ct' (53),
        # the proof less its witness (94) and the encoding less its
        # coordinate blocks and T-sized ints (155).  787 + |mask|: one
        # coordinate's 32 instructions, whose jump targets fit a byte for
        # m <= 7.  T enters as the encoded bound and the idle loop's count.
        mask = encode((1 << n) - 1)
        for t, ses in _grid_sessions(m, n):
            busy = max(1, (t - (32 * m + 5)) // 2)
            expected = 449 + m * (787 + len(mask)) + len(encode(t)) + len(encode(busy))
            assert ses.cost.message_bytes - len(ses.proof.witness) == expected

    @pytest.mark.parametrize("m", range(1, 8))
    def test_encoding_fast_path_matches_reference(self, m):
        # the kept program bytes against encode over every message field
        for t, ses in _grid_sessions(m):
            e, proof = ses.encoding, ses.proof
            assert key_machine(12, m, t) is key_machine(12, m, t)
            assert e.program is key_machine(12, m, t)
            assert e.serialize() == encode(("re-enc", e.program, e.inp, e.bound,
                                            e.crs_digest))
            fields = [
                ("re-enc", e.program, e.inp, e.bound, e.crs_digest),
                ("fhe-pk", "INSECURE-STUB", ses.pk_fhe.tag),
                ("fhe-ct", "INSECURE-STUB", ses.ct.tag, ses.ct.payload),
                ("fhe-ct", "INSECURE-STUB", ses.ct_prime.tag, ses.ct_prime.payload),
                ("snark", proof.binding, proof.witness_digest, proof.witness),
            ]
            assert ses.cost.message_bytes == SALT_LEN + sum(len(encode(f)) for f in fields)

    def test_program_equal_to_a_key_machine_but_holding_a_bool_is_rejected(self):
        # equal and hash-equal to the kept program, so only the program's
        # identity may select the kept bytes
        prog = key_machine(12, 4, 4096)
        i = prog.index(("SETI", 3, 1))
        forged = prog[:i] + (("SETI", 3, True),) + prog[i + 1:]
        assert forged == prog and hash(forged) == hash(prog)
        with pytest.raises(ProtocolError):
            ReEncoding(forged, b"\x00" * 16, 4096, b"\x00" * 16).serialize()

    @pytest.mark.parametrize("m", range(1, 8))
    def test_prover_cost_is_exact(self, m):
        # decode steps + the evaluation's T + the SNARK's word count, and
        # one more for the mismatched prover's extra encryption
        suite, inner = _suite_and_inner(m=m)
        seed = 0
        for flow in (run_four_round, run_two_round_fs):
            for mode in ("honest", "mismatched-statement", "rejecting-e"):
                for t in (1 << 8, 1 << 12, 1 << 40):
                    _, ses = flow(suite, inner, "yes", mode, seed, time_bound=t)
                    enc = ses.encoding
                    _, steps = run_machine(enc.program, enc.inp, _prg_bytes,
                                           enc.bound)
                    snark = (len(ses.statement) + len(ses.proof.witness)) // 16 + 4
                    expected = (steps + t + snark
                                + (mode == "mismatched-statement"))
                    assert cost_report(ses).prover_ops == expected
                    seed += 1

    def test_identical_sessions_identical_reports(self):
        suite, inner = _suite_and_inner()
        _, a = run_four_round(suite, inner, "yes", "honest", 21)
        _, b = run_four_round(suite, inner, "yes", "honest", 21)
        assert cost_report(a) == cost_report(b)

    def test_minimal_bound_still_costs_something(self):
        suite, inner = _suite_and_inner(m=1, n=4)
        _, ses = run_four_round(suite, inner, "yes", "honest", 0,
                                time_bound=64)
        rep = cost_report(ses)
        assert rep.verifier_ops > 0
        assert rep.message_bytes > 0

    def test_verifier_flat_prover_linear_in_time_bound(self):
        suite, inner = _suite_and_inner()
        rows = []
        for t in (1 << 8, 1 << 10, 1 << 12):
            _, ses = run_four_round(suite, inner, "yes", "honest", 1,
                                    time_bound=t)
            rows.append(cost_report(ses))
        # verifier pays only the encoded time bound's length, a few bytes
        assert rows[-1].verifier_ops - rows[0].verifier_ops <= 10
        # prover pays the machine run and the homomorphic evaluation
        slope = np.polyfit(np.log([1 << 8, 1 << 10, 1 << 12]),
                           np.log([r.prover_ops for r in rows]), 1)[0]
        assert slope >= 0.9


    def test_session_at_two_to_the_40_accepts_quickly(self):
        suite, inner = _suite_and_inner()
        t = 1 << 40
        t0 = time.perf_counter()
        ok, ses = run_two_round_fs(suite, inner, "yes", "honest", 0,
                                   time_bound=t)
        elapsed = time.perf_counter() - t0
        assert ok
        assert cost_report(ses).prover_ops >= t
        # the idle loop is charged its T steps but runs in one step
        assert elapsed < 1.0

    def test_verifier_ops_grow_with_log_t_up_to_two_to_the_40(self):
        suite, inner = _suite_and_inner()
        lo, hi = 1 << 8, 1 << 40
        ops = []
        for t in (lo, hi):
            _, ses = run_two_round_fs(suite, inner, "yes", "honest", 0,
                                      time_bound=t)
            ops.append(cost_report(ses).verifier_ops)
        assert 0 <= ops[1] - ops[0] <= hi.bit_length() - lo.bit_length()

class TestSentRecord:
    """Each session keeps one record of the bytes it sent."""

    SENT = ("pk_fhe", "ct", "encoding", "ct_prime", "salt", "proof")
    SUITES = {
        "standard": lambda: make_stub_suite(3),
        # the salt oracle is 8 bits wide, so a derived salt is 1 byte
        "8-bit salt": lambda: BackendSuite(StubFhe(), StubRe(), StubSnark(),
                                           OracleTable(1, 256), OracleTable(2, 8)),
    }

    @pytest.mark.parametrize("suite_name", sorted(SUITES))
    @pytest.mark.parametrize("flow", [run_four_round, run_two_round_fs])
    @pytest.mark.parametrize("mode", ["honest", "mismatched-statement", "rejecting-e"])
    def test_ledger_and_statement_read_the_sent_bytes(self, suite_name, flow, mode):
        suite, inner = self.SUITES[suite_name](), toy_inner(12, 4)
        for seed in range(3):
            _, ses = flow(suite, inner, "yes", mode, seed)
            dump = ses.dump()
            sent = {name: bytes.fromhex(dump[name]) for name in self.SENT}
            assert tuple(sent.items()) == ses.sent
            assert ses.cost.message_bytes == sum(map(len, sent.values()))
            assert sent["ct_prime"] == ses.ct_prime.serialize()
            assert sent["salt"] == ses.z
            # the verifier judges the ct' it received, whatever the proof binds
            assert ses.statement == encode(("yes", sent["pk_fhe"], sent["ct"],
                                            sent["ct_prime"]))
            # the salt is charged by its length; the rest as test_verifier_cost_is_exact
            assert ses.cost.verifier_ops == 433 - SALT_LEN + len(ses.z) + (4096).bit_length()
            if flow is run_two_round_fs:
                assert ses.z == suite.salt_oracle.query(sent["ct_prime"])


class TestStubSuiteSeed:
    def test_seed_outside_oracle_range_rejected_at_build(self):
        # the suite's oracle seeds are oracle_seed ^ constant; a negative
        # one used to build and then fail at the first query, and then to
        # be refused naming the xored master_seed rather than the caller's
        with pytest.raises(BackendFailure, match="oracle_seed=-5"):
            make_stub_suite(-5)

    @pytest.mark.parametrize("bad", ["x", True, -1, 1.5, None, np.bool_(True)])
    def test_seed_follows_the_integer_rule(self, bad):
        with pytest.raises(BackendFailure, match="oracle_seed"):
            make_stub_suite(bad)
        got, want = make_stub_suite(np.int64(3)), make_stub_suite(3)
        assert got.snark_oracle.master_seed == want.snark_oracle.master_seed
        assert got.salt_oracle.master_seed == want.salt_oracle.master_seed


class TestSeedRanges:
    def test_suite_seed_above_eight_bytes_names_the_callers_seed(self):
        with pytest.raises(BackendFailure) as err:
            make_stub_suite(2**64)
        assert str(err.value) == f"oracle_seed={2**64} outside 0..{2**64 - 1}"
        top = make_stub_suite(2**64 - 1)
        assert top.snark_oracle.master_seed == (2**64 - 1) ^ 0x5A17ED

    def test_oracle_seed_above_eight_bytes(self):
        with pytest.raises(ProtocolError, match=f"master_seed={2**64} outside"):
            OracleTable(2**64, 4)


class TestSuiteType:
    @pytest.mark.parametrize("flow", [run_four_round, run_two_round_fs])
    def test_session_refuses_what_is_no_backend_suite(self, flow):
        for bad in (None, "suite", toy_inner(12, 2)):
            with pytest.raises(BackendFailure, match="is not a BackendSuite"):
                flow(bad, toy_inner(12, 2), "yes")


class TestToyInnerWidth:
    @pytest.mark.parametrize("bad", ["12", True, 12.0, None, 0, 17])
    def test_num_qubits_follows_the_integer_rule(self, bad):
        with pytest.raises(InnerProtocolError, match="num_qubits"):
            toy_inner(bad, 4)
        assert toy_inner(np.int64(16), 4).base == toy_inner(16, 4).base


class TestMachineArguments:
    """run_machine refuses a program, input or budget of the wrong type before its first step."""

    @pytest.mark.parametrize("budget", [None, 2.5, "10", True, -1])
    def test_budget_follows_the_integer_rule(self, budget):
        with pytest.raises(BackendFailure, match="budget="):
            run_machine((("HALT",),), b"", _prg_bytes, budget)

    @pytest.mark.parametrize("program,inp", [(None, b""), ("HALT", b""), ({0: ("HALT",)}, b""),
                                             ((("HASH",), ("HALT",)), None),
                                             ((("HASH",), ("HALT",)), "s")])
    def test_program_and_input_types(self, program, inp):
        with pytest.raises(BackendFailure, match="need a tuple or list program and bytes input"):
            run_machine(program, inp, _prg_bytes, 10)

    def test_a_zero_budget_runs_no_step(self):
        with pytest.raises(BackendFailure, match="step budget 0 exhausted"):
            run_machine((("HALT",),), b"", _prg_bytes, 0)
        assert run_machine([("HALT",)], b"", _prg_bytes, 1) == ((), 1)
