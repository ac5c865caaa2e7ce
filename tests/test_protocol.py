"""Protocol shells, oracle tables, repetition, Fiat-Shamir, adversaries."""

import enum
import hashlib
import math
import tracemalloc
from collections import namedtuple
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
import scipy.stats

from cvqc_lab.partition import ProverStrategy, haar_unitary, random_strategy
from cvqc_lab import effverify, protocol
from cvqc_lab.protocol import (
    FsGrinder,
    Honest,
    OracleTable,
    ProtocolError,
    Stats,
    UnitaryCheat,
    WidthMismatch,
    encode,
    fiat_shamir,
    grinder_rate_oracle,
    honest_rate_oracle,
    parallel_repeat,
    run_protocol,
    toy_protocol,
)
from cvqc_lab.qsim import CapExceeded, Operator


def _decode_one(buf: bytes, pos: int):
    # the inverse of encode, kept here to check that encode is injective
    if pos + 5 > len(buf):
        raise ProtocolError("truncated frame header")
    tag = buf[pos:pos + 1]
    length = int.from_bytes(buf[pos + 1:pos + 5], "big")
    start, end = pos + 5, pos + 5 + length
    if end > len(buf):
        raise ProtocolError("truncated frame payload")
    payload = buf[start:end]
    if tag == protocol._TAG_NONE:
        return None, end
    if tag == protocol._TAG_INT:
        return int.from_bytes(payload, "big"), end
    if tag == protocol._TAG_BYTES:
        return payload, end
    if tag == protocol._TAG_STR:
        return payload.decode("utf-8"), end
    if tag == protocol._TAG_TUPLE:
        items = []
        inner = start
        while inner < end:
            item, inner = _decode_one(buf, inner)
            items.append(item)
        return tuple(items), end
    raise ProtocolError(f"unknown tag {tag!r}")


def decode(buf: bytes):
    value, end = _decode_one(buf, 0)
    if end != len(buf):
        raise ProtocolError("trailing bytes after frame")
    return value


class TestEncoding:
    def test_round_trip_nested(self):
        values = [
            None,
            0,
            1,
            255,
            256,
            12345678901234567890,
            b"",
            b"\x00\xff\x10",
            "",
            "yes",
            "éテ",
            (),
            ("test", 1, 0),
            ("a", (2, (None, b"x")), "b"),
        ]
        for v in values:
            assert decode(encode(v)) == v

    def test_deterministic_bytes(self):
        v = ("had", 3, (1, 2, b"\x07"))
        assert encode(v) == encode(v)

    def test_distinct_values_distinct_bytes(self):
        seen = set()
        for v in [0, 1, "0", "1", b"0", b"1", (0,), (1,), None, ("0",)]:
            buf = encode(v)
            assert buf not in seen
            seen.add(buf)

    def test_rejects_bool_and_negative(self):
        for value in (True, (1, (True,)), np.bool_(True), -1, np.int64(-1), 3.14, [1]):
            with pytest.raises(ProtocolError):
                encode(value)

    def test_numpy_ints_and_subclasses_encode_as_their_base_values(self):
        class Level(enum.IntEnum):
            HIGH = 300

        class Name(str):
            pass

        Pair = namedtuple("Pair", "a b")
        assert encode(np.int64(5)) == encode(5)
        assert encode(np.uint8(255)) == encode(255)
        assert encode(Level.HIGH) == encode(300)
        assert encode((np.uint16(7), Level.HIGH)) == encode((7, 300))
        assert encode(Name("yes")) == encode("yes")
        assert encode(Pair(1, b"x")) == encode((1, b"x"))

    def test_program_and_statement_bytes_unchanged(self):
        # digests recorded before encode dispatched on exact type
        h = hashlib.sha256()
        for m in (1, 4, 7):
            for time_bound in (256, 4096, 65536):
                h.update(encode(effverify.key_machine(12, m, time_bound)))
        assert h.hexdigest() == ("c5852a487019b5884b56c6b0f7d6321b"
                                 "1c659d5094c92c0f8244e2a1ce529424")
        _, ses = effverify.run_two_round_fs(effverify.make_stub_suite(3),
                                            effverify.toy_inner(12, 4), "yes",
                                            prover="honest", seed=11, time_bound=4096)
        assert hashlib.sha256(ses.statement).hexdigest() == (
            "803d84cd8f012fcc07556255fe206ea65eba33dc888937d234bb6587a66baa3e")
        assert hashlib.sha256(ses.encoding.serialize()).hexdigest() == (
            "6bf48d08cbb8365db5131a00bcf30743ce0c2e88e04ebd20f3168cb534114ea8")

    def test_decode_rejects_damage(self):
        buf = encode(("yes", 12))
        with pytest.raises(ProtocolError):
            decode(buf[:-1])
        with pytest.raises(ProtocolError):
            decode(buf + b"\x00")
        with pytest.raises(ProtocolError):
            decode(b"Z" + buf[1:])

    @pytest.mark.parametrize("shape", [(1,), (3,), (12,), (64,)])
    def test_coordinate_frames_encode_nested_commitments(self, shape):
        # the Fiat-Shamir bulk route's oracle inputs for one-level
        # repetitions, built as arrays: row by row seed || encode(y) ||
        # counter 0, with coordinates at every width edge of one-, two-
        # and three-byte int frames
        edges = [0, 255, 256, 65535, 65536, (1 << 18) - 1]
        p = protocol.FourRoundProtocol(18, shape)
        rng = np.random.default_rng(len(shape))
        y = rng.integers(0, 1 << 18, size=(len(edges) + 3, p.m), dtype=np.uint64)
        y[:len(edges)] = np.array(edges, dtype=np.uint64)[:, None]
        y[-1] = np.resize(edges, p.m)
        seeds = rng.integers(0, 1 << 62, size=len(y), dtype=np.uint64)
        seeds[0], seeds[1] = 0, (1 << 64) - 1
        rows = [(s.to_bytes(8, "big"), encode(p.nest(coords)))
                for s, coords in zip(seeds.tolist(), y.tolist())]
        blob, ends = protocol._fs_oracle_inputs(seeds, y)
        assert blob == b"".join(s + key + bytes(4) for s, key in rows)
        assert ends == np.cumsum([12 + len(key) for _, key in rows]).tolist()
        for bits in sorted({p.m, 13, 50, 57, 64}):
            got = protocol._fs_challenges(seeds, y, bits)
            assert got.tolist() == [protocol._oracle_value(s, key, bits) for s, key in rows]


class TestOracleTable:
    def test_identical_queries_agree(self):
        h = OracleTable(11, 12)
        a = h.query(b"key")
        for _ in range(5):
            assert h.query(b"key") == a
        # and a rebuilt table with the same seed agrees too
        assert OracleTable(11, 12).query(b"key") == a

    def test_seeds_decorrelate(self):
        keys = [bytes([i]) for i in range(64)]
        a = [OracleTable(1, 8).query(k) for k in keys]
        b = [OracleTable(2, 8).query(k) for k in keys]
        assert a != b

    def test_output_width_masked(self):
        h = OracleTable(5, 4)
        for i in range(200):
            raw = h.query(i.to_bytes(2, "big"))
            assert len(raw) == 1
            assert raw[0] < 16
            bits = h.query_bits(i.to_bytes(2, "big"))
            assert len(bits) == 4 and set(bits) <= {"0", "1"}
            assert int(bits, 2) == raw[0]

    @pytest.mark.parametrize("bits", [1, 4, 9, 16, 256, 300])
    def test_output_is_seeded_sha256_stream(self, bits):
        # sha256(seed || key || counter) blocks, read big-endian and cut
        # to the output width
        seed, key = 2**40 + 5, encode((1, 2))
        stream = b"".join(hashlib.sha256(seed.to_bytes(8, "big") + key + c.to_bytes(4, "big"))
                          .digest() for c in range(2))
        nbytes = (bits + 7) // 8
        want = int.from_bytes(stream[:nbytes], "big") % (1 << bits)
        assert OracleTable(seed, bits).query(key) == want.to_bytes(nbytes, "big")

    def test_query_count(self):
        h = OracleTable(0, 8)
        h.query(b"a")
        h.query(b"a")
        h.query(b"b")
        assert h.query_count == 3

    @pytest.mark.parametrize("seed", [3.7, "5", True, np.bool_(True), None])
    def test_seed_that_is_not_an_int_rejected(self, seed):
        # int() would turn each of these into some seed, and so into a wrong oracle
        with pytest.raises(ProtocolError, match="master_seed"):
            OracleTable(seed, 8)

    def test_numpy_int_seed_is_its_int(self):
        assert OracleTable(np.uint64(7), 8).query(b"k") == OracleTable(7, 8).query(b"k")

    def test_bad_width_rejected(self):
        for width in (0, 8.0, True, "8"):
            with pytest.raises(ProtocolError, match="out_bits"):
                OracleTable(0, width)
        with pytest.raises(ProtocolError):
            OracleTable(0, 8).query("not bytes")


class TestSalting:
    def test_salted_view_is_prefixing(self):
        h = OracleTable(3, 8)
        hz = h.salted(b"\x07")
        for i in range(32):
            k = bytes([i])
            assert hz.query(k) == OracleTable(3, 8).query(b"\x07" + k)


class TestToyProtocol:
    def test_key_difference_has_odd_parity(self):
        p = toy_protocol(8)
        rng = np.random.default_rng(0)
        for _ in range(200):
            k, td = p.v1("yes", rng)
            assert k == td
            assert bin(k[0] ^ k[1]).count("1") % 2 == 1

    def test_honest_test_round_accepts(self):
        p = toy_protocol(8)
        rng = np.random.default_rng(1)
        for _ in range(100):
            k, td = p.v1("yes", rng)
            y, st = p.p2("yes", k, rng)
            a = p.p4(st, "0")
            assert p.v_out("yes", k, td, y, "0", a)
            # a test round reads public data only: any other td passes it too
            other_td = (k[1], k[0])
            assert other_td != k and p.v_out("yes", k, other_td, y, "0", a)

    def test_honest_hadamard_accepts_unless_d_zero(self):
        p = toy_protocol(6)
        rng = np.random.default_rng(2)
        for _ in range(300):
            k, td = p.v1("yes", rng)
            y, st = p.p2("yes", k, rng)
            a = p.p4(st, "1")
            assert p.v_out("yes", k, td, y, "1", a) == (a[2] != 0)

    def test_no_instance_rejects_hadamard(self):
        p = toy_protocol(6)
        rng = np.random.default_rng(3)
        for _ in range(100):
            k, td = p.v1("no", rng)
            y, st = p.p2("no", k, rng)
            assert not p.v_out("no", k, td, y, "1", p.p4(st, "1"))
            # the test round stays publicly checkable either way
            assert p.v_out("no", k, td, y, "0", p.p4(st, "0"))

    def test_challenge_zero_matches_public_verifier(self):
        # on the test round v_out reads public data only, so a td unrelated
        # to k gives the same verdict, even on malformed answers
        p = toy_protocol(5)
        rng = np.random.default_rng(4)
        answers = [("test", 0, 3), ("test", 1, 31), ("test", 2, 0),
                   ("had", 0, 3), ("bogus",), ("test", 0, 99), ("test", 0, -1)]
        for _ in range(50):
            k, td = p.v1("yes", rng)
            y, st = p.p2("yes", k, rng)
            other_td = (k[0] ^ 1, k[1])
            for a in answers + [p.p4(st, "0")]:
                assert p.v_out("yes", k, td, y, "0", a) == \
                    p.v_out("yes", k, other_td, y, "0", a)
            assert p.v_out("yes", k, other_td, y, "0", p.p4(st, "0"))

    def test_bool_answer_fields_are_rejected(self):
        # a bool is no b, m0 or d (config.check_int's integer rule), as
        # encode refuses it as a transcript value; key difference 7 ^ 9 = 14
        p, key = toy_protocol(4), (7, 9)
        assert p._test_ok(key, 3 ^ 9, ("test", 1, 3))
        assert p._had_ok("yes", key, ("had", 1, 2)) and p._had_ok("yes", key, ("had", 0, 1))
        for true in (True, np.bool_(True)):
            assert not p._test_ok(key, 3 ^ 9, ("test", true, 3))
            assert not p._had_ok("yes", key, ("had", true, 2))
            assert not p._had_ok("yes", key, ("had", 0, true))
        with pytest.raises(ProtocolError):
            encode(("test", True, 3))

    def test_width_guards(self):
        for n in (0, 4.0, True, "4"):
            with pytest.raises(ProtocolError, match="num_qubits"):
                toy_protocol(n)
        with pytest.raises(CapExceeded):
            toy_protocol(19)

    def test_public_coin_uniform(self):
        # chi-squared uniformity of the 4-coin challenge over 10^5 draws
        p = parallel_repeat(toy_protocol(4), 4)
        rng = np.random.default_rng(6)
        counts = np.zeros(16, dtype=int)
        for _ in range(100_000):
            counts[int(p.v3(rng), 2)] += 1
        _, pval = scipy.stats.chisquare(counts)
        assert pval > 0.01


class TestParallelRepeat:
    def test_messages_are_tuples_even_at_m_one(self):
        for shape in [(1,), (2, 3), (1, 3)]:
            p = toy_protocol(4)
            for size in shape:
                p = parallel_repeat(p, size)
            assert p.shape == shape
            rng = np.random.default_rng(7)
            k, td = p.v1("yes", rng)
            y, st = p.p2("yes", k, rng)
            c = p.v3(rng)
            a = p.p4(st, c)
            assert len(c) == math.prod(shape)
            for message in (k, y, st, a):
                # a b-tuple of a-tuples for shape (a, b)
                assert isinstance(message, tuple) and len(message) == shape[-1]
                if len(shape) == 2:
                    assert all(isinstance(v, tuple) and len(v) == shape[0] for v in message)
        nested = parallel_repeat(parallel_repeat(toy_protocol(4), 2), 3)
        assert nested == protocol.FourRoundProtocol(4, (2, 3))
        assert nested == parallel_repeat(parallel_repeat(toy_protocol(4), 2), 3)
        assert nested != parallel_repeat(parallel_repeat(toy_protocol(4), 3), 2)

    def test_verdict_is_conjunction(self):
        base = toy_protocol(5)
        p = parallel_repeat(base, 3)
        rng = np.random.default_rng(8)
        for _ in range(100):
            k, td = p.v1("yes", rng)
            y, st = p.p2("yes", k, rng)
            c = p.v3(rng)
            a = list(p.p4(st, c))
            coords = p.v_out_coords("yes", k, td, y, c, tuple(a))
            assert p.v_out("yes", k, td, y, c, tuple(a)) == all(coords)
            assert coords == [
                base.v_out("yes", k[i], td[i], y[i], c[i], a[i])
                for i in range(3)
            ]
            # breaking one coordinate breaks the conjunction
            a[1] = ("bogus",)
            assert not p.v_out("yes", k, td, y, c, tuple(a))

    def test_matched_seed_equivalence_at_m_one(self):
        base = toy_protocol(6)
        rep = parallel_repeat(base, 1)
        sb = run_protocol(base, Honest(base), "yes", trials=400, seed=9)
        sr = run_protocol(rep, Honest(rep), "yes", trials=400, seed=9)
        assert sb.accepts == sr.accepts
        assert sb.per_round_counts == sr.per_round_counts

    def test_m_must_be_positive(self):
        for m in (0, 2.0, True, "2"):
            with pytest.raises(ProtocolError, match="m="):
                parallel_repeat(toy_protocol(4), m)
        with pytest.raises(ProtocolError, match="m="):
            parallel_repeat(parallel_repeat(toy_protocol(4), 2), 2.0)


class TestMalformedMessages:
    """Messages that do not nest to the protocol's shape are rejected, never raised on."""

    @staticmethod
    def _misnested(v, shape):
        """v with a wrong arity, or a value that is not a tuple, at each level of shape."""
        bad = [(), None, 5, v[:-1], v + v[:1], list(v)]
        if len(shape) == 2:
            bad += [(v[0][:-1],) + v[1:], (v[0] + v[0][:1],) + v[1:], (list(v[0]),) + v[1:]]
        return bad

    @staticmethod
    def _with_first(v, leaf, shape):
        """v with its first coordinate replaced by leaf."""
        return (leaf,) + v[1:] if len(shape) == 1 else ((leaf,) + v[0][1:],) + v[1:]

    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_rejected_without_raising(self, shape):
        p = toy_protocol(8)
        for size in shape:
            p = parallel_repeat(p, size)
        rng = np.random.default_rng(90)
        k, td = p.v1("yes", rng)
        y, st = p.p2("yes", k, rng)
        m = math.prod(shape)
        c = "0" * m  # test rounds only, which an honest answer always passes
        a = p.p4(st, c)
        # a td unrelated to k: test rounds read public data only
        _, other_td = p.v1("yes", np.random.default_rng(91))
        assert other_td != k
        assert p.v_out("yes", k, td, y, c, a) and p.v_out("yes", k, other_td, y, c, a)
        cases = ([(y, c, bad) for bad in self._misnested(a, shape)]
                 + [(bad, c, a) for bad in self._misnested(y, shape)]
                 + [(y, bad, a) for bad in ("", c[:-1], c + "0", None)])
        for y_, c_, a_ in cases:
            assert p.v_out_coords("yes", k, td, y_, c_, a_) == [False] * m
            assert not p.v_out("yes", k, td, y_, c_, a_)
            if c_ == c:
                assert not p.v_out("yes", k, other_td, y_, c_, a_)
        # a coordinate whose answer fields have the wrong type fails on its own
        had = "1" + c[1:]
        for c_, leaf in [(c, ("test", 0, "x")), (c, ("test", 1.0, 0)), (had, ("had", 0, "x"))]:
            verdicts = p.v_out_coords("yes", k, td, y, c_, self._with_first(a, leaf, shape))
            assert verdicts == [False] + [True] * (m - 1)
        fs = fiat_shamir(p, OracleTable(91, m))
        y, a = fs.prove("yes", k, rng)
        assert fs.verify("yes", k, td, y, a)
        unencodable = self._with_first(y, -1, shape)  # encode rejects negative ints
        for y_, a_ in ([(y, bad) for bad in self._misnested(a, shape)]
                       + [(bad, a) for bad in self._misnested(y, shape) + [unencodable]]):
            assert not fs.verify("yes", k, td, y_, a_)


class TestHonestAndTestOnly:
    def test_honest_rate_matches_oracle(self):
        n, m, trials = 4, 6, 20_000
        p = parallel_repeat(toy_protocol(n), m)
        st = run_protocol(p, Honest(p), "yes", trials=trials, seed=10)
        expect = honest_rate_oracle(n, m)
        sigma = np.sqrt(expect * (1 - expect) / trials)
        assert abs(st.accept_rate - expect) <= 4 * sigma + 1e-12
        # test rounds never fail for the honest prover
        passed, total = st.per_round_counts["test"]
        assert passed == total

    def test_testonly_rate_matches_oracle(self):
        trials = 30_000
        for m in (1, 3):
            p = parallel_repeat(toy_protocol(8), m)
            st = run_protocol(p, protocol.TestOnly(p), "yes", trials=trials, seed=11 + m)
            expect = protocol.testonly_rate_oracle(m)
            sigma = np.sqrt(expect * (1 - expect) / trials)
            assert abs(st.accept_rate - expect) <= 4 * sigma

    def test_testonly_round_split(self):
        p = parallel_repeat(toy_protocol(8), 4)
        st = run_protocol(p, protocol.TestOnly(p), "yes", trials=2000, seed=12)
        t_pass, t_tot = st.per_round_counts["test"]
        h_pass, h_tot = st.per_round_counts["hadamard"]
        assert t_pass == t_tot > 0
        assert h_pass == 0 and h_tot > 0
        assert t_tot + h_tot == 4 * 2000
        assert st.queries == 0

    def test_same_seed_reproduces_stats(self):
        p = parallel_repeat(toy_protocol(8), 2)
        a = run_protocol(p, protocol.TestOnly(p), "yes", trials=500, seed=13)
        b = run_protocol(p, protocol.TestOnly(p), "yes", trials=500, seed=13)
        assert a == b

    def test_trials_guard(self):
        p = toy_protocol(4)
        for trials in (0, 5.0, True, "5"):
            with pytest.raises(ProtocolError, match="trials"):
                run_protocol(p, Honest(p), "yes", trials=trials, seed=1)
        assert run_protocol(p, Honest(p), "yes", trials=np.int64(5), seed=1).trials == 5


class TestBulkReplay:
    """run_protocol's bulk route for the toy instance against the per-trial route.

    The bulk route rests on numpy drawing each power-of-two range from one
    next_uint32 and on PCG64 handing out the low half of each 64-bit
    output first; a change to either breaks these equalities.
    """

    @pytest.mark.parametrize("m", [1, 3, 5, 8, 20])
    @pytest.mark.parametrize("strategy", [Honest, protocol.TestOnly])
    @pytest.mark.parametrize("x", ["yes", "no"])
    def test_same_stats_as_per_trial_route(self, monkeypatch, m, strategy, x):
        # a small chunk keeps the per-trial reference cheap while the
        # trial count still ends on a partial chunk; n = 3 makes the
        # honest d = 0 rejection common enough to pin down d's position.
        # The verdicts skip to the output holding the first word they
        # read: at odd m the first coin (word 5m) is an output's high
        # half and the first d (word 2m + 2) a low half
        monkeypatch.setattr(protocol, "_TRIAL_CHUNK", 256)
        trials = 1000
        p = parallel_repeat(toy_protocol(3), m)
        assert p.shape == (m,)
        bulk = run_protocol(p, strategy(p), x, trials=trials, seed=30 + m)
        ref = protocol._run_per_trial(p, strategy(p), x, trials=trials, seed=30 + m)
        assert bulk == ref

    def test_unrepeated_toy_matches_per_trial_route(self):
        p = toy_protocol(7)
        bulk = run_protocol(p, Honest(p), "yes", trials=700, seed=37)
        assert bulk == protocol._run_per_trial(p, Honest(p), "yes", trials=700, seed=37)

    def test_chunked_seeds_match_one_spawn(self):
        trials = protocol._TRIAL_CHUNK + 5
        chunks = list(protocol._trial_seeds(38, trials))
        assert len(chunks) == 2
        got = [child.generate_state(2) for chunk in chunks for child in chunk]
        want = [child.generate_state(2)
                for child in np.random.SeedSequence(38).spawn(trials)]
        assert np.array_equal(got, want)

    def test_only_plain_toy_shapes_replay_in_bulk(self):
        # nested repetition replays in bulk too; its reference is the
        # per-trial route, not the flat shape (TestNestedRepetition
        # compares bulk with bulk)
        nested = parallel_repeat(parallel_repeat(toy_protocol(4), 2), 3)
        assert nested.shape == (2, 3)
        cheat = _cheat(5, False)
        for adv in (Honest(nested), protocol.TestOnly(nested), cheat):
            bulk = run_protocol(nested, adv, "yes", trials=300, seed=39)
            assert bulk == protocol._run_per_trial(nested, adv, "yes", trials=300, seed=39)


def _cheat(x_width: int, with_u0: bool) -> UnitaryCheat:
    rng = np.random.default_rng(50 + x_width)
    strategy = random_strategy(rng, 1, x_width=x_width, z_width=1)
    if with_u0:
        # a prover that first prepares u0|0>_{X,Z} runs U (I_C (x) u0)
        u0 = haar_unitary(rng, strategy.xz_dim)
        folded = strategy.u.mat @ np.kron(np.eye(1 << strategy.m), u0)
        strategy = replace(strategy, u=Operator.unitary(folded))
    return UnitaryCheat(strategy)


def _outputs(streams, k):
    """The next k whole outputs of streams, read as their two words each, as a (k, rows) uint64."""
    words = streams.words(k, range(2 * k)).astype(np.uint64)
    return (words[1::2] << np.uint64(32)) | words[0::2]


class TestArrayStreams:
    """The bulk route's array-derived PCG64 outputs against numpy's own objects."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, (1 << 99) + 12345, [7, 2**40, 0]]

    @staticmethod
    def _numpy_raw(children, k):
        """numpy's first k outputs of each child, as _outputs' (k, rows)."""
        return np.array([np.random.PCG64(c).random_raw(k) for c in children]).T

    @pytest.mark.parametrize("k", [3, 24, 60])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_raw_words_match_pcg64(self, seed, k):
        got = _outputs(protocol._TrialStreams(seed, 0, 9), k)
        assert np.array_equal(got, self._numpy_raw(np.random.SeedSequence(seed).spawn(9), k))

    @pytest.mark.parametrize("rows", [1, 7])
    def test_words_are_contiguous_rows_of_uint32(self, rows):
        streams = protocol._TrialStreams(3, 0, rows)
        streams.words(2, ())
        for k, idx in ((1, [1]), (5, range(10)), (3, [4, 0, 5])):
            out = streams.words(k, idx)
            assert out.shape == (len(idx), rows) and out.dtype == np.uint32 and out.flags.c_contiguous
        streams.keep(np.zeros(rows, dtype=bool))
        out = streams.words(4, range(3))
        assert out.shape == (3, 0) and out.dtype == np.uint32 and out.flags.c_contiguous

    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_words_in_drawing_order(self, k):
        # word 2j is output j's low half and word 2j + 1 its high half, the
        # order in which a Generator's 32-bit draws hand them out
        children = np.random.SeedSequence(45).spawn(5)
        want = np.array([np.random.Generator(np.random.PCG64(c)).integers(
            0, 1 << 32, size=2 * k, dtype=np.uint32) for c in children]).T
        idx = np.arange(2 * k)
        got = protocol._TrialStreams(45, 0, 5).words(k, idx)
        assert got.shape == (2 * k, 5) and got.dtype == np.uint32
        assert np.array_equal(got, want)
        some = idx[::-3]
        assert np.array_equal(protocol._TrialStreams(45, 0, 5).words(k, some), want[some])

    @staticmethod
    def _halves(children, k):
        """numpy's first k outputs of each child as 2k words in drawing order, (2k, rows)."""
        raw = np.array([np.random.PCG64(c).random_raw(k) for c in children], dtype="<u8")
        return raw.view("<u4").T

    @pytest.mark.parametrize("rows", [protocol._TRIAL_CHUNK, 1808])
    def test_words_are_halves_of_random_raw(self, rows):
        # random sorted subsets of the words, read right after construction,
        # after outputs no word is read from, and after keep with a mask and
        # with an index array, over one full chunk and one partial chunk
        pick = np.random.default_rng(rows)
        start = protocol._TRIAL_CHUNK
        children = np.random.SeedSequence(46).spawn(start + rows)[start:]
        want = self._halves(children, 40)

        def subset(lo, hi):
            return np.flatnonzero(pick.random(hi - lo) < 0.4) + lo

        streams = protocol._TrialStreams(46, start, rows)
        idx = subset(0, 12)
        assert np.array_equal(streams.words(6, idx), want[idx])
        streams.words(5, ())
        idx = subset(22, 40)
        assert np.array_equal(streams.words(9, idx - 22), want[idx])
        for kept in (pick.random(rows) < 0.5, np.flatnonzero(pick.random(rows) < 0.3)[::-1]):
            streams = protocol._TrialStreams(46, start, rows)
            idx = subset(0, 20)
            assert np.array_equal(streams.words(10, idx), want[idx])
            streams.keep(kept)
            idx = subset(20, 40)
            assert np.array_equal(streams.words(10, idx - 20), want[idx][:, kept])

    def test_second_chunk_starts_at_chunk_size(self):
        k, trials = 6, protocol._TRIAL_CHUNK + 3
        chunks = [_outputs(protocol._TrialStreams(44, 0, protocol._TRIAL_CHUNK), k),
                  _outputs(protocol._TrialStreams(44, protocol._TRIAL_CHUNK, 3), k)]
        want = self._numpy_raw(np.random.SeedSequence(44).spawn(trials), k)
        assert np.array_equal(np.concatenate(chunks, axis=1), want)

    @pytest.mark.parametrize("seed", [0, 2**64 + 3])
    def test_child_indices_beyond_32_bits(self, seed):
        # a child index from 2^32 on enters the pool as two words
        for start in (2**32 - 2, 2**33 + 5, 2**40):
            children = [np.random.SeedSequence(seed, spawn_key=(start + i,))
                        for i in range(4)]
            got = _outputs(protocol._TrialStreams(seed, start, 4), 5)
            assert np.array_equal(got, self._numpy_raw(children, 5))

    def test_negative_seed_fails_like_per_trial_route(self):
        # a seed numpy refuses, negative, float or str, is a ProtocolError
        # carrying numpy's message on both routes: Honest takes the bulk
        # route, a cheat of another width the per-trial route
        # (TestUnitaryCheatBulk::test_route_follows_strategy_width)
        p = parallel_repeat(toy_protocol(4), 2)
        for seed in (-1, 1.0, "a"):
            with pytest.raises((TypeError, ValueError)) as ref:
                np.random.SeedSequence(seed)
            for adversary in (Honest(p), _cheat(4, False)):
                with pytest.raises(ProtocolError) as err:
                    run_protocol(p, adversary, "yes", trials=5, seed=seed)
                assert str(ref.value) in str(err.value)


def test_memory_is_flat_across_chunks():
    # each chunk's streams and verdicts are released before the next is
    # seeded, so three chunks peak where one does
    p = parallel_repeat(toy_protocol(12), 20)

    def peak(trials):
        run_protocol(p, Honest(p), "yes", trials=trials, seed=1)  # warm every cache
        tracemalloc.start()
        try:
            run_protocol(p, Honest(p), "yes", trials=trials, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(3 * protocol._TRIAL_CHUNK) <= 1.1 * peak(protocol._TRIAL_CHUNK)


class TestOneRowFinalChunk:
    """Every bulk path against the per-trial route on a run whose last chunk
    holds one trial, where a squeezed or broadcast axis would show."""

    TRIALS = 129  # chunks of 64, 64 and 1

    @pytest.fixture
    def sizes(self, monkeypatch):
        monkeypatch.setattr(protocol, "_TRIAL_CHUNK", 64)
        sizes = []

        class Recording(protocol._TrialStreams):
            def __init__(self, seed, start, count):
                sizes.append(count)
                super().__init__(seed, start, count)

        monkeypatch.setattr(protocol, "_TrialStreams", Recording)
        return sizes

    def _same(self, sizes, p, adv, x, seed):
        sizes.clear()
        bulk = run_protocol(p, adv, x, trials=self.TRIALS, seed=seed)
        assert sizes == [64, 64, 1]
        assert bulk == protocol._run_per_trial(p, adv, x, trials=self.TRIALS, seed=seed)

    @pytest.mark.parametrize("x", ["yes", "no"])
    @pytest.mark.parametrize("m", [1, 3])
    def test_plain_and_cheat(self, sizes, m, x):
        p = parallel_repeat(toy_protocol(3), m)
        for adv in (Honest(p), protocol.TestOnly(p), _cheat(4, True)):
            self._same(sizes, p, adv, x, 72 + m)

    @pytest.mark.parametrize("x", ["yes", "no"])
    @pytest.mark.parametrize("m", [1, 3])
    def test_fiat_shamir_and_grinders(self, sizes, m, x):
        base = parallel_repeat(toy_protocol(3), m)
        fs = fiat_shamir(base, OracleTable(60, m))
        for adv in (Honest(base), FsGrinder(5, protocol.TestOnly(base)),
                    FsGrinder(4, Honest(base))):
            self._same(sizes, fs, adv, x, 74 + m)

    @pytest.mark.parametrize("rows", [1, 5])
    def test_verdicts_are_coordinates_by_rows(self, rows):
        p = parallel_repeat(toy_protocol(3), 4)
        cdfs = _cheat(4, False)._outcome_cdfs()
        for verdicts in (partial(p.plain_verdicts, had_ok=True),
                         partial(p.plain_verdicts, had_ok=False),
                         partial(p.cheat_verdicts, cdfs=cdfs, yes=True)):
            c, ok = verdicts(protocol._TrialStreams(76, 0, rows))
            assert c.shape == ok.shape == (4, rows)


class TestUnitaryCheatBulk:
    """UnitaryCheat's bulk route against the per-trial route.

    Both routes search qsim's Born table with one random() double per
    measurement; test_qsim pins that draw to Generator.choice's.
    """

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("x", ["yes", "no"])
    @pytest.mark.parametrize("x_width,with_u0", [(3, False), (3, True), (5, False),
                                                 (5, True), (7, False), (7, True)])
    def test_same_stats_as_per_trial_route(self, monkeypatch, x_width, with_u0, m, x):
        monkeypatch.setattr(protocol, "_TRIAL_CHUNK", 64)
        trials = 150  # ends on a partial chunk
        cheat = _cheat(x_width, with_u0)
        p = parallel_repeat(toy_protocol(x_width - 1), m)
        bulk = run_protocol(p, cheat, x, trials=trials, seed=46 + m)
        assert bulk == protocol._run_per_trial(p, cheat, x, trials=trials, seed=46 + m)

    def test_unrepeated_toy_matches_per_trial_route(self):
        cheat, p = _cheat(3, True), toy_protocol(2)
        bulk = run_protocol(p, cheat, "yes", trials=500, seed=47)
        assert bulk.accepts > 0
        assert bulk == protocol._run_per_trial(p, cheat, "yes", trials=500, seed=47)

    def test_route_follows_strategy_width(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("route not expected")

        cheat = _cheat(4, False)
        matching = parallel_repeat(toy_protocol(3), 2)
        other = parallel_repeat(toy_protocol(4), 2)
        with monkeypatch.context() as mp:
            mp.setattr(protocol, "_run_per_trial", refuse)
            run_protocol(matching, cheat, "yes", trials=20, seed=48)
        monkeypatch.setattr(protocol, "_run_toy_batch", refuse)
        st = run_protocol(other, cheat, "yes", trials=20, seed=48)
        assert st.trials == 20


class TestFsBulkReplay:
    """run_protocol's Fiat-Shamir bulk route against the per-trial route.

    The bulk route rests on integers(1 << 62) taking one whole PCG64
    output shifted right by 2, on p2's draws following v1's with no coin
    between attempts, and on sharing OracleTable's derivation; a change
    to any of these breaks these equalities.
    """

    @staticmethod
    def _fs(n, shape):
        base = toy_protocol(n)
        for size in shape:
            base = parallel_repeat(base, size)
        return base, fiat_shamir(base, OracleTable(60, base.m))

    @staticmethod
    def _same(fs, adv, x, trials, seed):
        bulk = run_protocol(fs, adv, x, trials=trials, seed=seed)
        assert bulk == protocol._run_per_trial(fs, adv, x, trials=trials, seed=seed)
        return bulk

    @pytest.mark.parametrize("n", [3, 12])
    @pytest.mark.parametrize("m", [1, 4, 9, 16])
    @pytest.mark.parametrize("x", ["yes", "no"])
    def test_same_stats_as_per_trial_route(self, monkeypatch, n, m, x):
        # m = 9 and 16 take two-byte oracle outputs with masked top bits;
        # n = 3 makes the honest d = 0 rejection common; 150 trials over
        # chunks of 64 end on a partial chunk
        monkeypatch.setattr(protocol, "_TRIAL_CHUNK", 64)
        base, fs = self._fs(n, (m,))
        for adv in (Honest(base), protocol.TestOnly(base),
                    FsGrinder(5, protocol.TestOnly(base)), FsGrinder(3, Honest(base))):
            st = self._same(fs, adv, x, 150, 61 + m)
            assert st.queries >= 150

    @pytest.mark.parametrize("n", [9, 17])
    @pytest.mark.parametrize("m", [4, 50, 57, 64])
    def test_wide_challenges_and_three_byte_frames(self, monkeypatch, n, m):
        # m = 50 reads seven oracle bytes, 57 eight, both with masked top
        # bits, and 64 all eight; n = 17 puts three-byte frames in the
        # keys.  Wide challenges almost never decide a trial at n = 17,
        # where d = 0 is rare, so m = 4 is there to let them decide
        monkeypatch.setattr(protocol, "_TRIAL_CHUNK", 64)
        base, fs = self._fs(n, (m,))
        for adv in (FsGrinder(3, Honest(base)), FsGrinder(3, protocol.TestOnly(base))):
            for x in ("yes", "no"):
                self._same(fs, adv, x, 100, 68 + m)

    def test_grinder_accepting_on_its_last_attempt(self):
        # on one seed a trial's attempts are the same whatever the budget,
        # so each budget's extra accepts are trials whose only accepted
        # attempt is their last; odd budgets end on the first attempt of a pair
        base, fs = self._fs(5, (2,))
        accepts = [self._same(fs, FsGrinder(q, protocol.TestOnly(base)), "yes", 120, 62).accepts
                   for q in (1, 2, 3, 4)]
        assert accepts == sorted(accepts) and len(set(accepts)) == 4

    @pytest.mark.parametrize("shape", [(), (2, 2), (3, 2), (2, 1, 2)])
    def test_bare_and_nested_shapes(self, shape):
        base, fs = self._fs(4, shape)
        assert base.shape == shape
        for adv in (Honest(base), protocol.TestOnly(base), FsGrinder(4, protocol.TestOnly(base)),
                    FsGrinder(2, Honest(base))):
            self._same(fs, adv, "yes", 200, 64)

    def test_same_seed_rerun(self):
        base, fs = self._fs(12, (4,))
        a = run_protocol(fs, FsGrinder(6, protocol.TestOnly(base)), "yes", trials=500, seed=65)
        assert a == run_protocol(fs, FsGrinder(6, protocol.TestOnly(base)), "yes",
                                 trials=500, seed=65)

    @pytest.mark.parametrize("x", ["yes", "no"])
    def test_attempts_with_failmask_zero_are_counted_not_hashed(self, monkeypatch, x):
        # at n = 3 an honest coordinate draws d = 0 with probability 1/8, so
        # at m = 9 about 70% of honest yes-instance attempts can fail on
        # their challenge and the rest accept whatever it is, both kinds in
        # one step.  A no-instance or TestOnly attempt always reads it
        monkeypatch.setattr(protocol, "_TRIAL_CHUNK", 64)
        hashed = []
        real = protocol._fs_challenges
        monkeypatch.setattr(protocol, "_fs_challenges",
                            lambda seeds, y, m: hashed.append(seeds.size) or real(seeds, y, m))
        base, fs = self._fs(3, (9,))
        for adv in (Honest(base), FsGrinder(3, protocol.TestOnly(base)),
                    FsGrinder(3, Honest(base))):
            hashed.clear()
            st = self._same(fs, adv, x, 300, 70)
            inner = adv.inner if isinstance(adv, FsGrinder) else adv
            if x == "yes" and type(inner) is Honest:
                assert 0 < sum(hashed) < st.queries
            else:
                assert sum(hashed) == st.queries

    def test_oracle_seed_is_first_output_shifted(self):
        children = np.random.SeedSequence(66).spawn(40)
        seeds = toy_protocol(4).fs_head(protocol._TrialStreams(66, 0, 40))[0]
        want = [np.random.Generator(np.random.PCG64(c)).integers(1 << 62) for c in children]
        assert seeds.dtype == np.uint64 and np.array_equal(seeds, want)

    def test_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("route not expected")

        # one-level repetitions up to 64 challenge bits replay in bulk
        with monkeypatch.context() as mp:
            mp.setattr(protocol, "_run_per_trial", refuse)
            for shape in [(1,), (2,), (protocol._FS_MAX_M,)]:
                base, fs = self._fs(4, shape)
                run_protocol(fs, FsGrinder(3, Honest(base)), "yes", trials=20, seed=67)
        monkeypatch.setattr(protocol, "_run_fs_batch", refuse)
        base, fs = self._fs(4, (2,))
        wide, wide_fs = self._fs(1, (protocol._FS_MAX_M + 1,))
        cases = [(fs, Honest(parallel_repeat(toy_protocol(5), 2))),  # another width
                 (fs, FsGrinder(2, _cheat(5, False))),
                 (wide_fs, Honest(wide))]
        # the bare toy and nested repetitions run trial by trial
        for shape in [(), (2, 2), (2, 1, 2)]:
            other, other_fs = self._fs(4, shape)
            cases += [(other_fs, Honest(other)),
                      (other_fs, FsGrinder(2, protocol.TestOnly(other)))]
        for fs_, adv in cases:
            assert run_protocol(fs_, adv, "yes", trials=20, seed=67).trials == 20


class TestNestedRepetition:
    """Repeating a repetition is the flat repetition with regrouped messages.

    Both shapes consume the trial randomness coordinate by coordinate in
    the same order, so on one seed every strategy gets identical Stats.
    """

    SHAPES = [(3, 2), (2, 3), (2, 2), (1, 3), (4, 1)]

    @staticmethod
    def _cheat(p):
        rng = np.random.default_rng(41)
        return UnitaryCheat(random_strategy(rng, 1, x_width=5, z_width=1))

    @pytest.mark.parametrize("a,b", SHAPES)
    @pytest.mark.parametrize("make", [Honest, protocol.TestOnly, _cheat.__func__],
                             ids=["honest", "testonly", "cheat"])
    def test_same_stats_as_flat_repetition(self, a, b, make):
        nested = parallel_repeat(parallel_repeat(toy_protocol(4), a), b)
        flat = parallel_repeat(toy_protocol(4), a * b)
        got = run_protocol(nested, make(nested), "yes", trials=200, seed=40 + a * b)
        want = run_protocol(flat, make(flat), "yes", trials=200, seed=40 + a * b)
        assert got == want

    @pytest.mark.parametrize("a,b", SHAPES)
    def test_cheat_per_trial_route_matches_flat(self, a, b):
        # the per-trial route recurses through the nested commitments the
        # cheat keeps as its states
        nested = parallel_repeat(parallel_repeat(toy_protocol(4), a), b)
        flat = parallel_repeat(toy_protocol(4), a * b)
        cheat = self._cheat(flat)
        want = run_protocol(flat, cheat, "yes", trials=200, seed=40 + a * b)
        assert protocol._run_per_trial(nested, cheat, "yes", 200, 40 + a * b) == want

    def test_fs_grinder_matches_formula(self):
        # encode(y) differs between the nested and the flat shape, so the
        # hashed challenges do too; only the closed form can be compared
        a, b, budget, trials = 2, 2, 4, 2000
        nested = parallel_repeat(parallel_repeat(toy_protocol(4), a), b)
        fs = fiat_shamir(nested, OracleTable(42, a * b))
        st = run_protocol(fs, FsGrinder(budget, protocol.TestOnly(nested)), "yes",
                          trials=trials, seed=43)
        expect = grinder_rate_oracle(a * b, budget)
        sigma = np.sqrt(expect * (1 - expect) / trials)
        assert abs(st.accept_rate - expect) <= 5 * sigma


class TestUnitaryCheat:
    def test_rate_decreases_with_repetition(self):
        rng = np.random.default_rng(14)
        strat = random_strategy(rng, 1, x_width=3, z_width=1)
        cheat = UnitaryCheat(strat)
        base = toy_protocol(2)
        rates = []
        for m in (1, 2, 4, 8):
            p = parallel_repeat(base, m)
            st = run_protocol(p, cheat, "yes", trials=2500, seed=15 + m)
            rates.append(st.accept_rate)
        # product structure: each extra coordinate multiplies the rate by
        # a factor well below 1, so the sweep separates far beyond noise
        assert rates[0] > rates[1] + 0.05
        assert rates[1] > rates[2] + 0.03
        assert rates[2] >= rates[3]

    def test_strategy_shape_guards(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ProtocolError):
            UnitaryCheat(random_strategy(rng, 2, x_width=3, z_width=1))
        with pytest.raises(ProtocolError):
            UnitaryCheat(random_strategy(rng, 1, x_width=1, z_width=1))


class TestFiatShamir:
    def test_width_mismatch_rejected(self):
        p = parallel_repeat(toy_protocol(4), 3)
        with pytest.raises(WidthMismatch):
            fiat_shamir(p, OracleTable(0, 4))

    def test_challenge_deterministic_in_y(self):
        p = parallel_repeat(toy_protocol(4), 3)
        fs = fiat_shamir(p, OracleTable(17, 3))
        y = (3, 9, 12)
        assert fs.challenge_of(y) == fs.challenge_of(y)
        fs2 = fiat_shamir(p, OracleTable(17, 3))
        assert fs.challenge_of(y) == fs2.challenge_of(y)

    def test_prove_then_verify_round_trips(self):
        p = parallel_repeat(toy_protocol(8), 2)
        fs = fiat_shamir(p, OracleTable(18, 2))
        rng = np.random.default_rng(19)
        hits = 0
        for _ in range(200):
            k, td = p.v1("yes", rng)
            y, a = fs.prove("yes", k, rng)
            hits += fs.verify("yes", k, td, y, a)
        assert hits >= 198  # only a Hadamard d = 0 can miss

    def test_commitment_independent_of_oracle(self):
        # the FS prover's y must match the interactive prover's y when
        # both consume the same randomness
        p = parallel_repeat(toy_protocol(6), 2)
        for child in np.random.SeedSequence(20).spawn(20):
            r1 = np.random.default_rng(child)
            r2 = np.random.default_rng(child)
            k1, _ = p.v1("yes", r1)
            y1, _ = p.p2("yes", k1, r1)
            k2, _ = p.v1("yes", r2)
            fs = fiat_shamir(p, OracleTable(int(child.generate_state(1)[0]), 2))
            y2, _ = fs.prove("yes", k2, r2)
            assert k1 == k2 and y1 == y2

    def test_run_protocol_fs_deterministic(self):
        p = parallel_repeat(toy_protocol(8), 2)
        fs = fiat_shamir(p, OracleTable(21, 2))
        a = run_protocol(fs, Honest(p), "yes", trials=300, seed=22)
        b = run_protocol(fs, Honest(p), "yes", trials=300, seed=22)
        assert a == b
        assert a.queries == 300  # one commitment hash per trial

    def test_grinder_matches_formula(self):
        m, budget, trials = 3, 8, 8000
        p = parallel_repeat(toy_protocol(10), m)
        fs = fiat_shamir(p, OracleTable(23, m))
        st = run_protocol(fs, FsGrinder(budget, protocol.TestOnly(p)), "yes",
                          trials=trials, seed=24)
        expect = grinder_rate_oracle(m, budget)
        sigma = np.sqrt(expect * (1 - expect) / trials)
        assert abs(st.accept_rate - expect) <= 4 * sigma
        assert 0 < st.queries <= budget * trials
        # expected queries: truncated geometric mean
        mean_expect = expect / (2.0 ** -m)
        assert abs(st.queries / trials - mean_expect) <= 0.5

    def test_per_trial_route_verifies_each_attempt_once(self, monkeypatch):
        # a UnitaryCheat keeps the grinder on the per-trial route
        calls = []
        v_out_coords = protocol.FourRoundProtocol.v_out_coords

        def counted(self, *args):
            calls.append(1)
            return v_out_coords(self, *args)

        monkeypatch.setattr(protocol.FourRoundProtocol, "v_out_coords", counted)
        strat = random_strategy(np.random.default_rng(1), 1, x_width=5, z_width=1)
        fs = fiat_shamir(parallel_repeat(toy_protocol(4), 3), OracleTable(5, 3))
        st = run_protocol(fs, FsGrinder(4, UnitaryCheat(strat)), "yes", trials=200, seed=3)
        assert len(calls) == st.queries

    def test_grinder_budget_guard(self):
        base = parallel_repeat(toy_protocol(4), 2)
        for budget in (0, 2.0, True, "2"):
            with pytest.raises(ProtocolError, match="query_budget"):
                FsGrinder(budget, protocol.TestOnly(base))

    def test_stats_shape(self):
        p = toy_protocol(4)
        st = run_protocol(p, Honest(p), "yes", trials=50, seed=25)
        assert isinstance(st, Stats)
        assert st.trials == 50
        assert st.accepts == round(st.accept_rate * 50)


class TestOracleSeedRange:
    def test_both_ends_of_the_seed_range_work(self):
        for seed in (0, (1 << 64) - 1):
            assert len(OracleTable(seed, 8).query(b"k")) == 1

    def test_seeds_outside_eight_bytes_rejected(self):
        for seed in (-1, 1 << 64):
            with pytest.raises(ProtocolError, match="master_seed"):
                OracleTable(seed, 8)


class TestCheatTablesPerStrategy:
    def test_replaced_u_gets_its_own_tables_and_rate(self):
        rng = np.random.default_rng(9)
        s = random_strategy(rng, 1, x_width=5, z_width=1)
        p = parallel_repeat(toy_protocol(4), 2)
        before = run_protocol(p, UnitaryCheat(s), "yes", trials=4000, seed=9)
        u = Operator.unitary(haar_unitary(rng, s.dim))
        moved = UnitaryCheat(replace(s, u=u))
        fresh = UnitaryCheat(ProverStrategy(m=1, x_width=5, z_width=1, u=u,
                                            accept_sets=s.accept_sets))
        got = run_protocol(p, moved, "yes", trials=4000, seed=9)
        assert got == run_protocol(p, fresh, "yes", trials=4000, seed=9)
        assert got.accepts != before.accepts
        assert np.array_equal(moved._outcome_cdfs(), fresh._outcome_cdfs())
        assert not np.array_equal(moved._outcome_cdfs(), UnitaryCheat(s)._outcome_cdfs())


class TestMismatchedAdversary:
    """Adversaries that do not fit the protocol fail with a typed error at entry."""

    def test_grinder_outside_fiat_shamir(self):
        p = parallel_repeat(toy_protocol(3), 2)
        with pytest.raises(ProtocolError, match="Fiat-Shamir"):
            run_protocol(p, FsGrinder(4, Honest(p)), "yes", trials=10, seed=1)

    def test_grinder_inside_grinder(self):
        p = parallel_repeat(toy_protocol(3), 2)
        fs = fiat_shamir(p, OracleTable(1, 2))
        with pytest.raises(ProtocolError, match="another FsGrinder"):
            run_protocol(fs, FsGrinder(4, FsGrinder(2, Honest(p))), "yes", trials=10, seed=1)

    def test_strategy_built_for_the_fiat_shamir_protocol(self):
        # Honest(fs) instead of Honest(fs.base): rejected with a typed error
        # when built, for Fiat-Shamir, inside a grinder and interactively
        p = parallel_repeat(toy_protocol(3), 2)
        fs = fiat_shamir(p, OracleTable(1, 2))
        for strategy in (Honest, protocol.TestOnly):
            for target, build in ((fs, lambda: strategy(fs)),
                                  (fs, lambda: FsGrinder(2, strategy(fs))),
                                  (p, lambda: strategy(fs))):
                with pytest.raises(ProtocolError, match="TwoRoundFS"):
                    run_protocol(target, build(), "yes", trials=5, seed=1)

    def test_strategy_for_another_width_under_fiat_shamir(self):
        toy = toy_protocol(3)
        fs = fiat_shamir(parallel_repeat(toy, 2), OracleTable(1, 2))
        with pytest.raises(WidthMismatch, match="3 challenge bits"):
            run_protocol(fs, Honest(parallel_repeat(toy, 3)), "yes", trials=10, seed=1)
        with pytest.raises(WidthMismatch):
            run_protocol(fs, FsGrinder(3, protocol.TestOnly(toy)), "yes", trials=10, seed=1)

    def test_strategy_for_another_width_interactive(self):
        toy = toy_protocol(3)
        with pytest.raises(WidthMismatch):
            run_protocol(parallel_repeat(toy, 2), protocol.TestOnly(parallel_repeat(toy, 3)),
                         "yes", trials=10, seed=1)

    def test_strategy_for_another_shape_of_the_same_width(self):
        toy = toy_protocol(3)
        nested = parallel_repeat(parallel_repeat(toy, 2), 3)
        for strategy in (Honest, protocol.TestOnly):
            with pytest.raises(WidthMismatch, match="shape"):
                run_protocol(nested, strategy(parallel_repeat(toy, 6)), "yes", trials=10, seed=1)
            with pytest.raises(WidthMismatch, match="shape"):
                run_protocol(fiat_shamir(nested, OracleTable(1, 6)),
                             strategy(parallel_repeat(parallel_repeat(toy, 3), 2)), "yes",
                             trials=10, seed=1)

    def test_strategy_for_another_toy_of_the_same_width_still_runs(self):
        p = parallel_repeat(toy_protocol(3), 2)
        st = run_protocol(p, Honest(parallel_repeat(toy_protocol(4), 2)), "yes",
                          trials=10, seed=1)
        assert st.trials == 10


class TestWideSeeds:
    """Root seeds whose entropy runs past SeedSequence's four-word pool."""

    SEEDS = [2**200 + 12345, [1, 2, 3, 4, 5, 6], 2**127 + 5, [2**70, 3]]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_raw_words_match_pcg64(self, seed):
        children = np.random.SeedSequence(seed).spawn(6)
        want = np.array([np.random.PCG64(c).random_raw(9) for c in children]).T
        assert np.array_equal(_outputs(protocol._TrialStreams(seed, 0, 6), 9), want)

    def test_bulk_stats_equal_per_trial(self):
        seed = 2**200 + 12345
        p = parallel_repeat(toy_protocol(4), 3)
        for adv in (Honest(p), protocol.TestOnly(p)):
            bulk = run_protocol(p, adv, "yes", trials=300, seed=seed)
            assert bulk == protocol._run_per_trial(p, adv, "yes", trials=300, seed=seed)


class TestSkip:
    """The jump over outputs no word is read from (words(j, ())) against numpy's
    PCG64 stepped output by output."""

    @staticmethod
    def _numpy_raw(children, k):
        return np.array([np.random.PCG64(c).random_raw(k) for c in children]).T

    @pytest.mark.parametrize("j", [0, 1, 2, 29, 60])
    @pytest.mark.parametrize("seed", TestArrayStreams.SEEDS + TestWideSeeds.SEEDS)
    def test_skip_then_take_matches_pcg64(self, seed, j):
        # the second start's child indices enter the pool as two words
        for start in (0, 2**33 + 5):
            children = [np.random.SeedSequence(seed, spawn_key=(start + i,))
                        for i in range(4)]
            streams = protocol._TrialStreams(seed, start, 4)
            streams.words(j, ())
            assert np.array_equal(_outputs(streams, 5), self._numpy_raw(children, j + 5)[j:])

    @pytest.mark.parametrize("j", [1, 29])
    def test_skip_after_keep(self, j):
        children = np.random.SeedSequence(9).spawn(8)
        want = self._numpy_raw(children, 3 + j + 4)[3 + j:]
        for rows in (np.array([True, False, False, True, True, False, True, False]),
                     np.array([6, 2, 5])):
            streams = protocol._TrialStreams(9, 0, 8)
            _outputs(streams, 3)
            streams.keep(rows)
            streams.words(j, ())
            assert np.array_equal(_outputs(streams, 4), want[:, rows])

    def test_skip_zero_is_a_no_op(self):
        streams, ref = protocol._TrialStreams(10, 0, 6), protocol._TrialStreams(10, 0, 6)
        _outputs(streams, 2)
        _outputs(ref, 2)
        streams.words(0, ())
        for name in ("lo", "hi", "inc_lo", "inc_hi"):
            assert np.array_equal(getattr(streams, name), getattr(ref, name))
        assert np.array_equal(_outputs(streams, 3), _outputs(ref, 3))


class TestFoldedAdvance:
    """Seeding's own step and every output no word is read from wait in one
    pending advance, which the next output read applies; checked against
    numpy's PCG64 output by output."""

    SEEDS = [3, 2**40 + 3, [7, 2**40, 0]]

    @staticmethod
    def _raw(seed, start, rows, k):
        return np.array([np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(start + i,)))
                         .random_raw(k) for i in range(rows)]).T

    @pytest.mark.parametrize("seed", SEEDS)
    def test_skip_right_after_construction(self, seed):
        want = self._raw(seed, 0, 5, 12)
        for j in (1, 7):
            streams = protocol._TrialStreams(seed, 0, 5)
            streams.words(j, ())
            assert streams.pending == 1 + j
            assert np.array_equal(_outputs(streams, 4), want[j:j + 4])
            assert streams.pending == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_skips_in_a_row(self, seed):
        want = self._raw(seed, 2**32 - 2, 4, 16)
        streams = protocol._TrialStreams(seed, 2**32 - 2, 4)
        streams.words(3, ())
        streams.words(4, ())
        assert np.array_equal(_outputs(streams, 2), want[7:9])
        streams.words(1, ())
        streams.words(2, ())
        assert np.array_equal(_outputs(streams, 4), want[12:16])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_skip_then_keep_then_take(self, seed):
        want = self._raw(seed, 0, 6, 9)
        for rows in (np.array([True, False, True, True, False, True]), np.array([4, 0, 5])):
            streams = protocol._TrialStreams(seed, 0, 6)
            streams.words(6, ())
            streams.keep(rows)
            assert np.array_equal(_outputs(streams, 3), want[6:9, rows])

    def test_keep_down_to_zero_rows(self):
        streams = protocol._TrialStreams(12, 0, 5)
        streams.words(4, ())
        streams.keep(np.zeros(5, dtype=bool))
        got = streams.words(3, range(6))
        assert got.shape == (6, 0) and got.dtype == np.uint32

    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_row_stream(self, seed):
        want = self._raw(seed, 17, 1, 10)
        streams = protocol._TrialStreams(seed, 17, 1)
        first = _outputs(streams, 2)
        streams.words(4, ())
        assert np.array_equal(np.vstack([first, _outputs(streams, 4)]), want[[0, 1, 6, 7, 8, 9]])

    def test_full_chunk_at_sixty_outputs(self):
        rows = protocol._TRIAL_CHUNK
        want = self._raw(13, 0, rows, 60)
        assert np.array_equal(_outputs(protocol._TrialStreams(13, 0, rows), 60), want)
        streams = protocol._TrialStreams(13, 0, rows)
        streams.words(59, ())
        assert np.array_equal(_outputs(streams, 1), want[59:])


class TestSeedArgument:
    """run_protocol's seed: an int >= 0 or a sequence, never None or a bool."""

    @staticmethod
    def _cases():
        p = parallel_repeat(toy_protocol(4), 2)
        nested = parallel_repeat(p, 2)
        # bulk: plain toy, cheat and Fiat-Shamir; per trial: a cheat of
        # another width and a nested Fiat-Shamir repetition
        return [(p, Honest(p)), (p, _cheat(5, False)),
                (fiat_shamir(p, OracleTable(1, p.m)), Honest(p)), (p, _cheat(4, False)),
                (fiat_shamir(nested, OracleTable(1, nested.m)), FsGrinder(2, Honest(nested)))]

    @pytest.mark.parametrize("seed", [None, True, False, np.bool_(True)])
    def test_none_and_bools_are_rejected_before_any_trial(self, monkeypatch, seed):
        def refuse(*args, **kwargs):
            raise AssertionError("no trial may run")

        cases = self._cases()
        for name in ("_run_per_trial", "_run_toy_batch", "_run_fs_batch", "_TrialStreams"):
            monkeypatch.setattr(protocol, name, refuse)
        for p, adv in cases:
            with pytest.raises(ProtocolError, match="seed="):
                run_protocol(p, adv, "yes", trials=5, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**70, [3, 4], np.int64(9)])
    def test_ints_and_sequences_still_run(self, seed):
        for p, adv in self._cases():
            st = run_protocol(p, adv, "yes", trials=40, seed=seed)
            assert st == protocol._run_per_trial(p, adv, "yes", trials=40, seed=seed)


class TestRefusedWhenBuilt:
    """Adversaries that fit no protocol are refused where they are built."""

    @pytest.mark.parametrize("strategy", [Honest, protocol.TestOnly])
    def test_strategy_for_no_four_round_protocol(self, strategy):
        fs = fiat_shamir(parallel_repeat(toy_protocol(3), 2), OracleTable(1, 2))
        for bad, name in ((fs, "TwoRoundFS"), (None, "NoneType"), ("p", "str")):
            with pytest.raises(ProtocolError, match=f"built for a {name}, not a FourRoundProtocol"):
                strategy(bad)

    def test_grinder_in_a_grinder(self):
        p = parallel_repeat(toy_protocol(3), 2)
        with pytest.raises(ProtocolError, match="another FsGrinder"):
            FsGrinder(2, FsGrinder(2, Honest(p)))


class TestTypedEntries:
    """A protocol, adversary or strategy of the wrong type is refused before any trial."""

    def test_protocol_of_neither_type(self):
        p = parallel_repeat(toy_protocol(3), 2)
        with pytest.raises(ProtocolError, match="NoneType is no FourRoundProtocol or TwoRoundFS"):
            run_protocol(None, Honest(p), "yes", 5, 1)

    @pytest.mark.parametrize("adversary", [None, "honest", namedtuple("Half", "commit")(len)])
    def test_adversary_without_commit_and_answer(self, adversary):
        p = parallel_repeat(toy_protocol(3), 2)
        with pytest.raises(ProtocolError, match="has no commit and answer"):
            run_protocol(p, adversary, "yes", 5, 1)

    def test_grinder_around_no_strategy(self):
        p = parallel_repeat(toy_protocol(3), 2)
        with pytest.raises(ProtocolError, match="NoneType has no commit and answer"):
            FsGrinder(2, None)
        # an inner swapped out after the build is caught by run_protocol
        grinder = FsGrinder(2, Honest(p))
        grinder.inner = None
        fs = fiat_shamir(p, OracleTable(1, 2))
        with pytest.raises(ProtocolError, match="NoneType has no commit and answer"):
            run_protocol(fs, grinder, "yes", 5, 1)

    @pytest.mark.parametrize("bad", [None, "s", Operator.unitary(np.eye(8))])
    def test_unitary_cheat_of_no_strategy(self, bad):
        with pytest.raises(ProtocolError, match="UnitaryCheat built for a"):
            UnitaryCheat(bad)


class TestBuildersRefuseWhatTheyCannotBuild:
    """Protocol builders and closed forms raise ProtocolError for arguments of the wrong type."""

    def test_fiat_shamir_and_parallel_repeat(self):
        p = parallel_repeat(toy_protocol(3), 2)
        with pytest.raises(ProtocolError, match="over a NoneType"):
            fiat_shamir(p, None)
        with pytest.raises(ProtocolError, match="Fiat-Shamir of a NoneType"):
            fiat_shamir(None, OracleTable(1, 2))
        with pytest.raises(ProtocolError, match="cannot repeat a NoneType"):
            parallel_repeat(None, 2)

    @pytest.mark.parametrize("call", [lambda: protocol.testonly_rate_oracle(None),
                                      lambda: protocol.testonly_rate_oracle(0),
                                      lambda: grinder_rate_oracle(None, 2),
                                      lambda: grinder_rate_oracle(2, 0.5),
                                      lambda: honest_rate_oracle(None, 2),
                                      lambda: honest_rate_oracle(4, True)])
    def test_rate_oracles_follow_the_integer_rule(self, call):
        with pytest.raises(ProtocolError):
            call()

    @pytest.mark.parametrize("call", [lambda h: protocol.testonly_rate_oracle(h),
                                      lambda h: grinder_rate_oracle(h, 2),
                                      lambda h: grinder_rate_oracle(2, h),
                                      lambda h: honest_rate_oracle(h, 2),
                                      lambda h: honest_rate_oracle(2, h)])
    def test_rate_oracles_bound_each_count_by_float_exactness(self, call):
        # a float power reads the count; past 2^53 it would be rounded, past
        # 2^1024 it overflows
        assert 0.0 <= call(2**53) <= 1.0
        for huge in (2**53 + 1, 10**400, 10**5000):
            with pytest.raises(ProtocolError, match="outside 1..9007199254740992"):
                call(huge)


class TestStatsRate:
    """accept_rate is derived from the counts, so it is never stored beside them."""

    def test_rate_is_accepts_over_trials(self):
        p = parallel_repeat(toy_protocol(4), 3)
        st = run_protocol(p, protocol.TestOnly(p), "yes", trials=500, seed=3)
        assert 0 < st.accepts < st.trials
        assert st.accept_rate == st.accepts / st.trials
        assert "accept_rate" not in {f.name for f in fields(Stats)}
        assert replace(st, accepts=st.accepts + 1).accept_rate == (st.accepts + 1) / 500

    def test_equality_reads_the_counts(self):
        counts = {"test": [1, 2], "hadamard": [0, 1]}
        assert Stats(4, 1, counts, 0) == Stats(4, 1, dict(counts), 0)
        assert Stats(4, 1, counts, 0) != Stats(4, 1, counts, 1)
        # the same rate from other counts is another Stats
        assert Stats(4, 2, counts, 0) != Stats(8, 4, counts, 0)


class TestCheatState:
    def test_state_is_the_commitment(self):
        cheat = _cheat(5, False)
        nested = parallel_repeat(parallel_repeat(toy_protocol(4), 2), 3)
        rng = np.random.default_rng(7)
        k, _ = nested.v1("yes", rng)
        y, state = cheat.commit("yes", k, rng)
        assert state == y
        assert [type(v) for v in nested._flat(y)] == [int] * 6


class TestFsTrialOracle:
    def test_per_trial_route_builds_no_protocol_per_trial(self, monkeypatch):
        # each trial draws a bare OracleTable; no TwoRoundFS is rebuilt
        nested = parallel_repeat(parallel_repeat(toy_protocol(4), 2), 2)
        fs = fiat_shamir(nested, OracleTable(1, 4))
        adv = FsGrinder(3, Honest(nested))
        want = run_protocol(fs, adv, "yes", trials=50, seed=8)

        def refuse(self):
            raise AssertionError("a TwoRoundFS was built during the trials")

        monkeypatch.setattr(protocol.TwoRoundFS, "__post_init__", refuse)
        assert run_protocol(fs, adv, "yes", trials=50, seed=8) == want
        assert want.queries > want.trials
