"""The three workloads: their inputs, operations and checks.

An operation is one checked call into a public entry point of cvqc_lab:
`call` runs it and is the only part timed, `check` compares its result
with the reference values of checks.py and returns the discrete results
that go into the round digest.  `trials` counts the Monte Carlo trials
the call performs (run_protocol trials, extract calls, run_H calls,
efficient-verifier sessions); deterministic work has none.

Every call looks its entry point up on the module at call time
(`protocol.run_protocol`, not a name bound at import), so the traced run
sees it through the tracer's wrappers.  Inputs depend only on the seed,
and every round runs the same operations on the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cvqc_lab import cli, effverify, jordan, partition, protocol
from cvqc_lab.qsim import StateVector

import checks
from checks import require


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple]
    trials: int = 0


def _seed_stream(seed: int, workload: str) -> Callable[[], int]:
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    return lambda: int(rng.integers(1 << 32))


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def _haar_projector(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q[:, :rank] @ q[:, :rank].conj().T


def _f(x: float) -> str:
    """A float for the round digest, at a precision that float noise cannot move."""
    return format(float(x), ".6e")


# ---------------------------------------------------------------------------
# sweep: the interactive protocol under parallel repetition

SWEEP_N = 12
SWEEP_TRIALS = 10_000
CHEAT_N = 4
CHEAT_TRIALS = 300
NESTED_TRIALS = 1_000


def _protocol_op(name, p, adversary, x, trials, seed, expect) -> Op:
    def call():
        return protocol.run_protocol(p, adversary, x, trials=trials, seed=seed)

    def check(st):
        checks.check_count(name, st.accepts, trials, expect)
        if not isinstance(p, protocol.TwoRoundFS):
            require(st.queries == 0, f"{name}: {st.queries} oracle queries")
        rounds = tuple(sorted((k, tuple(v)) for k, v in st.per_round_counts.items()))
        return (st.trials, st.accepts, st.queries, rounds)

    return Op(name, call, check, trials)


def build_sweep(seed: int, scratch: str) -> list[Op]:
    next_seed = _seed_stream(seed, "sweep")
    ops = []
    for m in range(1, 9):
        p = protocol.parallel_repeat(protocol.toy_protocol(SWEEP_N), m)
        ops.append(_protocol_op(f"testonly m={m}", p, protocol.TestOnly(p), "yes",
                                SWEEP_TRIALS, next_seed(), checks.testonly_rate(m)))
    p = protocol.parallel_repeat(protocol.toy_protocol(SWEEP_N), 20)
    ops.append(_protocol_op("honest m=20", p, protocol.Honest(p), "yes", SWEEP_TRIALS,
                            next_seed(), checks.honest_rate(SWEEP_N, 20)))
    # on a no-instance every Hadamard round rejects, so honesty wins 2^-m
    p = protocol.parallel_repeat(protocol.toy_protocol(SWEEP_N), 4)
    ops.append(_protocol_op("honest no-instance m=4", p, protocol.Honest(p), "no",
                            SWEEP_TRIALS, next_seed(), checks.testonly_rate(4)))
    strategy = partition.random_strategy(np.random.default_rng(next_seed()), m=1,
                                         x_width=CHEAT_N + 1, z_width=1)
    per_coordinate = checks.cheat_coordinate_accept(strategy.u.mat, CHEAT_N, 1)
    cheat = protocol.UnitaryCheat(strategy)
    for m in range(1, 5):
        p = protocol.parallel_repeat(protocol.toy_protocol(CHEAT_N), m)
        ops.append(_protocol_op(f"cheat n={CHEAT_N} m={m}", p, cheat, "yes",
                                CHEAT_TRIALS, next_seed(), per_coordinate ** m))
    nested = protocol.parallel_repeat(protocol.parallel_repeat(protocol.toy_protocol(4), 2), 3)
    ops.append(_protocol_op("testonly nested 3x2", nested, protocol.TestOnly(nested), "yes",
                            NESTED_TRIALS, next_seed(), checks.testonly_rate(6)))
    return ops


# ---------------------------------------------------------------------------
# hashed: Fiat-Shamir and the efficient verifier

FS_N, FS_M = 12, 4
FS_HONEST_TRIALS = 2_000
GRIND_TRIALS = 1_000
GRIND_BUDGETS = (1, 2, 4, 8, 16)
RERUN_TRIALS = 500
TIME_BOUNDS = (256, 1024, 4096, 16384, 65536)
SESSIONS_PER_BOUND = 3
DEVIATION_TIME_BOUND = 1024
FOREIGN_SALTS = 25
CLI_SESSIONS = 20
FLOWS = (("two-round", "run_two_round_fs"), ("four-round", "run_four_round"))


def _fs_honest_op(fs, base, seed) -> Op:
    inner = _protocol_op("fs honest", fs, protocol.Honest(base), "yes", FS_HONEST_TRIALS,
                         seed, checks.honest_rate(FS_N, FS_M))

    def check(st):
        require(st.queries == st.trials, f"fs honest: {st.queries} queries for "
                f"{st.trials} trials")
        return inner.check(st)

    return Op(inner.name, inner.call, check, inner.trials)


def _rerun_op(fs, base, seed) -> Op:
    def call():
        return tuple(protocol.run_protocol(fs, protocol.Honest(base), "yes",
                                           trials=RERUN_TRIALS, seed=seed)
                     for _ in range(2))

    def check(pair):
        require(pair[0] == pair[1], f"fs rerun: same-seed Stats differ: {pair}")
        return (pair[0].accepts, pair[0].queries)

    return Op("fs rerun", call, check, 2 * RERUN_TRIALS)


def _sessions_op(flow, runner_name, seeds) -> Op:
    def call():
        runner = getattr(effverify, runner_name)
        out = []
        for tb, tb_seeds in zip(TIME_BOUNDS, seeds):
            for s in tb_seeds:
                suite = effverify.make_stub_suite(s)
                inner = effverify.toy_inner(FS_N, FS_M, fs_seed=s ^ 0x7E57)
                verdict, ses = runner(suite, inner, "yes", prover="honest", seed=s,
                                      time_bound=tb)
                out.append((tb, verdict, effverify.cost_report(ses)))
        return out

    def check(out):
        require(all(v for _, v, _ in out), f"{flow}: honest sessions rejected: "
                f"{[tb for tb, v, _ in out if not v]}")
        first = [next(r for tb, _, r in out if tb == bound) for bound in TIME_BOUNDS]
        checks.check_cost_shape(flow, TIME_BOUNDS, [r.verifier_ops for r in first],
                                [r.prover_ops for r in first])
        return tuple((tb, v, r.verifier_ops, r.prover_ops, r.message_bytes)
                     for tb, v, r in out)

    return Op(f"sessions {flow}", call, check, len(TIME_BOUNDS) * SESSIONS_PER_BOUND)


def _deviation_op(seeds, salts) -> Op:
    suite_seed, session_seed = seeds[0], seeds[1]

    def call():
        suite = effverify.make_stub_suite(suite_seed)
        inner = effverify.toy_inner(FS_N, FS_M, fs_seed=suite_seed ^ 0x7E57)
        _, ses = effverify.run_two_round_fs(suite, inner, "yes", seed=session_seed,
                                            time_bound=DEVIATION_TIME_BOUND)
        salted = suite.snark_oracle.salted(ses.z)
        honest = suite.snark.verify(salted, ses.statement, ses.proof)
        mutated = []
        for pos in range(0, len(ses.statement), 7):
            flipped = bytearray(ses.statement)
            flipped[pos] ^= 0x01
            mutated.append(suite.snark.verify(salted, bytes(flipped), ses.proof))
        foreign = [suite.snark.verify(suite.snark_oracle.salted(z), ses.statement, ses.proof)
                   for z in salts if z != ses.z]
        deviants = [getattr(effverify, runner)(suite, inner, "yes", prover=mode,
                                               seed=s, time_bound=DEVIATION_TIME_BOUND)[0]
                    for (_, runner), s in zip(FLOWS, seeds[2:])
                    for mode in ("mismatched-statement", "rejecting-e")]
        return honest, mutated, foreign, deviants

    def check(result):
        honest, mutated, foreign, deviants = result
        require(honest, "deviations: the honest proof does not verify")
        require(not any(mutated), f"deviations: {sum(mutated)}/{len(mutated)} "
                "mutated statements accepted")
        require(len(foreign) == len(salts) and not any(foreign),
                f"deviations: {sum(foreign)}/{len(foreign)} foreign salts accepted")
        require(not any(deviants), f"deviations: deviating provers accepted: {deviants}")
        return (len(mutated), len(foreign), len(deviants))

    return Op("deviations", call, check)


def _cli_op(seed, scratch) -> Op:
    def call():
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=scratch) as tmp:
            out = os.path.join(tmp, "effverify-demo.json")
            argv = ["effverify-demo", "--seed", str(seed), "--format", "json",
                    "--trials", str(CLI_SESSIONS), "--out", out]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"cvqc-lab {' '.join(argv[:-2])} exited with {code}")
            with open(out, encoding="utf-8") as fh:
                payload = json.load(fh)
            return payload, cli.render_summary(out)

    def check(result):
        payload, table = result
        checks.check_data_file("effverify-demo", payload, table, CLI_SESSIONS + 2)
        require(len(payload["sessions"]) == CLI_SESSIONS,
                f"effverify-demo: {len(payload['sessions'])} session dumps")
        return tuple(row["verdict"] for row in payload["rows"])

    return Op("cli effverify-demo", call, check)


def build_hashed(seed: int, scratch: str) -> list[Op]:
    next_seed = _seed_stream(seed, "hashed")
    base = protocol.parallel_repeat(protocol.toy_protocol(FS_N), FS_M)
    fs = protocol.fiat_shamir(base, protocol.OracleTable(next_seed(), FS_M))
    ops = [_fs_honest_op(fs, base, next_seed())]
    for q in GRIND_BUDGETS:
        ops.append(_protocol_op(f"fs grinder q={q}", fs,
                                protocol.FsGrinder(q, protocol.TestOnly(base)), "yes",
                                GRIND_TRIALS, next_seed(), checks.grinder_rate(FS_M, q)))
    ops.append(_rerun_op(fs, base, next_seed()))
    for flow, runner in FLOWS:
        seeds = [[next_seed() for _ in range(SESSIONS_PER_BOUND)] for _ in TIME_BOUNDS]
        ops.append(_sessions_op(flow, runner, seeds))
    salt_rng = np.random.default_rng(next_seed())
    salts = [salt_rng.bytes(effverify.SALT_LEN) for _ in range(FOREIGN_SALTS)]
    ops.append(_deviation_op([next_seed() for _ in range(4)], salts))
    ops.append(_cli_op(next_seed(), scratch))
    return ops


# ---------------------------------------------------------------------------
# spectral: Jordan blocks and the partition procedures

COLD_MS = (1, 2, 3, 4)
JORDAN_DIMS = (16, 32, 48, 64)
JORDAN_PAIRS_PER_DIM = 3
GRID_T = 32
GRID_MS = (1, 2, 3)
CHAIN_MS = (2, 3)
CHAIN_TUPLES = 8
RUN_H_CALLS = 250
EXTRACT_PS = (0.1, 0.3, 0.5, 0.9)
EXTRACT_NS = (1, 2, 10, 50)
EXTRACT_CALLS = 500


def _mid_params(m: int, mode: str = "ideal") -> partition.PartitionParams:
    return partition.PartitionParams(m, 1, 1.0, GRID_T, (GRID_T // 2) / GRID_T, mode)


def _cold_op(m, strategy_seed, amps) -> Op:
    """A new strategy object: spectral data and Jordan blocks start cold."""
    params = _mid_params(m)

    def call():
        s = partition.random_strategy(np.random.default_rng(strategy_seed), m=m,
                                      x_width=1, z_width=1)
        return partition.run_G(s, params, StateVector(s.xz_layout(), amps))

    def check(out):
        checks.check_split(f"cold m={m}", amps, out.psi0.amps, out.psi1.amps, True)
        return tuple(_f(v) for v in out.branch_probs)

    return Op(f"cold run_G m={m}", call, check)


def _jordan_op(dim, p0, p1) -> Op:
    def call():
        return jordan.jordan_decompose(p0, p1)

    def check(dec):
        checks.check_jordan(dec, p0, p1)
        return (len(dec.blocks2d), len(dec.blocks1d))

    return Op(f"jordan dim={dim}", call, check)


def _grid_op(m, s, psi, i, mode) -> Op:
    label = f"grid m={m} i={i} {mode}"

    def call():
        return [partition.run_G(s, partition.PartitionParams(m, i, 1.0, GRID_T, j / GRID_T,
                                                             mode), psi)
                for j in range(1, GRID_T + 1)]

    def check(outs):
        for out in outs:
            checks.check_split(label, psi.amps, out.psi0.amps, out.psi1.amps,
                               mode == "ideal")
        checks.check_grid_average(label, [o.psi_err.norm2 for o in outs], GRID_T)
        checks.check_grid_average(label, [o.branch_probs[2] for o in outs], GRID_T)
        return tuple(_f(o.psi1.norm2) for o in outs)

    return Op(label, call, check)


def _chain_op(m, s, psi, gamma_tuples) -> Op:
    challenges = [format(c, f"0{m}b") for c in range(1 << m)]

    def call():
        return [[partition.partition_chain(s, gammas, c, psi, gamma0=1.0, T=GRID_T)
                 for c in challenges] for gammas in gamma_tuples]

    def check(per_tuple):
        for gammas, chains in zip(gamma_tuples, per_tuple):
            label = f"chain m={m} gammas={gammas}"
            checks.check_chain_average(label, m, [ch.remainder_norm2 for ch in chains],
                                       psi.norm2)
            for ch in chains:
                held = sum(ch.kept_norms2) + ch.remainder_norm2
                require(held <= psi.norm2 + 1e-9, f"{label}: chain holds {held:.12f}")
        return tuple(_f(ch.remainder_norm2) for chains in per_tuple for ch in chains)

    return Op(f"chain m={m}", call, check)


def _run_h_op(s, psi, gammas, c, seed) -> Op:
    """run_H samples the outcome classes whose exact masses partition_chain gives."""
    label = f"run_H c={c}"

    def call():
        chain = partition.partition_chain(s, gammas, c, psi, gamma0=1.0, T=GRID_T)
        rng = np.random.default_rng(seed)
        outs = [partition.run_H(s, gammas, c, psi, rng, gamma0=1.0, T=GRID_T)
                for _ in range(RUN_H_CALLS)]
        return chain, outs

    def check(result):
        chain, outs = result
        counts: dict = {}
        for o in outs:
            key = f"stop{o.stop_index}" if isinstance(o, partition.HBranch) else type(o).__name__
            counts[key] = counts.get(key, 0) + 1
        probs = {f"stop{i}": p / psi.norm2 for i, p in enumerate(chain.kept_norms2, 1)}
        probs["HRemainder"] = chain.remainder_norm2 / psi.norm2
        probs["HAbort"] = 1.0 - sum(probs.values())
        checks.check_outcome_counts(label, counts, probs, RUN_H_CALLS)
        return tuple(sorted(counts.items()))

    return Op(label, call, check, RUN_H_CALLS)


def _extract_op(p, n_rounds, s, seed) -> Op:
    label = f"extract p={p} N={n_rounds}"
    params = partition.PartitionParams(1, 1, 1.0, 4, 0.25)
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = 1.0
    state = StateVector(s.layout(), amps)

    def call():
        rng = np.random.default_rng(seed)
        return [partition.extract(s, params, state, n_rounds, rng)
                for _ in range(EXTRACT_CALLS)]

    def check(outs):
        wins = [o for o in outs if o.success]
        require(all(o.a_i == "0" for o in wins), f"{label}: a rejected answer came back")
        checks.check_count(label, len(wins), EXTRACT_CALLS,
                           checks.extractor_success(p, n_rounds))
        return (len(wins), sum(o.rounds_used for o in outs))

    return Op(label, call, check, EXTRACT_CALLS)


def build_spectral(seed: int, scratch: str) -> list[Op]:
    next_seed = _seed_stream(seed, "spectral")
    rng = np.random.default_rng(next_seed())
    ops = [_cold_op(m, next_seed(), _unit_vector(rng, 1 << (m + 1))) for m in COLD_MS]
    for dim in JORDAN_DIMS:
        for _ in range(JORDAN_PAIRS_PER_DIM):
            p0 = _haar_projector(rng, dim, int(rng.integers(1, dim)))
            p1 = _haar_projector(rng, dim, int(rng.integers(1, dim)))
            ops.append(_jordan_op(dim, p0, p1))
    # strategies below persist across rounds: after the warm-up round their
    # spectral data and extractor frames are cached
    warm = {}
    for m in sorted(set(GRID_MS) | set(CHAIN_MS)):
        s = partition.random_strategy(rng, m=m, x_width=1, z_width=1)
        warm[m] = (s, StateVector(s.xz_layout(), _unit_vector(rng, s.xz_dim)))
    for m in GRID_MS:
        s, psi = warm[m]
        ops += [_grid_op(m, s, psi, i, mode) for i in range(1, m + 1)
                for mode in ("ideal", "kernel")]
    grid = partition.gamma_grid(1.0, GRID_T)
    for m in CHAIN_MS:
        s, psi = warm[m]
        tuples = [tuple(float(grid[j]) for j in rng.integers(0, GRID_T, size=m))
                  for _ in range(CHAIN_TUPLES)]
        ops.append(_chain_op(m, s, psi, tuples))
    s, psi = warm[2]
    gammas = tuple(float(grid[j]) for j in rng.integers(0, GRID_T, size=2))
    ops += [_run_h_op(s, psi, gammas, format(c, "02b"), next_seed()) for c in range(4)]
    for p in EXTRACT_PS:
        s = partition.single_block_strategy(p)
        ops += [_extract_op(p, n, s, next_seed()) for n in EXTRACT_NS]
    return ops


WORKLOADS = {
    "sweep": build_sweep,
    "hashed": build_hashed,
    "spectral": build_spectral,
}
