"""Acceptance gate: every shipped guarantee at its stated tolerance.

Each criterion is one test with fixed seeds and a wall-clock budget.
A single summary line per criterion is printed (visible under
`pytest -s` or in failure output); the asserts carry the details.
When CVQC_LAB_ACCEPTANCE_JSON names a file, each criterion also appends
one JSON line to it: number, label, elapsed_s, budget_s, headroom
(budget over elapsed) and passed.
"""

import gc
import json
import os
import time

import numpy as np
import pytest

from cvqc_lab import effverify, jordan, partition, protocol
from cvqc_lab.partition import random_xz_state
from cvqc_lab.qsim import StateVector


@pytest.fixture(autouse=True)
def _fresh_heap():
    # budgets time each criterion's own work, not garbage left by
    # whatever ran before it
    gc.collect()


def _report(num, label, failures, elapsed, budget):
    passed = not failures and elapsed < budget
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:>2} [{status}] {label}: {elapsed:.2f}s (budget {budget:.0f}s)")
    path = os.environ.get("CVQC_LAB_ACCEPTANCE_JSON")
    if path:
        row = {"criterion": num, "label": label, "elapsed_s": round(elapsed, 4),
               "budget_s": budget, "headroom": round(budget / elapsed, 2),
               "passed": passed}
        with open(path, "a") as fh:
            fh.write(json.dumps(row) + "\n")
    assert not failures, failures[:5]
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_01_jordan_suite():
    """200 random projector pairs: rebuild residuals and eigenphases."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    failures = []
    for k in range(200):
        dim = int(rng.integers(2, 13))
        p0 = jordan.random_projector(rng, dim, int(rng.integers(1, dim)))
        p1 = jordan.random_projector(rng, dim, int(rng.integers(1, dim)))
        dec = jordan.jordan_decompose(p0, p1)
        res = jordan.reconstruct_check(dec, p0, p1)
        worst = max(res.max_p0, res.max_p1, res.max_q, res.gram)
        if worst > 1e-8:
            failures.append(f"pair {k}: reconstruction residual {worst:.3e}")
        # independent dense route: eigenvalues of the reflection product,
        # folded to |angle| so the branch cut cannot misalign the sort
        got = np.sort(np.abs(jordan.eigenphases(dec)))
        eye = np.eye(dim)
        w = (2.0 * p1 - eye) @ (2.0 * p0 - eye)
        want = np.sort(np.abs(np.angle(np.linalg.eigvals(w))))
        if len(got) != len(want):
            failures.append(f"pair {k}: {len(got)} phases vs dense {len(want)}")
        elif float(np.max(np.abs(got - want))) > 1e-7:
            failures.append(f"pair {k}: phase error {np.max(np.abs(got - want)):.3e}")
    _report(1, "jordan reconstruction + eigenphases", failures,
            time.perf_counter() - t0, 10)


def test_criterion_02_partition_grid_average():
    """50 random 3-qubit strategies, exhaustive gamma grid at T=16."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    T = 16
    bound = 6.0 / T + 0.02
    failures = []
    for k in range(50):
        s = partition.random_strategy(rng, m=1, x_width=1, z_width=1)
        psi = random_xz_state(rng, s)
        # the difference vector psi - psi0 - psi1 vanishes by construction
        # (per-block branch weights sum to 1), so the same bound is also
        # checked against the branch-mass residual, the quantity that is
        # genuinely nonzero under the phase-estimation kernel
        total = 0.0
        total_resid = 0.0
        for j in range(1, T + 1):
            p = partition.PartitionParams(1, 1, 1.0, T, j / T, "kernel")
            out = partition.run_G(s, p, psi)
            total += out.psi_err.norm2
            total_resid += out.branch_probs[2]
        if total / T > bound:
            failures.append(f"strategy {k}: E_gamma err {total / T:.4f} > {bound}")
        if total_resid / T > bound:
            failures.append(f"strategy {k}: E_gamma resid {total_resid / T:.4f} > {bound}")
    _report(2, "grid-average defect mass <= 6/T + 0.02", failures,
            time.perf_counter() - t0, 60)


def test_criterion_03_branch_claims():
    """Exclusivity, contraction, and the fixed-challenge test-round bound."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(3003)
    failures = []
    for m in (1, 2, 3):
        gamma = 0.75 * 3 / 4
        params = partition.PartitionParams(m, 1, 0.75, 4, gamma, "ideal")
        for k in range(8):
            s = partition.random_strategy(rng, m=m, x_width=1, z_width=1)
            psi = random_xz_state(rng, s)
            out = partition.run_G(s, params, psi)
            overlap = abs(complex(np.vdot(out.psi0.amps, out.psi1.amps)))
            if overlap > 1e-8:
                failures.append(f"m={m} k={k}: branch overlap {overlap:.3e}")
            e_b = 0.5 * (out.psi0.norm2 + out.psi1.norm2)
            if e_b > 0.5 * psi.norm2 + 1e-9:
                failures.append(f"m={m} k={k}: contraction {e_b:.6f}")
        for k in range(8):
            s = partition.random_strategy(rng, m=m, x_width=1, z_width=1,
                                          controlled=True)
            out = None
            for _ in range(20):
                psi = random_xz_state(rng, s)
                out = partition.run_G(s, params, psi)
                if out.psi0.norm2 > 1e-9:
                    break
            psi0 = StateVector(s.xz_layout(),
                               out.psi0.amps / np.sqrt(out.psi0.norm2))
            for rest in range(1 << (m - 1)):
                tail = format(rest, f"0{m - 1}b") if m > 1 else ""
                pr = partition.test_round_accept_prob(s, 1, "0" + tail, psi0)
                if pr > 2.0 ** (m - 1) * gamma + 1e-6:
                    failures.append(f"m={m} k={k} c=0{tail}: {pr:.6f}")
    _report(3, "branch exclusivity/contraction/test-round", failures,
            time.perf_counter() - t0, 60)


def test_criterion_04_extractor_formula():
    """Monte-Carlo extraction success against the closed form."""
    t0 = time.perf_counter()
    failures = []
    if partition.ext_success_formula(0.5, 2) != 0.75:
        failures.append("closed form at p=1/2, N=2 is not exactly 0.75")
    pp = partition.PartitionParams(1, 1, 1.0, 4, 0.25)
    for pi, p in enumerate((0.1, 0.3, 0.5, 0.9)):
        s = partition.single_block_strategy(p)
        amps = np.zeros(4, dtype=np.complex128)
        amps[0] = 1.0
        st = StateVector(s.layout(), amps)
        for ni, n in enumerate((1, 2, 10, 50)):
            rng = np.random.default_rng(4000 + 10 * pi + ni)
            wins = sum(partition.extract(s, pp, st, n, rng).success
                       for _ in range(10_000))
            err = abs(wins / 10_000 - partition.ext_success_formula(p, n))
            if err > 0.02:
                failures.append(f"p={p} N={n}: |mc - formula| = {err:.4f}")
    _report(4, "extractor monte carlo vs closed form", failures,
            time.perf_counter() - t0, 30)


def test_criterion_05_chain_averages():
    """Challenge-average remainder and full gamma-tuple grid average."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(5005)
    failures = []
    for m in (1, 2, 3, 4):
        for k in range(3):
            s = partition.random_strategy(rng, m=m, x_width=1, z_width=1)
            grid = partition.gamma_grid(1.0, 8)
            gam = tuple(float(grid[int(v)]) for v in rng.integers(0, 8, size=m))
            psi = random_xz_state(rng, s)
            total = sum(
                partition.partition_chain(s, gam, format(c, f"0{m}b"), psi,
                                          gamma0=1.0, T=8).remainder_norm2
                for c in range(1 << m))
            if total / (1 << m) > 2.0 ** -m + 1e-9:
                failures.append(f"m={m} k={k}: E_c rem {total / (1 << m):.8f}")
    m, T = 3, 16
    s = partition.random_strategy(np.random.default_rng(5050), m=m,
                                  x_width=1, z_width=1)
    psi = random_xz_state(np.random.default_rng(5051), s)
    rng_c = np.random.default_rng(5052)
    grid = [float(g) for g in partition.gamma_grid(1.0, T)]
    total = 0.0
    total_resid = 0.0
    for g1 in grid:
        for g2 in grid:
            for g3 in grid:
                c = format(int(rng_c.integers(1 << m)), f"0{m}b")
                ch = partition.partition_chain(s, (g1, g2, g3), c, psi,
                                               gamma0=1.0, T=T, mode="kernel")
                total += sum(ch.err_norms2)
                # mass the chain hands to neither branch nor remainder:
                # the nonzero leakage under the phase-estimation kernel
                total_resid += psi.norm2 - sum(ch.kept_norms2) - ch.remainder_norm2
    chain_bound = 6.0 * m * m / T + 0.05
    avg = total / T**3
    if avg > chain_bound:
        failures.append(f"gamma-tuple grid average {avg:.4f}")
    if total_resid / T**3 > chain_bound:
        failures.append(f"gamma-tuple grid residual {total_resid / T**3:.4f}")
    _report(5, "chain remainder and grid-average defect", failures,
            time.perf_counter() - t0, 120)


def test_criterion_06_cauchy_schwarz():
    """500 random decomposition/projector instances never violate the bound."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(6006)
    failures = []
    for k in range(500):
        dim = int(rng.integers(3, 11))
        proj = jordan.random_projector(rng, dim, int(rng.integers(1, dim)))
        pieces = [rng.normal(size=dim) + 1j * rng.normal(size=dim)
                  for _ in range(int(rng.integers(1, 7)))]
        lhs, rhs = partition.cs_bound(pieces, proj)
        if rhs - lhs < -1e-9:
            failures.append(f"instance {k}: slack {rhs - lhs:.3e}")
    _report(6, "measurement cauchy-schwarz slack >= -1e-9", failures,
            time.perf_counter() - t0, 5)


def test_criterion_07_repetition_sweep():
    """Test-only rate tracks 2^-m at 1e5 trials; honest stays complete."""
    t0 = time.perf_counter()
    failures = []
    for m in range(1, 9):
        p = protocol.parallel_repeat(protocol.toy_protocol(12), m)
        st = protocol.run_protocol(p, protocol.TestOnly(p), "yes",
                                   trials=100_000, seed=7000 + m)
        expect = protocol.testonly_rate_oracle(m)
        sigma = float(np.sqrt(expect * (1.0 - expect) / 100_000))
        if abs(st.accept_rate - expect) > 3.0 * sigma:
            failures.append(f"m={m}: rate {st.accept_rate:.6f} vs {expect:.6f} "
                            f"(3 sigma = {3 * sigma:.6f})")
    p20 = protocol.parallel_repeat(protocol.toy_protocol(12), 20)
    honest = protocol.run_protocol(p20, protocol.Honest(p20), "yes",
                                   trials=20_000, seed=7020)
    if honest.accept_rate < 0.99:
        failures.append(f"honest m=20 completeness {honest.accept_rate:.5f}")
    _report(7, "repetition sweep vs exact rates", failures,
            time.perf_counter() - t0, 60)


def test_criterion_08_fiat_shamir():
    """Hashed-challenge completeness, grinding formula, and determinism."""
    t0 = time.perf_counter()
    failures = []
    m, n = 4, 12
    base = protocol.parallel_repeat(protocol.toy_protocol(n), m)
    fs = protocol.fiat_shamir(base, protocol.OracleTable(8001, m))
    honest = protocol.run_protocol(fs, protocol.Honest(base), "yes",
                                   trials=20_000, seed=8100)
    if honest.accept_rate < 0.99:
        failures.append(f"completeness {honest.accept_rate:.5f}")
    for q in (1, 4, 16):
        st = protocol.run_protocol(fs, protocol.FsGrinder(q, protocol.TestOnly(base)),
                                   "yes", trials=20_000, seed=8200 + q)
        expect = protocol.grinder_rate_oracle(m, q)
        sigma = float(np.sqrt(expect * (1.0 - expect) / 20_000))
        if abs(st.accept_rate - expect) > 3.0 * sigma:
            failures.append(f"budget {q}: rate {st.accept_rate:.5f} vs {expect:.5f}")
    a = protocol.run_protocol(fs, protocol.Honest(base), "yes", trials=2_000, seed=8300)
    b = protocol.run_protocol(fs, protocol.Honest(base), "yes", trials=2_000, seed=8300)
    if a != b:
        failures.append("same-seed runs under the derived challenge differ")
    _report(8, "fiat-shamir completeness/grinding/determinism", failures,
            time.perf_counter() - t0, 60)


def test_criterion_09_efficient_verifier():
    """100 honest sessions accept; cost asymmetry has the right shape."""
    t0 = time.perf_counter()
    failures = []
    suite = effverify.make_stub_suite(3)
    inner = effverify.toy_inner(12, 4, fs_seed=11)
    accepts = sum(
        effverify.run_two_round_fs(suite, inner, "yes", seed=s, time_bound=4096)[0]
        for s in range(100))
    if accepts != 100:
        failures.append(f"honest sessions accepted {accepts}/100")
    bounds = (2**8, 2**10, 2**12)
    v_ops, p_ops = [], []
    for tb in bounds:
        _, ses = effverify.run_two_round_fs(suite, inner, "yes", seed=0,
                                            time_bound=tb)
        rep = effverify.cost_report(ses)
        v_ops.append(rep.verifier_ops)
        p_ops.append(rep.prover_ops)
    logs_t = np.log(np.asarray(bounds, dtype=float))
    b_poly = float(np.polyfit(np.log(logs_t), np.log(v_ops), 1)[0])
    slope = float(np.polyfit(logs_t, np.log(p_ops), 1)[0])
    if b_poly > 3.0:
        failures.append(f"verifier polylog exponent {b_poly:.3f} > 3")
    if slope < 0.9:
        failures.append(f"prover growth exponent {slope:.3f} < 0.9")
    _report(9, "efficient-verifier composition and cost split", failures,
            time.perf_counter() - t0, 60)


def test_criterion_10_salting_and_statement_integrity():
    """Mutated statements and foreign salts are rejected without exception."""
    t0 = time.perf_counter()
    failures = []
    suite = effverify.make_stub_suite(17)
    inner = effverify.toy_inner(12, 4, fs_seed=11)
    _, ses = effverify.run_two_round_fs(suite, inner, "yes", seed=5,
                                        time_bound=1024)
    salted = suite.snark_oracle.salted(ses.z)
    if not suite.snark.verify(salted, ses.statement, ses.proof):
        failures.append("honest proof rejected before mutation")
    total = rejected = 0
    for pos in range(0, len(ses.statement), 7):
        mutated = bytearray(ses.statement)
        mutated[pos] ^= 0x01
        total += 1
        rejected += not suite.snark.verify(salted, bytes(mutated), ses.proof)
    rng = np.random.default_rng(1010)
    for _ in range(25):
        z2 = rng.bytes(32)
        if z2 == ses.z:
            continue
        total += 1
        rejected += not suite.snark.verify(suite.snark_oracle.salted(z2),
                                           ses.statement, ses.proof)
    for mode, seed in (("mismatched-statement", 6), ("rejecting-e", 7)):
        total += 1
        rejected += not effverify.run_two_round_fs(suite, inner, "yes",
                                                   prover=mode, seed=seed,
                                                   time_bound=1024)[0]
    if rejected != total:
        failures.append(f"only {rejected}/{total} deviations rejected")
    _report(10, "salting isolation + statement integrity", failures,
            time.perf_counter() - t0, 10)
