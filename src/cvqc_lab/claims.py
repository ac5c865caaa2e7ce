"""The checked claims of the paper's first three steps, one function each.

Each function returns a Claim (id, bound, measured value; it holds iff
measured <= bound) and the outcome reported beside it: norms, Stats,
sessions.  The CLI rows and the acceptance gate both call them with
their own sizes and seeds; the drawn strategy, state, rng or runs are
inputs, or drawn from a seed the caller passes, so every caller keeps
its own draws.  The library is called through module attributes
(`partition.run_G`, `protocol.run_protocol`), so a tracer that wraps
those names sees every call.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from . import config, effverify, jordan, partition, protocol
from .qsim import StateVector


class Claim(NamedTuple):
    claim_id: str
    bound: float
    measured: float


# ---------------------------------------------------------------------------
# Jordan blocks


def jordan_pair(p0, p1):
    """Rebuild residual and eigenphase error of one projector pair: the
    decomposition and both claims.  The eigenphases are checked against
    the dense eigenvalues of the reflection product, folded to |angle| so
    the -pi/+pi branch cut cannot misalign the sort."""
    dec = jordan.jordan_decompose(p0, p1)
    res = jordan.reconstruct_check(dec, p0, p1)
    residual = max(res.max_p0, res.max_p1, res.max_q, res.gram)
    got = np.sort(np.abs(jordan.eigenphases(dec)))
    w = jordan.reflect(p1).mat @ jordan.reflect(p0).mat
    want = np.sort(np.abs(np.angle(np.linalg.eigvals(w))))
    phase_err = float(np.max(np.abs(got - want))) if len(got) == len(want) else float("inf")
    return dec, (Claim("jordan-reconstruct", config.RESIDUAL_TOL, residual),
                 Claim("jordan-eigenphase", config.EIGPHASE_TOL, phase_err))


# ---------------------------------------------------------------------------
# Partition procedures


def err_grid_avg(strategy, psi, T, mode):
    """One-coordinate branch-defect mass averaged over the gamma grid j/T:
    the claim and each grid point's (params, run_G outcome)."""
    outs = []
    for gamma in partition.gamma_grid(1.0, T):
        params = partition.PartitionParams(1, 1, 1.0, T, float(gamma), mode)
        outs.append((params, partition.run_G(strategy, params, psi)))
    avg = sum(out.psi_err.norm2 for _, out in outs) / T
    return Claim("err-grid-avg", 6.0 / T + 0.02, avg), outs


def branch_split(strategy, psi, params):
    """Exclusivity and contraction of one run_G split, each as (claim,
    params, outcome).  Contraction holds in both modes; exact branch
    orthogonality only for the ideal split, so it is measured there."""
    out = partition.run_G(strategy, params, psi)
    ideal = dataclasses.replace(params, mode="ideal")
    ideal_out = out if params.mode == "ideal" else partition.run_G(strategy, ideal, psi)
    overlap = abs(complex(np.vdot(ideal_out.psi0.amps, ideal_out.psi1.amps)))
    e_b = 0.5 * (out.psi0.norm2 + out.psi1.norm2)
    return ((Claim("branch-exclusivity", config.RESIDUAL_TOL, overlap), ideal, ideal_out),
            (Claim("branch-contraction", 0.5 * psi.norm2 + 1e-9, e_b), params, out))


def low_branch_test_round(strategy, params, rng):
    """Worst test-round acceptance of the low branch at coordinate 1 over
    every challenge with c_1 = 0: the claim and the run_G outcome.  States
    are drawn from rng until the low branch is nonzero (at most 20).  The
    bound is proved for the exact split, so params should be ideal."""
    out = None
    for _ in range(20):
        out = partition.run_G(strategy, params, partition.random_xz_state(rng, strategy))
        if out.psi0.norm2 > 1e-9:
            break
    psi0 = StateVector(strategy.xz_layout(), out.psi0.amps / np.sqrt(out.psi0.norm2))
    m = params.m
    worst = 0.0
    for rest in range(1 << (m - 1)):
        tail = format(rest, f"0{m - 1}b") if m > 1 else ""
        worst = max(worst, partition.test_round_accept_prob(strategy, 1, "0" + tail, psi0))
    return Claim("test-round", 2.0 ** (m - 1) * params.gamma + 1e-6, worst), out


class ChainMeans(NamedTuple):
    """Mean masses of partition_chain over runs; each chain's kept and
    defect masses are summed over its steps."""

    kept: float
    remainder: float
    err: float
    leak: float  # |psi|^2 - kept - remainder: mass no branch or remainder holds


def _chain_means(strategy, psi, runs, T, mode) -> ChainMeans:
    kept = rem = err = leak = 0.0
    count = 0
    for gammas, c in runs:
        chain = partition.partition_chain(strategy, gammas, c, psi, gamma0=1.0, T=T, mode=mode)
        chain_kept = sum(chain.kept_norms2)
        kept += chain_kept
        rem += chain.remainder_norm2
        err += sum(chain.err_norms2)
        leak += psi.norm2 - chain_kept - chain.remainder_norm2
        count += 1
    return ChainMeans(kept / count, rem / count, err / count, leak / count)


def chain_remainder_avg(strategy, psi, gammas, T):
    """Surviving remainder mass averaged over every challenge: the claim
    and the chain means.  The 2^-m average is exact for the ideal split."""
    m = strategy.m
    runs = ((gammas, format(c, f"0{m}b")) for c in range(1 << m))
    means = _chain_means(strategy, psi, runs, T, "ideal")
    return Claim("chain-remainder-avg", 2.0 ** -m + 1e-9, means.remainder), means


def chain_err_grid_avg(strategy, psi, runs, T, mode):
    """Accumulated defect mass averaged over (gammas, c) runs covering the
    gamma-tuple grid: the claim and the chain means."""
    m = strategy.m
    means = _chain_means(strategy, psi, runs, T, mode)
    return Claim("chain-err-grid-avg", 6.0 * m * m / T + 0.05, means.err), means


# ---------------------------------------------------------------------------
# Parallel repetition and Fiat-Shamir


def _rate_claim(claim_id, stats, expect):
    """The measured rate lies within 3 sigma of expect; 1e-12 absorbs
    rounding where sigma is 0."""
    sigma = float(np.sqrt(expect * (1.0 - expect) / stats.trials))
    return Claim(claim_id, 3.0 * sigma + 1e-12, abs(stats.accept_rate - expect))


def testonly_rate(n, m, trials, seed):
    """The test-only prover's rate against the m-fold repetition, 2^-m."""
    rep = protocol.parallel_repeat(protocol.toy_protocol(n), m)
    stats = protocol.run_protocol(rep, protocol.TestOnly(rep), "yes", trials=trials, seed=seed)
    return _rate_claim("testonly-rate", stats, protocol.testonly_rate_oracle(m)), stats


def honest_rate(n, m, trials, seed):
    """The honest prover's rate against the m-fold repetition, (1 - 2^-(n+1))^m."""
    rep = protocol.parallel_repeat(protocol.toy_protocol(n), m)
    stats = protocol.run_protocol(rep, protocol.Honest(rep), "yes", trials=trials, seed=seed)
    return _rate_claim("honest-rate", stats, protocol.honest_rate_oracle(n, m)), stats


def cheat_nonincreasing(n, m, trials, seed, prev_rate):
    """A unitary cheat on the m-fold repetition, its strategy drawn from
    seed: by the product structure more coordinates can only hurt it, so
    its rate is at most prev_rate (the rate at fewer coordinates) + 0.03."""
    rep = protocol.parallel_repeat(protocol.toy_protocol(n), m)
    rng = np.random.default_rng(seed ^ 0xA5A5)
    adv = protocol.UnitaryCheat(
        partition.random_strategy(rng, m=1, x_width=n + 1, z_width=1))
    stats = protocol.run_protocol(rep, adv, "yes", trials=trials, seed=seed)
    return Claim("cheat-nonincreasing", prev_rate + 0.03, stats.accept_rate), stats


def fs_completeness(fs, trials, seed):
    """The honest prover's rejection rate under hashed challenges, at most 1%."""
    stats = protocol.run_protocol(fs, protocol.Honest(fs.base), "yes", trials=trials, seed=seed)
    return Claim("fs-completeness", 0.01, 1.0 - stats.accept_rate), stats


def grinder_rate(fs, q, trials, seed):
    """A test-only prover grinding q commitments, 1 - (1 - 2^-m)^q."""
    adv = protocol.FsGrinder(q, protocol.TestOnly(fs.base))
    stats = protocol.run_protocol(fs, adv, "yes", trials=trials, seed=seed)
    return _rate_claim("grinder-rate", stats, protocol.grinder_rate_oracle(fs.base.m, q)), stats


def fs_deterministic(fs, first, seed):
    """Hashed challenges make reruns reproducible, not just close: the
    honest run at seed repeats first exactly.  Also returns the rerun."""
    again = protocol.run_protocol(fs, protocol.Honest(fs.base), "yes",
                                  trials=first.trials, seed=seed)
    return Claim("fs-deterministic", 0.0, 0.0 if again == first else 1.0), again


# ---------------------------------------------------------------------------
# Efficient verifier


def _session(suite, inner, flow, seed, time_bound):
    runner = (effverify.run_two_round_fs if flow == "two-round"
              else effverify.run_four_round)
    return runner(suite, inner, "yes", prover="honest", seed=seed, time_bound=time_bound)


def eff_completeness(suite, inner, flow, seed, time_bound):
    """An honest session on a yes-instance accepts: the claim, the verdict
    and the session."""
    verdict, ses = _session(suite, inner, flow, seed, time_bound)
    return Claim("eff-completeness", 0.0, 0.0 if verdict else 1.0), verdict, ses


def eff_prover_linear(runs, flow):
    """Prover work grows at least linearly in the time bound (slope of log
    prover_ops over log T at least 0.9) over one honest session per
    (suite, inner, seed, time_bound) run: the claim and each session's
    (time_bound, verdict, cost report)."""
    sweep = []
    for suite, inner, seed, time_bound in runs:
        verdict, ses = _session(suite, inner, flow, seed, time_bound)
        sweep.append((time_bound, verdict, effverify.cost_report(ses)))
    logs_t = np.log([float(tb) for tb, _, _ in sweep])
    logs_p = np.log([float(r.prover_ops) for _, _, r in sweep])
    slope = float(np.polyfit(logs_t, logs_p, 1)[0])
    return Claim("eff-prover-linear", 0.0, max(0.0, 0.9 - slope)), sweep


def eff_verifier_flat(sweep):
    """Verifier work stays flat in the time bound: verifier_ops grows by at
    most 16 from the first to the last of eff_prover_linear's sweep."""
    v_delta = sweep[-1][2].verifier_ops - sweep[0][2].verifier_ops
    return Claim("eff-verifier-flat", 16.0, float(v_delta))
