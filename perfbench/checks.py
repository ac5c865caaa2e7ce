"""Independent reference values and the checks that compare against them.

Nothing here calls cvqc_lab: every expected value is a closed form or a
dense numpy computation written out in this file, so a fault in the
program cannot also move the value it is checked against.  Each check
raises CheckFailed with a one-line reason.

Monte Carlo tolerances are 5 standard deviations of the binomial count
plus 5 counts.  The extra counts matter only for rare events (expected
counts near zero), whose binomial tail is much heavier than the normal
one; for common events they are small next to 5 sigma.
"""

from __future__ import annotations

import math

import numpy as np

# the repository's documented gates for Jordan reconstruction
RESIDUAL_TOL = 1e-8
PHASE_TOL = 1e-7
SIGMAS = 5.0
SLACK_COUNTS = 5.0


class CheckFailed(Exception):
    """A result of the program disagrees with its reference value."""


def require(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# Closed forms


def testonly_rate(m: int) -> float:
    """Test-only strategy: accepted exactly when every coin is a test round."""
    return 2.0 ** -m


def honest_rate(n: int, m: int) -> float:
    """Honest yes-instance: a Hadamard round fails only for d = 0."""
    return (1.0 - 2.0 ** -(n + 1)) ** m


def grinder_rate(m: int, q: int) -> float:
    """Best of q distinct hashed challenges hitting the all-test string."""
    return 1.0 - (1.0 - 2.0 ** -m) ** q


def extractor_success(p: float, n_rounds: int) -> float:
    """Alternating-measurement success on one 2-D block (Marriott-Watrous)."""
    return 1.0 - (1.0 - 2.0 * p + 2.0 * p * p) ** (n_rounds - 1) * (1.0 - p)


def cheat_coordinate_accept(u: np.ndarray, n: int, z_width: int) -> float:
    """Exact per-coordinate acceptance of the unitary cheat on toy_protocol(n).

    The cheat writes the coin c into C, applies u to |c>|0...0>, and reads
    the n+1 bits of X as (b, r) on a test round or (m0, d) on a Hadamard
    round.  Its commitment y is uniform and independent of the answer, and
    the keys are uniform n-bit (x0, x1) with bit 0 of x1 flipped when
    x0 ^ x1 has even parity.  Both are enumerated exactly.
    """
    size = 1 << n
    x_vals = np.arange(2 * size)
    first, rest = x_vals >> n, x_vals & (size - 1)
    x0, x1 = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    x0, x1 = x0.ravel(), x1.ravel()
    even = np.array([bin(v).count("1") % 2 == 0 for v in x0 ^ x1])
    x1 = np.where(even, x1 ^ 1, x1)
    delta = x0 ^ x1
    y = np.arange(size)
    # test round: accept iff r ^ x_b == y
    key_b = np.where(first[:, None] == 0, x0[None, :], x1[None, :])
    test_ok = ((rest[:, None, None] ^ key_b[:, :, None]) == y[None, None, :])
    test_acc = test_ok.mean(axis=(1, 2))
    # Hadamard round: accept iff d != 0 and m0 == parity(d & (x0 ^ x1))
    par = np.array([[bin(int(d) & int(k)).count("1") % 2 for k in delta]
                    for d in rest])
    had_acc = ((rest[:, None] != 0) & (par == first[:, None])).mean(axis=1)
    xz = u.shape[0] // 2
    acc = 0.0
    for c, per_outcome in ((0, test_acc), (1, had_acc)):
        col = u[:, c * xz]
        probs = (np.abs(col) ** 2).reshape(2, 2 * size, 1 << z_width).sum(axis=(0, 2))
        acc += 0.5 * float(probs @ per_outcome)
    return acc


# ---------------------------------------------------------------------------
# Monte Carlo


def count_tolerance(trials: int, p: float) -> float:
    return SIGMAS * math.sqrt(trials * p * (1.0 - p)) + SLACK_COUNTS


def check_count(label: str, hits: int, trials: int, p: float):
    """hits out of trials is consistent with success probability p."""
    tol = count_tolerance(trials, p)
    require(abs(hits - trials * p) <= tol,
            f"{label}: {hits}/{trials} vs expected {trials * p:.2f} "
            f"(tolerance {tol:.2f})")


# ---------------------------------------------------------------------------
# Jordan blocks


def check_jordan(dec, p0: np.ndarray, p1: np.ndarray):
    """Rebuild P0, P1 and Q from the blocks; compare phases with a dense eig."""
    dim = p0.shape[0]
    n2, n1 = len(dec.blocks2d), len(dec.blocks1d)
    require(2 * n2 + n1 == dim, f"blocks 2*{n2}+{n1} do not span dim {dim}")
    cols, rec0, rec1 = [], np.zeros_like(p0), np.zeros_like(p1)
    rec_q = np.zeros_like(p0)
    for blk in dec.blocks2d:
        cols += [blk.alpha, blk.alpha_perp]
        rec0 += np.outer(blk.alpha, blk.alpha.conj())
        rec1 += np.outer(blk.beta, blk.beta.conj())
        for sign in (1.0, -1.0):
            phi = (blk.alpha + sign * 1j * blk.alpha_perp) / math.sqrt(2.0)
            rec_q += np.exp(sign * 1j * blk.theta) * np.outer(phi, phi.conj())
    for blk in dec.blocks1d:
        cols.append(blk.vector)
        proj = np.outer(blk.vector, blk.vector.conj())
        rec0 += blk.b * proj
        rec1 += blk.c * proj
        rec_q += (2 * blk.b - 1) * (2 * blk.c - 1) * proj
    basis = np.column_stack(cols)
    eye = np.eye(dim)
    q = (2.0 * p1 - eye) @ (2.0 * p0 - eye)
    resid = max(float(np.max(np.abs(basis.conj().T @ basis - eye))),
                float(np.max(np.abs(rec0 - p0))),
                float(np.max(np.abs(rec1 - p1))),
                float(np.max(np.abs(rec_q - q))))
    require(resid <= RESIDUAL_TOL, f"dim {dim}: reconstruction residual {resid:.3e}")
    # folded to |angle| so the -pi/+pi branch cut cannot misalign the sort
    got = [blk.theta for blk in dec.blocks2d for _ in range(2)]
    got += [0.0 if blk.b == blk.c else math.pi for blk in dec.blocks1d]
    want = np.sort(np.abs(np.angle(np.linalg.eigvals(q))))
    err = float(np.max(np.abs(np.sort(got) - want)))
    require(err <= PHASE_TOL, f"dim {dim}: eigenphase error {err:.3e}")


# ---------------------------------------------------------------------------
# Partition procedures


def check_split(label: str, psi: np.ndarray, psi0: np.ndarray, psi1: np.ndarray,
                exclusive: bool):
    """Branch contraction always; exact orthogonality on the ideal route."""
    total = float(np.vdot(psi, psi).real)
    kept = float(np.vdot(psi0, psi0).real + np.vdot(psi1, psi1).real)
    require(kept <= total + 1e-9, f"{label}: branches hold {kept:.12f} > {total:.12f}")
    if exclusive:
        overlap = abs(complex(np.vdot(psi0, psi1)))
        require(overlap <= RESIDUAL_TOL, f"{label}: branch overlap {overlap:.3e}")


def check_grid_average(label: str, err_masses, T: int):
    """Defect mass averaged over the gamma grid stays O(1/T)."""
    avg = float(np.mean(err_masses))
    bound = 6.0 / T + 0.02
    require(avg <= bound, f"{label}: grid-average defect {avg:.4f} > {bound:.4f}")


def check_chain_average(label: str, m: int, remainders, psi_norm2: float):
    """Remainder mass averaged over all 2^m challenges is at most 2^-m."""
    require(len(remainders) == 1 << m, f"{label}: {len(remainders)} challenges")
    avg = float(np.mean(remainders)) / psi_norm2
    require(avg <= 2.0 ** -m + 1e-9, f"{label}: challenge-average remainder "
            f"{avg:.6f} > {2.0 ** -m:.6f}")


def check_outcome_counts(label: str, counts: dict, probs: dict, trials: int):
    """Sampled outcome classes against their exact probabilities."""
    require(sum(counts.values()) == trials and set(counts) <= set(probs),
            f"{label}: outcome classes {sorted(counts)} vs {sorted(probs)}")
    for key, p in probs.items():
        check_count(f"{label} {key}", counts.get(key, 0), trials, min(max(p, 0.0), 1.0))


# ---------------------------------------------------------------------------
# Efficient verifier


def check_cost_shape(label: str, bounds, verifier_ops, prover_ops):
    """Verifier work polylog in T (degree <= 3), prover work at least linear."""
    log_t = np.log(np.asarray(bounds, dtype=float))
    degree = float(np.polyfit(np.log(log_t), np.log(verifier_ops), 1)[0])
    slope = float(np.polyfit(log_t, np.log(prover_ops), 1)[0])
    require(degree <= 3.0, f"{label}: verifier ops grow like log(T)^{degree:.2f}")
    require(slope >= 0.9, f"{label}: prover ops grow like T^{slope:.2f}")


def check_data_file(label: str, payload: dict, table: str, rows_expected: int):
    """A written data file: every row within its bound, rendered the same."""
    rows = payload["rows"]
    require(len(rows) == rows_expected, f"{label}: {len(rows)} rows, want {rows_expected}")
    for row in rows:
        require(float(row["measured"]) <= float(row["bound"]),
                f"{label}: {row['claim_id']} measured {row['measured']} > {row['bound']}")
    lines = [ln.split() for ln in table.splitlines()[2:] if ln.strip()]
    require(len(lines) == rows_expected and all(ln[-1] == "yes" for ln in lines),
            f"{label}: rendered table disagrees with the data file")
