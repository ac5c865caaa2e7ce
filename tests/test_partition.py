"""Partition-procedure tests: projectors, phase estimation, G/H/Ext."""

import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cvqc_lab import config
from cvqc_lab.jordan import jordan_decompose, unitary_eig
from cvqc_lab.jordan import DegenerateNumerics
from cvqc_lab.partition import (
    _HWalk,
    _Table,
    _accept_mask,
    _apply_est,
    _amps_of,
    _apply_kernel_column,
    _branches,
    _check_challenge,
    _rotated_frame,
    ChainResult,
    DomainError,
    ExtractOutcome,
    HAbort,
    HBranch,
    HRemainder,
    PartitionOutcome,
    PartitionParams,
    ProverStrategy,
    build_projectors,
    cs_bound,
    eigenbasis,
    ext_success_formula,
    extract,
    gamma_grid,
    haar_unitary,
    kernel_amplitudes,
    kernel_masses,
    partition_chain,
    phase_label,
    random_accept_sets,
    random_strategy,
    random_xz_state,
    run_G,
    run_G_state,
    run_H,
    single_block_strategy,
    spectral_data,
    threshold_mask,
)
from cvqc_lab.partition import test_round_accept_prob as accept_prob
from cvqc_lab.qsim import (
    DimensionMismatch,
    NonFiniteAmplitude,
    NotAGenerator,
    NotUnitary,
    Operator,
    StateVector,
    ZeroState,
)


def estimation_unitary(q_mat: np.ndarray, t: int, mode: str) -> np.ndarray:
    """Dense U_est on (system (x) ph); small-t oracle for the fast paths."""
    dim = q_mat.shape[0]
    phases, vecs = unitary_eig(q_mat)
    size = 1 << t
    out = np.zeros((dim * size, dim * size), dtype=np.complex128)
    for k in range(dim):
        kmat = _apply_kernel_column(np.eye(size, dtype=np.complex128), float(phases[k]), t, mode, dagger=False)
        proj = np.outer(vecs[:, k], vecs[:, k].conj())
        out += np.kron(proj, kmat)
    return out


def qpe_failure_mass(theta: float, t: int, tau: int) -> float:
    """Kernel mass on labels farther than 2^-tau from the true phase."""
    size = 1 << t
    labels = np.arange(size)
    diff = (2.0 * np.pi * labels / size - theta + np.pi) % (2.0 * np.pi) - np.pi
    outside = np.abs(diff) > 2.0 * np.pi * 2.0 ** (-tau)
    return float(np.sum(kernel_masses(theta, t)[outside]))


def _params(m=1, i=1, gamma0=0.75, T=4, j=2, mode="ideal"):
    return PartitionParams(m=m, i=i, gamma0=gamma0, T=T,
                           gamma=gamma0 * j / T, mode=mode)


def _trivial_strategy():
    # U = I, Acc = {"0"}: pi_out selects X1=0, pi_in selects C=0
    return ProverStrategy(
        m=1, x_width=1, z_width=1,
        u=Operator.unitary(np.eye(8, dtype=np.complex128)),
        accept_sets=(frozenset({"0"}),),
    )


# ---------------------------------------------------------------------------
# Parameters


class TestParams:
    def test_grid_and_derived_quantities(self):
        p = _params(gamma0=0.75, T=4, j=2)
        assert p.gamma == pytest.approx(0.375)
        assert p.delta == 0.75 / 12
        assert p.tau == int(np.ceil(np.log2(8 / p.delta)))

    def test_off_grid_gamma_rejected(self):
        with pytest.raises(DomainError):
            PartitionParams(m=1, i=1, gamma0=0.75, T=4, gamma=0.3)

    def test_gammas_are_kept_as_floats(self):
        p = PartitionParams(m=1, i=1, gamma0=np.float32(0.75), T=4, gamma=np.float32(0.375))
        assert type(p.gamma0) is float and type(p.gamma) is float
        assert p == _params(gamma0=0.75, T=4, j=2)
        # a chain's gammas go in as given, and threshold in double precision
        s = random_strategy(np.random.default_rng(9), m=2, x_width=1, z_width=1)
        psi = random_xz_state(np.random.default_rng(10), s)
        for mode in ("ideal", "kernel"):
            kw = dict(gamma0=0.75, T=4, mode=mode)
            want = partition_chain(s, (0.375, 0.75), "01", psi, **kw)
            assert partition_chain(s, np.float32([0.375, 0.75]), "01", psi, **kw) == want

    def test_gamma_grid_values(self):
        g = gamma_grid(0.8, 5)
        assert len(g) == 5
        assert np.allclose(g, [0.16, 0.32, 0.48, 0.64, 0.8])

    def test_coordinate_bounds(self):
        with pytest.raises(DomainError):
            _params(m=2, i=3)
        with pytest.raises(DomainError):
            _params(m=2, i=0)

    def test_phase_precision_is_capped(self):
        # a tau-bit phase register is held densely, so tau <= QUBIT_CAP
        at_cap = PartitionParams(m=1, i=1, gamma0=0.75, T=2 ** 15, gamma=0.75)
        assert at_cap.tau == config.QUBIT_CAP
        for gamma0, T in [(0.75, 2 ** 15 + 1), (2.0 ** -39, 1), (1e-6, 1), (5e-324, 1),
                          (1.0, 2 ** 20), (0.5, 10 ** 300), (0.5, 10 ** 400)]:
            with pytest.raises(DomainError, match="tau"):
                PartitionParams(m=1, i=1, gamma0=gamma0, T=T, gamma=gamma0)

    def test_underflow_guard(self):
        with pytest.raises(DomainError):
            PartitionParams(m=1, i=1, gamma0=2.0 ** -30, T=2 ** 20,
                            gamma=2.0 ** -30 / 2 ** 20)

    def test_bad_mode(self):
        with pytest.raises(DomainError):
            _params(mode="exact")

    @pytest.mark.parametrize("name,value", [("m", "1"), ("T", "4"), ("T", True),
                                            ("T", 4.0), ("i", 1.0)])
    def test_counts_follow_the_integer_rule(self, name, value):
        kw = dict(m=1, i=1, gamma0=0.75, T=4, gamma=0.375)
        with pytest.raises(DomainError, match="not an integer"):
            PartitionParams(**{**kw, name: value})
        assert PartitionParams(**{**kw, name: np.int64(kw[name])}) == PartitionParams(**kw)

    @pytest.mark.parametrize("name,value", [
        ("gamma", float("nan")), ("gamma", float("inf")), ("gamma", -float("inf")),
        ("gamma", "a"), ("gamma", None), ("gamma", True), ("gamma", np.bool_(True)),
        ("gamma0", "1"), ("gamma0", None), ("gamma0", True), ("gamma0", float("nan")),
        ("gamma0", float("inf")), ("gamma0", 0.0), ("gamma0", 1.5)])
    def test_reals_follow_the_real_rule(self, name, value):
        kw = dict(m=1, i=1, gamma0=1.0, T=4, gamma=0.25)
        with pytest.raises(DomainError, match=name):
            PartitionParams(**{**kw, name: value})
        assert PartitionParams(**{**kw, name: np.float64(kw[name])}) == PartitionParams(**kw)
        assert PartitionParams(**{**kw, "gamma0": 1}).gamma0 == 1


class TestRealRule:
    """config.check_real: a finite real number (never a bool) in [lo, hi], as a float."""

    @pytest.mark.parametrize("value", [True, False, np.bool_(False), "0.5", None, 1j,
                                       float("nan"), float("inf"), -float("inf"),
                                       10 ** 400, -0.1, 1.5, np.float64("nan")])
    def test_refused(self, value):
        with pytest.raises(DomainError, match="x="):
            config.check_real("x", value, 0, 1, DomainError)

    @pytest.mark.parametrize("value", [0, 1, 0.25, np.float32(0.5), np.float64(1.0),
                                       np.int64(0)])
    def test_accepted_as_float(self, value):
        got = config.check_real("x", value, 0, 1, DomainError)
        assert type(got) is float and got == value

    @pytest.mark.parametrize("value", ["a", True, float("nan"), float("inf"), -0.5, None])
    def test_single_block_strategy(self, value):
        with pytest.raises(DomainError, match="p="):
            single_block_strategy(value)

    @pytest.mark.parametrize("p,n_rounds", [(0.5, 2.5), (0.5, True), (0.5, "3"), (0.5, 0),
                                            (True, 3), ("0.5", 3), (float("nan"), 3),
                                            (None, 3), (1.5, 3)])
    def test_ext_success_formula(self, p, n_rounds):
        with pytest.raises(DomainError):
            ext_success_formula(p, n_rounds)
        assert ext_success_formula(np.float64(0.5), np.int64(3)) == ext_success_formula(0.5, 3)


# ---------------------------------------------------------------------------
# Projectors


class TestProjectors:
    def test_m1_identity_u_selects_x(self):
        s = _trivial_strategy()
        pi_in, pi_out = build_projectors(s, _params())
        # X1 is the middle qubit of (C, X1, Z): diagonal picks X1 = 0
        want = np.diag([(idx >> 1) & 1 == 0 for idx in range(8)]).astype(complex)
        assert np.allclose(pi_out.mat, want, atol=1e-12)
        want_in = np.zeros((8, 8), dtype=complex)
        want_in[:4, :4] = np.eye(4)
        assert np.allclose(pi_in.mat, want_in, atol=1e-12)

    def test_accept_all_gives_identity(self):
        rng = np.random.default_rng(3)
        s = ProverStrategy(
            m=1, x_width=1, z_width=1,
            u=Operator.unitary(np.linalg.qr(rng.normal(size=(8, 8))
                                            + 1j * rng.normal(size=(8, 8)))[0]),
            accept_sets=(frozenset({"0", "1"}),),
        )
        _, pi_out = build_projectors(s, _params())
        assert np.allclose(pi_out.mat, np.eye(8), atol=1e-9)

    def test_random_m2_idempotent(self):
        rng = np.random.default_rng(11)
        s = random_strategy(rng, m=2, x_width=1, z_width=1)
        for i in (1, 2):
            _, pi_out = build_projectors(s, _params(m=2, i=i))
            assert np.max(np.abs(pi_out.mat @ pi_out.mat - pi_out.mat)) <= 1e-9

    def test_m_mismatch(self):
        s = _trivial_strategy()
        with pytest.raises(DimensionMismatch):
            build_projectors(s, _params(m=2, i=1))


# ---------------------------------------------------------------------------
# Phase estimation


def _with_ph(sys_amps, t):
    """sys_amps on the system register (x) |0^t> on ph, ph least significant."""
    return np.kron(np.asarray(sys_amps, dtype=np.complex128),
                   np.eye(1 << t, dtype=np.complex128)[0])


def _estimate(q, amps, t, mode, dagger=False):
    """U_est (or its adjoint) on (system, ph) amplitudes.

    This is _apply_est as run_G_state runs it, in unitary_eig's
    eigenbasis of q.
    """
    phases, vecs = unitary_eig(q)
    flat = np.asarray(amps, dtype=np.complex128).reshape(len(q), 1 << t)
    return _apply_est(flat, vecs, phases, t, mode, dagger).reshape(-1)


class TestPhaseEstimate:
    def test_phase_zero_ideal(self):
        out = _estimate(np.eye(2, dtype=np.complex128), _with_ph([1.0, 0.0], 3), 3, "ideal")
        assert out[0] == pytest.approx(1.0)
        assert np.linalg.norm(out[1:]) <= 1e-12

    def test_phase_pi_reads_100(self):
        # phase pi = 0.100 in binary fractions of 2*pi
        q = np.diag([1.0, -1.0]).astype(complex)
        out = _estimate(q, _with_ph([0.0, 1.0], 3), 3, "ideal")
        idx = (1 << 3) + 0b100  # sys=1, ph=100
        assert abs(out[idx]) == pytest.approx(1.0)

    def test_kernel_marginal_matches_closed_form(self):
        t = 4
        th1, th2 = 0.7, 2.3
        q = np.diag([np.exp(1j * th1), np.exp(1j * th2)])
        a, b = 0.6, 0.8
        out = _estimate(q, _with_ph([a, b], t), t, "kernel")
        probs = np.abs(out.reshape(2, 1 << t)) ** 2
        marginal = probs.sum(axis=0)
        expect = a * a * kernel_masses(th1, t) + b * b * kernel_masses(th2, t)
        assert np.max(np.abs(marginal - expect)) <= 1e-9

    def test_norm_preserved_and_dagger_inverts(self):
        rng = np.random.default_rng(5)
        u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        dim = 4 << 3  # sys (2 qubits) (x) ph (3 qubits)
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amps /= np.linalg.norm(amps)
        for mode in ("ideal", "kernel"):
            fwd = _estimate(u, amps, 3, mode)
            assert np.vdot(fwd, fwd).real == pytest.approx(1.0, abs=1e-9)
            back = _estimate(u, fwd, 3, mode, dagger=True)
            assert np.max(np.abs(back - amps)) <= 1e-9


class TestEstimationUnitary:
    @pytest.mark.parametrize("mode", ["ideal", "kernel"])
    def test_dense_oracle_matches_columnwise(self, mode):
        rng = np.random.default_rng(9)
        t = 3
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        dense = estimation_unitary(u, t, mode)
        assert np.max(np.abs(dense.conj().T @ dense - np.eye(2 << t))) <= 1e-9
        for col in range(2 << t):
            e = np.zeros(2 << t, dtype=np.complex128)
            e[col] = 1.0
            got = _estimate(u, e, t, mode)
            assert np.max(np.abs(got - dense[:, col])) <= 1e-9

    def test_dense_oracle_rejects_non_normal(self):
        with pytest.raises(DegenerateNumerics):
            estimation_unitary(np.array([[1.0, 1.0], [0.0, 1.0]]), 2, "ideal")


class TestKernelHelpers:
    def test_label_roundtrip_and_pin(self):
        assert phase_label(np.pi, 3) == 0b100
        assert phase_label(0.0, 5) == 0

    def test_kernel_masses_normalized(self):
        for theta in (0.0, 0.3, np.pi, -1.9, 2.0 * np.pi / 8):
            m = kernel_masses(theta, 5)
            assert m.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(m >= -1e-15)

    def test_exact_dyadic_phase_is_one_hot(self):
        t = 4
        theta = 2.0 * np.pi * 5 / (1 << t)
        amps = kernel_amplitudes(theta, t)
        assert abs(amps[5]) == pytest.approx(1.0, abs=1e-12)
        assert amps[5].real == pytest.approx(1.0, abs=1e-12)

    def test_failure_mass_obeys_tail_bound(self):
        # mass outside the 2^-tau window vs the textbook 1/(2(k-1)) tail,
        # k = 2^(t-tau) grid steps inside the window
        rng = np.random.default_rng(4)
        for _ in range(100):
            theta = rng.uniform(-np.pi, np.pi)
            tau = int(rng.integers(3, 7))
            for extra in (1, 2, 4):
                mass = qpe_failure_mass(theta, tau + extra, tau)
                assert 0.0 <= mass <= 1.0 / (2.0 * ((1 << extra) - 1)) + 1e-12
        assert qpe_failure_mass(2.0 * np.pi * 3 / 32, 5, 5) <= 1e-12

    def test_threshold_mask_is_literal_geq(self):
        p = _params(gamma0=0.75, T=4, j=2)
        size = 1 << p.tau
        mask = threshold_mask(p)
        pv = np.cos(np.pi * np.arange(size) / size) ** 2
        assert np.array_equal(mask, pv >= p.gamma - p.delta)
        assert mask[0] and not mask[size // 2]


# ---------------------------------------------------------------------------
# Procedure 1: run_G


class TestRunG:
    def test_low_span_input_lands_entirely_in_psi0(self):
        rng = np.random.default_rng(21)
        s = random_strategy(rng, m=1, x_width=1, z_width=1)
        p = _params(gamma0=0.75, T=4, j=4)  # gamma = gamma0, widest low window
        data = spectral_data(s, p)
        cols = data.alphas_xz[:, data.pvals <= p.gamma - 2 * p.delta]
        assert cols.shape[1] > 0, "seed must give at least one low block"
        mix = cols @ (rng.normal(size=cols.shape[1]) + 1j * rng.normal(size=cols.shape[1]))
        mix /= np.linalg.norm(mix)
        psi = StateVector(s.xz_layout(), mix)
        out = run_G(s, p, psi)
        assert np.max(np.abs(out.psi0.amps - mix)) <= 1e-9
        assert np.linalg.norm(out.psi1.amps) <= 1e-9
        assert np.linalg.norm(out.psi_err.amps) <= 1e-9

    @pytest.mark.parametrize("mode", ["ideal", "kernel"])
    def test_11_span_input_lands_entirely_in_psi1(self, mode):
        s = _trivial_strategy()
        p = _params(mode=mode)
        # (C=0, X1=0, Z=*) vectors are common +1 eigenvectors of both projectors
        rng = np.random.default_rng(2)
        v = np.zeros(4, dtype=np.complex128)
        v[:2] = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        out = run_G(s, p, StateVector(s.xz_layout(), v))
        assert np.max(np.abs(out.psi1.amps - v)) <= 1e-9
        assert np.linalg.norm(out.psi0.amps) <= 1e-9
        assert out.z1 == pytest.approx(1.0)

    @pytest.mark.parametrize("mode", ["ideal", "kernel"])
    def test_claim1_grid_average(self, mode):
        # E_gamma[\|psi_err\|^2] <= 6/T + 0.02 on a random 3-qubit strategy
        rng = np.random.default_rng(33)
        T = 16
        s = random_strategy(rng, m=1, x_width=1, z_width=1)
        psi = random_xz_state(rng, s)
        total = 0.0
        total_resid = 0.0
        for j in range(1, T + 1):
            p = PartitionParams(m=1, i=1, gamma0=1.0, T=T, gamma=j / T, mode=mode)
            out = run_G(s, p, psi)
            total += out.psi_err.norm2
            total_resid += out.branch_probs[2]
        assert total / T <= 6.0 / T + 0.02
        # the branch-mass residual obeys the same grid-average bound; it is
        # the component that actually differs between the two modes
        assert total_resid / T <= 6.0 / T + 0.02

    @pytest.mark.parametrize("mode", ["ideal", "kernel"])
    def test_outcome_invariants(self, mode):
        rng = np.random.default_rng(17)
        for trial in range(10):
            m = 1 if trial % 2 == 0 else 2
            s = random_strategy(rng, m=m, x_width=1, z_width=1)
            psi = random_xz_state(rng, s)
            p = _params(m=m, i=1 + trial % m, mode=mode)
            out = run_G(s, p, psi)
            recon = out.psi0.amps + out.psi1.amps + out.psi_err.amps
            assert np.max(np.abs(recon - psi.amps)) <= 1e-8
            assert out.psi0.norm2 + out.psi1.norm2 <= psi.norm2 + 1e-9
            assert abs(abs(out.z0) - 1.0) <= 1e-12
            assert abs(abs(out.z1) - 1.0) <= 1e-12
            n0, n1, resid = out.branch_probs
            assert n0 == pytest.approx(out.psi0.norm2, abs=1e-12)
            assert n1 == pytest.approx(out.psi1.norm2, abs=1e-12)
            assert resid == pytest.approx(psi.norm2 - n0 - n1, abs=1e-9)

    def test_subnormalized_input_allowed(self):
        rng = np.random.default_rng(8)
        s = random_strategy(rng, m=1, x_width=1, z_width=1)
        a = rng.normal(size=s.xz_dim) + 1j * rng.normal(size=s.xz_dim)
        a *= 0.5 / np.linalg.norm(a)
        out = run_G(s, _params(), StateVector(s.xz_layout(), a))
        assert out.psi0.norm2 + out.psi1.norm2 <= 0.25 + 1e-9


def _branches_reference(strategy, params, psi_xz):
    # run_G's branch arithmetic as it reads without the frame and
    # grid-point tables: conjugates, weights and masks built per call
    data = spectral_data(strategy, params)
    c2 = data.alphas_xz.conj().T @ psi_xz
    c11 = data.v11_xz.conj().T @ psi_xz
    c10 = data.v10_xz.conj().T @ psi_xz
    mask = threshold_mask(params)
    if params.mode == "ideal":
        labels = np.array([phase_label(th, params.tau) for th in data.thetas], dtype=int)
        w1 = mask[labels].astype(float)
    else:
        rows = (np.stack([kernel_masses(th, params.tau) for th in data.thetas])
                if len(data.thetas) else np.zeros((0, 1 << params.tau)))
        w1 = rows @ mask.astype(float)
    b1 = data.alphas_xz @ (c2 * w1) + data.v11_xz @ c11
    b0 = data.alphas_xz @ (c2 * (1.0 - w1)) + data.v10_xz @ c10
    return b0, b1, (c2, c11, c10, data)


def _phase_reference(overlap, ref_norm, branch_norm):
    small = config.ZERO_BRANCH_TOL
    if ref_norm < small or branch_norm < small or abs(overlap) < small:
        return 1.0 + 0.0j
    return overlap / abs(overlap)


def _run_G_reference(strategy, params, psi):
    # the plain run_G: np.linalg.norm and a checked StateVector per branch
    psi_xz = _amps_of(psi, strategy.xz_dim)
    b0, b1, (c2, c11, c10, data) = _branches_reference(strategy, params, psi_xz)
    ref0 = data.alphas_xz @ (c2 * (data.pvals <= params.gamma - 2 * params.delta)) \
        + data.v10_xz @ c10
    ref1 = data.alphas_xz @ (c2 * (data.pvals >= params.gamma)) + data.v11_xz @ c11
    z0 = _phase_reference(np.vdot(ref0, b0), float(np.linalg.norm(ref0)),
                          float(np.linalg.norm(b0)))
    z1 = _phase_reference(np.vdot(ref1, b1), float(np.linalg.norm(ref1)),
                          float(np.linalg.norm(b1)))
    psi0 = np.conj(z0) * b0
    psi1 = np.conj(z1) * b1
    err = psi_xz - psi0 - psi1
    n0 = float(np.vdot(psi0, psi0).real)
    n1 = float(np.vdot(psi1, psi1).real)
    residual = float(np.vdot(psi_xz, psi_xz).real) - n0 - n1
    lay = strategy.xz_layout()
    return PartitionOutcome(
        psi0=StateVector(lay, psi0), psi1=StateVector(lay, psi1),
        psi_err=StateVector(lay, err), z0=complex(z0), z1=complex(z1),
        branch_probs=(n0, n1, residual))


def _partition_chain_reference(strategy, gammas, c, psi, *, gamma0, T, mode):
    current = _amps_of(psi, strategy.xz_dim)
    kept, errs = [], []
    for idx in range(1, strategy.m + 1):
        params = PartitionParams(m=strategy.m, i=idx, gamma0=gamma0, T=T,
                                 gamma=float(gammas[idx - 1]), mode=mode)
        b0, b1, _ = _branches_reference(strategy, params, current)
        errs.append(float(np.linalg.norm(current - b0 - b1) ** 2))
        want, current = (b1, b0) if c[idx - 1] == "1" else (b0, b1)
        kept.append(float(np.vdot(want, want).real))
    return ChainResult(kept_norms2=tuple(kept),
                       remainder_norm2=float(np.vdot(current, current).real),
                       err_norms2=tuple(errs))


def _bits(values) -> bytes:
    return np.array(values, dtype=np.complex128).tobytes()


def _assert_same_outcome(got, want):
    for name in ("psi0", "psi1", "psi_err"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.layout == w.layout
        assert g.amps.dtype == np.complex128 and g.amps.flags.c_contiguous
        assert g.amps.tobytes() == w.amps.tobytes()
    assert _bits([got.z0, got.z1]) == _bits([want.z0, want.z1])
    assert _bits(got.branch_probs) == _bits(want.branch_probs)


def _grid_strategies():
    for m in (1, 2, 3):
        for x_width in (1, 2):
            for controlled in (False, True):
                rng = np.random.default_rng(500 + 10 * m + 2 * x_width + controlled)
                s = random_strategy(rng, m, x_width=x_width, z_width=1 if m < 3 else 0,
                                    controlled=controlled)
                yield rng, s


class TestLeanRunG:
    """run_G and partition_chain against their plain arithmetic, bit for bit."""

    def test_grid_matches_reference(self):
        for rng, s in _grid_strategies():
            psi = random_xz_state(rng, s)
            for mode in ("ideal", "kernel"):
                for i in range(1, s.m + 1):
                    for j in range(1, 17):
                        p = PartitionParams(s.m, i, 0.75, 16, 0.75 * j / 16, mode)
                        # twice: the grid-point table is built, then read
                        for _ in range(2):
                            _assert_same_outcome(run_G(s, p, psi), _run_G_reference(s, p, psi))

    def test_chain_matches_reference(self):
        for rng, s in _grid_strategies():
            psi = random_xz_state(rng, s)
            grid = gamma_grid(0.75, 16)
            for mode in ("ideal", "kernel"):
                for _ in range(3):
                    gammas = tuple(float(grid[j]) for j in rng.integers(0, 16, size=s.m))
                    for cbits in range(1 << s.m):
                        c = format(cbits, f"0{s.m}b")
                        kw = dict(gamma0=0.75, T=16, mode=mode)
                        got = partition_chain(s, gammas, c, psi, **kw)
                        want = _partition_chain_reference(s, gammas, c, psi, **kw)
                        assert _bits(got.err_norms2) == _bits(want.err_norms2)
                        assert _bits(got.kept_norms2) == _bits(want.kept_norms2)
                        assert _bits([got.remainder_norm2]) == _bits([want.remainder_norm2])

    @pytest.mark.parametrize("scale", [0.0, 1e-13, 1e150, 1.2e154, 1e200])
    def test_extreme_scales_match_reference(self, scale):
        rng = np.random.default_rng(41)
        s = random_strategy(rng, 2, x_width=1, z_width=1)
        psi = StateVector(s.xz_layout(), scale * random_xz_state(rng, s).amps)
        raised = checked = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for mode in ("ideal", "kernel"):
                for j in (1, 8, 16):
                    p = PartitionParams(2, 1, 0.75, 16, 0.75 * j / 16, mode)
                    try:
                        want = _run_G_reference(s, p, psi)
                    except NonFiniteAmplitude:
                        # at 1e200 the amplitudes are finite but their squares
                        # are not: the checking constructor decides, as before
                        raised += 1
                        with pytest.raises(NonFiniteAmplitude, match="non-finite amplitude"):
                            run_G(s, p, psi)
                        continue
                    got = run_G(s, p, psi)
                    _assert_same_outcome(got, want)
                    n0, n1, _ = got.branch_probs
                    checked += not np.isfinite(n0 + n1 + psi.norm2)
        assert raised == (6 if scale > 1.3e154 else 0)
        # near sqrt(max float) every norm is finite but their sum is not,
        # so the checking constructor builds the returned states
        assert checked == (6 if 1e154 < scale < 1.3e154 else 0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    def test_non_finite_input_raises_as_before(self, bad):
        rng = np.random.default_rng(42)
        s = random_strategy(rng, 2, x_width=1, z_width=1)
        psi = random_xz_state(rng, s)
        psi.amps[3] = bad  # the state was checked when built, not since
        p = PartitionParams(2, 2, 0.75, 16, 0.375, "kernel")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteAmplitude, match="non-finite amplitude"):
                _run_G_reference(s, p, psi)
            with pytest.raises(NonFiniteAmplitude, match="non-finite amplitude"):
                run_G(s, p, psi)

    def test_grid_table_starts_over(self, monkeypatch):
        rng = np.random.default_rng(43)
        s = random_strategy(rng, 2, x_width=1, z_width=1)
        # room for 3 grid points of (X, Z) dim 8: a 16-point sweep keeps clearing it
        monkeypatch.setattr(config, "EXTRACT_TABLE_AMPS", 3 * 4 * s.xz_dim)
        psi = random_xz_state(rng, s)
        for _ in range(2):
            for j in range(1, 17):
                p = PartitionParams(2, 1 + j % 2, 0.75, 16, 0.75 * j / 16, "kernel")
                _assert_same_outcome(run_G(s, p, psi), _run_G_reference(s, p, psi))
                table = s._cache["table"]
                assert 1 <= len(table.entries) <= 3
                assert table.held == 4 * s.xz_dim * len(table.entries)

    def test_replaced_strategy_gets_fresh_tables(self):
        rng = np.random.default_rng(44)
        s = random_strategy(rng, 1, x_width=1, z_width=1)
        psi = random_xz_state(rng, s)
        p = _params(T=16, j=5)
        run_G(s, p, psi)
        r = replace(s)
        assert "table" not in r._cache and ("spec", 1) not in r._cache
        _assert_same_outcome(run_G(r, p, psi), _run_G_reference(s, p, psi))
        assert r._cache["table"] is not s._cache["table"]
        assert r._cache["table"].entries[p] is not s._cache["table"].entries[p]


# ---------------------------------------------------------------------------
# Claim 2: the literal pipeline and the spectral route agree


class TestClaimTwoExclusivity:
    @pytest.mark.parametrize("mode", ["ideal", "kernel"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_branch_labels_carry_only_psi_b(self, m, mode):
        rng = np.random.default_rng(40 + m)
        s = random_strategy(rng, m=m, x_width=1, z_width=1)
        psi = random_xz_state(rng, s)
        p = _params(m=m, i=1, mode=mode)
        out = run_G(s, p, psi)
        full = run_G_state(s, p, psi)
        t = p.tau
        grid = full.amps.reshape(1 << m, s.xz_dim, 1 << t, 2, 2)
        for b, branch, z in ((0, out.psi0, out.z0), (1, out.psi1, out.z1)):
            # all mass at (C=0, ph=0^t, th=b, in=1) equals z_b psi_b exactly
            assert np.max(np.abs(grid[0, :, 0, b, 1] - z * branch.amps)) <= 1e-8

    def test_norm_preserved_by_full_pipeline(self):
        rng = np.random.default_rng(43)
        s = random_strategy(rng, m=1, x_width=1, z_width=1)
        psi = random_xz_state(rng, s)
        for mode in ("ideal", "kernel"):
            full = run_G_state(s, _params(mode=mode), psi)
            assert full.norm2 == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Claims 3 and 4


class TestContractionAndTestRound:
    def test_claim3_contraction_100_instances(self):
        rng = np.random.default_rng(55)
        for trial in range(100):
            m = 1 + trial % 2
            mode = "ideal" if trial % 3 else "kernel"
            s = random_strategy(rng, m=m, x_width=1, z_width=1)
            psi = random_xz_state(rng, s)
            out = run_G(s, _params(m=m, i=1, mode=mode), psi)
            e_b = 0.5 * (out.psi0.norm2 + out.psi1.norm2)
            assert e_b <= 0.5 * psi.norm2 + 1e-9

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_claim4_test_round_bound(self, m):
        # challenge-diagonal strategies: X_i stats for fixed c are bounded
        # by 2^{m-1} gamma once the th=0 branch is conditioned on
        rng = np.random.default_rng(60 + m)
        s = random_strategy(rng, m=m, x_width=1, z_width=1, controlled=True)
        p = _params(m=m, i=1, gamma0=0.75, T=4, j=3)
        psi = random_xz_state(rng, s)
        out = run_G(s, p, psi)
        if out.psi0.norm2 <= 1e-12:
            pytest.skip("no low component for this seed")
        psi0 = StateVector(s.xz_layout(), out.psi0.amps / np.sqrt(out.psi0.norm2))
        for rest in range(1 << (m - 1)):
            tail = format(rest, f"0{m - 1}b") if m > 1 else ""
            c = "0" + tail
            pr = accept_prob(s, 1, c, psi0)
            assert pr <= 2.0 ** (m - 1) * p.gamma + 1e-6


# ---------------------------------------------------------------------------
# Procedure 2: run_H and the exact chain


def _run_H_reference(strategy, gammas, c, psi, rng, *, gamma0, T, mode="ideal"):
    # the plain H loop, every step recomputed; run_H must reproduce its
    # outcomes, states and RNG use exactly
    if len(gammas) != strategy.m:
        raise DimensionMismatch(f"need m={strategy.m} gammas")
    _check_challenge(strategy, c)
    chain = [PartitionParams(m=strategy.m, i=i, gamma0=gamma0, T=T, gamma=g, mode=mode)
             for i, g in enumerate(gammas, 1)]
    current = _amps_of(psi, strategy.xz_dim).copy()
    lay = strategy.xz_layout()
    for idx, params in enumerate(chain, 1):
        norm2 = float(np.vdot(current, current).real)
        if norm2 <= config.ZERO_STATE_TOL:
            raise ZeroState(f"norm^2 = {norm2:.3e} entering step {idx}")
        b0, b1 = _branches(strategy, params, current)[:2]
        want, other = (b1, b0) if c[idx - 1] == "1" else (b0, b1)
        p_want = float(np.vdot(want, want).real) / norm2
        p_other = float(np.vdot(other, other).real) / norm2
        r = rng.random()
        if r < p_want:
            out = want / np.linalg.norm(want)
            return HBranch(branch_state=StateVector(lay, out), stop_index=idx)
        if r < p_want + p_other:
            current = other / np.linalg.norm(other)
            continue
        return HAbort(stop_index=idx)
    return HRemainder(state=StateVector(lay, current / np.linalg.norm(current)))


def _h_state(outcome):
    """The state an H outcome carries, or None for an abort."""
    if isinstance(outcome, HBranch):
        return outcome.branch_state
    return outcome.state if isinstance(outcome, HRemainder) else None


def _assert_walk_matches(s, gammas, c, states, seed, calls, **kw):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for k in range(calls):
        psi = states[k % len(states)]
        got = run_H(s, gammas, c, psi, fast, **kw)
        want = _run_H_reference(s, gammas, c, psi, slow, **kw)
        assert type(got) is type(want)
        assert getattr(got, "stop_index", None) == getattr(want, "stop_index", None)
        if _h_state(want) is not None:
            assert _h_state(got).amps.tobytes() == _h_state(want).amps.tobytes()
        assert fast.bit_generator.state == slow.bit_generator.state


def _low_span_m2():
    """(strategy, psi, gamma_1): psi's coordinate-1 high branch is empty in ideal mode."""
    s = random_strategy(np.random.default_rng(21), m=2, x_width=1, z_width=1)
    p = _params(m=2, gamma0=0.75, T=4, j=4)
    data = spectral_data(s, p)
    cols = data.alphas_xz[:, data.pvals <= p.gamma - 2 * p.delta]
    mix = cols @ np.ones(cols.shape[1])
    return s, StateVector(s.xz_layout(), mix / np.linalg.norm(mix)), p.gamma


class TestRunH:
    def test_low_span_m1_halts_deterministically(self):
        rng = np.random.default_rng(21)
        s = random_strategy(rng, m=1, x_width=1, z_width=1)
        p = _params(gamma0=0.75, T=4, j=4)
        data = spectral_data(s, p)
        cols = data.alphas_xz[:, data.pvals <= p.gamma - 2 * p.delta]
        mix = cols @ np.ones(cols.shape[1])
        mix /= np.linalg.norm(mix)
        psi = StateVector(s.xz_layout(), mix)
        for k in range(50):
            res = run_H(s, [p.gamma], "0", psi, np.random.default_rng(k),
                        gamma0=0.75, T=4)
            assert isinstance(res, HBranch) and res.stop_index == 1

    def test_stop_statistics_match_exact_chain(self):
        rng = np.random.default_rng(77)
        s = random_strategy(rng, m=2, x_width=1, z_width=1)
        grid = gamma_grid(0.75, 4)
        gam = (grid[2], grid[1])
        psi = random_xz_state(rng, s)
        chain = partition_chain(s, gam, "10", psi, gamma0=0.75, T=4)
        n_mc = 4000
        stops = {1: 0, 2: 0}
        rem = 0
        for k in range(n_mc):
            res = run_H(s, gam, "10", psi, np.random.default_rng(10_000 + k),
                        gamma0=0.75, T=4)
            if isinstance(res, HBranch):
                stops[res.stop_index] += 1
            elif isinstance(res, HRemainder):
                rem += 1
        assert stops[1] / n_mc == pytest.approx(chain.kept_norms2[0], abs=0.025)
        assert stops[2] / n_mc == pytest.approx(chain.kept_norms2[1], abs=0.025)
        assert rem / n_mc == pytest.approx(chain.remainder_norm2, abs=0.025)

    @pytest.mark.parametrize("gammas", [0.375, None, 2])
    def test_gammas_that_are_not_iterable_are_refused_before_a_draw(self, gammas):
        rng = np.random.default_rng(79)
        s = random_strategy(rng, m=1, x_width=1, z_width=1)
        psi = random_xz_state(rng, s)
        before = rng.bit_generator.state
        with pytest.raises(DomainError, match="gammas"):
            run_H(s, gammas, "0", psi, rng, gamma0=0.75, T=4)
        with pytest.raises(DomainError, match="gammas"):
            partition_chain(s, gammas, "0", psi, gamma0=0.75, T=4)
        assert rng.bit_generator.state == before

    def test_ideal_mode_never_aborts(self):
        rng = np.random.default_rng(78)
        s = random_strategy(rng, m=2, x_width=1, z_width=1)
        grid = gamma_grid(0.75, 4)
        psi = random_xz_state(rng, s)
        for k in range(200):
            res = run_H(s, (grid[0], grid[3]), "01", psi,
                        np.random.default_rng(k), gamma0=0.75, T=4)
            assert not isinstance(res, HAbort)

    def test_kernel_abort_frequency_matches_junk_mass(self):
        # engineered straddler: an alpha_j whose kernel mass splits across
        # the threshold aborts with probability 2 w0 w1
        found = None
        for seed in range(40):
            rng = np.random.default_rng(seed)
            s = random_strategy(rng, m=1, x_width=1, z_width=1)
            for j in range(1, 5):
                p = PartitionParams(m=1, i=1, gamma0=0.75, T=4,
                                    gamma=0.75 * j / 4, mode="kernel")
                data = spectral_data(s, p)
                mask = threshold_mask(p)
                for idx, theta in enumerate(data.thetas):
                    w1 = float(kernel_masses(theta, p.tau) @ mask)
                    junk = 2.0 * w1 * (1.0 - w1)
                    if junk >= 0.05:
                        found = (s, p, data.alphas_xz[:, idx], junk)
                        break
                if found:
                    break
            if found:
                break
        assert found is not None, "no threshold straddler in the scanned seeds"
        s, p, alpha, junk = found
        psi = StateVector(s.xz_layout(), alpha)
        n_mc = 4000
        aborts = sum(
            isinstance(run_H(s, [p.gamma], "0", psi, np.random.default_rng(k),
                             gamma0=0.75, T=4, mode="kernel"), HAbort)
            for k in range(n_mc))
        assert aborts / n_mc == pytest.approx(junk, abs=0.025)

    def test_argument_validation(self):
        rng = np.random.default_rng(1)
        s = random_strategy(rng, m=2, x_width=1, z_width=1)
        psi = random_xz_state(rng, s)
        with pytest.raises(DimensionMismatch):
            run_H(s, [0.375], "10", psi, rng, gamma0=0.75, T=4)
        zero = StateVector(s.xz_layout(), np.zeros(s.xz_dim, dtype=complex))
        with pytest.raises(ZeroState):
            run_H(s, [0.375, 0.375], "10", zero, rng, gamma0=0.75, T=4)

    @pytest.mark.parametrize("controlled", [False, True])
    @pytest.mark.parametrize("x_width", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_walk_matches_reference_loop(self, m, x_width, controlled):
        rng = np.random.default_rng(300 + 10 * m + 2 * x_width + controlled)
        s = random_strategy(rng, m, x_width=x_width, z_width=1 if m < 3 else 0,
                            controlled=controlled)
        # two inputs, one of them unnormalized, so the table holds several walks
        states = [random_xz_state(rng, s),
                  StateVector(s.xz_layout(), 0.5 * random_xz_state(rng, s).amps)]
        for mode in ("ideal", "kernel"):
            for T in (4, 32):
                grid = gamma_grid(0.75, T)
                gammas = tuple(grid[rng.integers(T)] for _ in range(m))
                for cbits in range(1 << m):
                    c = format(cbits, f"0{m}b")
                    _assert_walk_matches(s, gammas, c, states, seed=cbits + T, calls=100,
                                         gamma0=0.75, T=T, mode=mode)

    def test_errors_are_raised_on_every_call(self):
        rng = np.random.default_rng(2)
        s = random_strategy(rng, m=2, x_width=1, z_width=1)
        zero = StateVector(s.xz_layout(), np.zeros(s.xz_dim, dtype=complex))
        for _ in range(2):
            with pytest.raises(ZeroState):
                run_H(s, _GAMMAS, "10", zero, rng, gamma0=0.75, T=4)
        # the off-grid gamma_2 is refused before step 1 draws, on every call
        s, psi, gamma1 = _low_span_m2()
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        for _ in range(2):
            with pytest.raises(DomainError):
                run_H(s, (gamma1, 0.3), "10", psi, rng, gamma0=0.75, T=4)
            with pytest.raises(DomainError):
                _run_H_reference(s, (gamma1, 0.3), "10", psi, rng, gamma0=0.75, T=4)
            assert rng.bit_generator.state == before
        # and no walk is kept for it
        assert _walks(s._cache.get("table", _Table())) == []

    def test_off_grid_gamma_is_refused_at_every_seed(self):
        # a draw that halts at step 1 must not skip gamma_2's check
        rng = np.random.default_rng(1)
        s = random_strategy(rng, m=2, x_width=1, z_width=1)
        psi = random_xz_state(rng, s)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            before = rng.bit_generator.state
            with pytest.raises(DomainError, match="gamma=0.3 not on the grid"):
                run_H(s, (0.5, 0.3), "10", psi, rng, gamma0=1.0, T=4)
            assert rng.bit_generator.state == before

    @pytest.mark.parametrize("gammas,gamma0,T", [
        ((1.0, 1.0), True, 1), ((1.0, 1.0), 1.0, True), ((True, 1.0), 1.0, 1),
        ((1.0, 1.0), 1.0, 1.0)], ids=["gamma0-bool", "T-bool", "gamma-bool", "T-float"])
    def test_a_warm_walk_excuses_no_check(self, gammas, gamma0, T):
        # each bad value equals a valid one, so it shares the valid call's dict key
        rng = np.random.default_rng(4)
        s = random_strategy(rng, m=2, x_width=1, z_width=1)
        psi = random_xz_state(rng, s)
        for _ in range(3):
            run_H(s, (1.0, 1.0), "10", psi, rng, gamma0=1.0, T=1)
        before = rng.bit_generator.state
        for _ in range(3):
            with pytest.raises(DomainError):
                run_H(s, gammas, "10", psi, rng, gamma0=gamma0, T=T)
        assert rng.bit_generator.state == before
        assert len(_walks(s._cache["table"])) == 1

    def test_shared_states_are_read_only(self):
        rng = np.random.default_rng(6)
        s = random_strategy(rng, m=2, x_width=1, z_width=1)
        psi = random_xz_state(rng, s)
        outs = [run_H(s, _GAMMAS, "01", psi, rng, gamma0=0.75, T=4) for _ in range(200)]
        kept = [(o, _h_state(o).amps.tobytes()) for o in outs if _h_state(o) is not None]
        assert {type(o) for o, _ in kept} == {HBranch, HRemainder}
        for o, _ in kept:
            assert not _h_state(o).amps.flags.writeable
            with pytest.raises(ValueError):
                _h_state(o).amps[0] = 1.0
        for _ in range(200):
            run_H(s, _GAMMAS, "01", psi, rng, gamma0=0.75, T=4)
        assert all(_h_state(o).amps.tobytes() == b for o, b in kept)

    def test_full_table_starts_over(self, monkeypatch):
        # room for two walks of m = 2 over (X, Z) dim 8 (48 numbers each) and
        # the two grid points (32 each) they step through: the table keeps
        # starting over
        monkeypatch.setattr(config, "EXTRACT_TABLE_AMPS", 2 * 48 + 2 * 32)
        rng = np.random.default_rng(8)
        s = random_strategy(rng, m=2, x_width=1, z_width=1)
        states = [random_xz_state(rng, s) for _ in range(4)]
        for c in ("00", "01", "10", "11"):
            _assert_walk_matches(s, _GAMMAS, c, states, seed=9, calls=100,
                                 gamma0=0.75, T=4)
            table = s._cache["table"]
            walks = _walks(table)
            assert table.held == 48 * len(walks) + 32 * (len(table.entries) - len(walks))
            assert table.held <= config.EXTRACT_TABLE_AMPS
            assert len(walks) < 4


_GAMMAS = (0.375, 0.375)


def _walks(table) -> list:
    """The H walks in a strategy's table (its other entries are grid points)."""
    return [v for v in table.entries.values() if isinstance(v, _HWalk)]


class TestEntryPointErrors:
    """Malformed states, params, challenges and coordinates raise typed errors at entry."""

    @pytest.mark.parametrize("call,error", [
        # a (C, X, Z) state where an (X, Z) one belongs, and the reverse
        pytest.param(lambda s, xz, full, rng: run_G(s, _params(m=2), full),
                     DimensionMismatch, id="run_G-state-dim"),
        pytest.param(lambda s, xz, full, rng: run_G_state(s, _params(m=2), full),
                     DimensionMismatch, id="run_G_state-state-dim"),
        pytest.param(lambda s, xz, full, rng: run_H(s, _GAMMAS, "10", full, rng,
                                                    gamma0=0.75, T=4),
                     DimensionMismatch, id="run_H-state-dim"),
        pytest.param(lambda s, xz, full, rng: partition_chain(s, _GAMMAS, "10", full,
                                                              gamma0=0.75, T=4),
                     DimensionMismatch, id="chain-state-dim"),
        pytest.param(lambda s, xz, full, rng: accept_prob(s, 1, "00", full),
                     DimensionMismatch, id="accept-state-dim"),
        pytest.param(lambda s, xz, full, rng: extract(s, _params(m=2), xz, 3, rng),
                     DimensionMismatch, id="extract-state-dim"),
        # params for another m, after the strategy's spectral cache is warm
        pytest.param(lambda s, xz, full, rng: (run_G(s, _params(m=2), xz),
                                               run_G(s, _params(m=3), xz)),
                     DimensionMismatch, id="run_G-params-m-warm"),
        # challenges that are not one bit per coordinate
        pytest.param(lambda s, xz, full, rng: run_H(s, _GAMMAS, "ab", xz, rng,
                                                    gamma0=0.75, T=4),
                     DomainError, id="run_H-challenge-chars"),
        pytest.param(lambda s, xz, full, rng: run_H(s, _GAMMAS, ["1", "0"], xz, rng,
                                                    gamma0=0.75, T=4),
                     DimensionMismatch, id="run_H-challenge-list"),
        pytest.param(lambda s, xz, full, rng: partition_chain(s, _GAMMAS, "ab", xz,
                                                              gamma0=0.75, T=4),
                     DomainError, id="chain-challenge-chars"),
        pytest.param(lambda s, xz, full, rng: partition_chain(s, _GAMMAS, "101", xz,
                                                              gamma0=0.75, T=4),
                     DimensionMismatch, id="chain-challenge-length"),
        pytest.param(lambda s, xz, full, rng: accept_prob(s, 1, "0x", xz),
                     DomainError, id="accept-challenge-chars"),
        pytest.param(lambda s, xz, full, rng: accept_prob(s, 1, "0", xz),
                     DimensionMismatch, id="accept-challenge-length"),
        # a coordinate outside 1..m
        pytest.param(lambda s, xz, full, rng: accept_prob(s, 3, "00", xz),
                     DomainError, id="accept-coordinate-above-m"),
        pytest.param(lambda s, xz, full, rng: accept_prob(s, 0, "00", xz),
                     DomainError, id="accept-coordinate-zero"),
        pytest.param(lambda s, xz, full, rng: extract(s, _params(m=3, i=3), full, 3, rng),
                     DimensionMismatch, id="extract-coordinate-above-m"),
        # a round count that is not an int
        pytest.param(lambda s, xz, full, rng: extract(s, _params(m=2), full, 2.5, rng),
                     DomainError, id="extract-rounds-float"),
        pytest.param(lambda s, xz, full, rng: extract(s, _params(m=2), full, True, rng),
                     DomainError, id="extract-rounds-bool"),
        # params for another m, after the strategy's eigenbasis is warm
        pytest.param(lambda s, xz, full, rng: (run_G_state(s, _params(m=2), xz),
                                               run_G_state(s, _params(m=3), xz)),
                     DimensionMismatch, id="run_G_state-params-m-warm"),
        # a gamma that is not a number, refused by the real-number rule
        pytest.param(lambda s, xz, full, rng: run_H(s, ("a", 0.375), "10", xz, rng,
                                                    gamma0=0.75, T=4),
                     DomainError, id="run_H-gamma-str"),
        pytest.param(lambda s, xz, full, rng: run_H(s, (None, 0.375), "10", xz, rng,
                                                    gamma0=0.75, T=4),
                     DomainError, id="run_H-gamma-None"),
        pytest.param(lambda s, xz, full, rng: partition_chain(s, ("a", 0.375), "10", xz,
                                                              gamma0=0.75, T=4),
                     DomainError, id="chain-gamma-str"),
        pytest.param(lambda s, xz, full, rng: partition_chain(s, (None, 0.375), "10", xz,
                                                              gamma0=0.75, T=4),
                     DomainError, id="chain-gamma-None"),
        # params for another m, after the strategy's extractor graph is warm
        pytest.param(lambda s, xz, full, rng: (extract(s, _params(m=2), full, 3, rng),
                                               extract(s, _params(m=1), full, 3, rng)),
                     DimensionMismatch, id="extract-params-m"),
    ])
    def test_typed_error(self, call, error):
        rng = np.random.default_rng(5)
        s = random_strategy(rng, m=2, x_width=1, z_width=1)
        xz = random_xz_state(rng, s)
        full = StateVector(s.layout(), np.ones(s.dim, dtype=complex))
        with pytest.raises(error):
            call(s, xz, full, rng)


class TestBuilderIntegerRule:
    """random_strategy, gamma_grid and the test-round probability take counts by the integer rule."""

    @pytest.mark.parametrize("kw,name", [
        (dict(m="1"), "m"), (dict(m=0), "m"), (dict(m=True), "m"), (dict(m=1.0), "m"),
        (dict(m=1, x_width=-1), "x_width"), (dict(m=1, x_width=0), "x_width"),
        (dict(m=1, x_width="1"), "x_width"), (dict(m=1, z_width=-1), "z_width"),
        (dict(m=1, z_width=None), "z_width")])
    def test_random_strategy_refuses_before_its_first_draw(self, kw, name):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(DomainError, match=f"{name}="):
            random_strategy(rng, **kw)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("kw,name", [
        (dict(m=1.0), "m"), (dict(m=True), "m"), (dict(m=0), "m"), (dict(m=10**30), "m"),
        (dict(x_width=0), "x_width"), (dict(x_width=True), "x_width"),
        (dict(z_width="1"), "z_width"), (dict(z_width=-1), "z_width")])
    def test_prover_strategy_sizes(self, kw, name):
        # each size is checked before dim is read, so none escapes as TypeError or overflow
        sizes = {**dict(m=1, x_width=1, z_width=1), **kw}
        with pytest.raises(DomainError, match=f"{name}="):
            ProverStrategy(u=Operator.unitary(np.eye(8)), accept_sets=(frozenset({"0"}),), **sizes)

    @pytest.mark.parametrize("accept_sets,error", [
        (None, DimensionMismatch), (frozenset({"0"}), DimensionMismatch), ("0", DimensionMismatch),
        ((None,), DomainError), (("0",), DomainError), (({0},), DomainError),
        ((frozenset({"0", 1}),), DomainError), ((frozenset({None}),), DomainError)])
    def test_prover_strategy_accept_sets(self, accept_sets, error):
        # a malformed acceptance set is refused with a typed error, never a builtin TypeError
        with pytest.raises(error, match="accept"):
            ProverStrategy(m=1, x_width=1, z_width=1, u=Operator.unitary(np.eye(8)),
                           accept_sets=accept_sets)

    def test_prover_strategy_accepts_a_list_of_sets(self):
        s = ProverStrategy(m=1, x_width=1, z_width=1, u=Operator.unitary(np.eye(8)),
                           accept_sets=[{"0", "1"}])
        assert s.accept_sets == [{"0", "1"}]

    def test_random_strategy_draws_are_unchanged(self):
        want = random_strategy(np.random.default_rng(3), m=2, x_width=1, z_width=0)
        got = random_strategy(np.random.default_rng(3), m=np.int64(2),
                              x_width=np.int64(1), z_width=np.int64(0))
        assert got.u.mat.tobytes() == want.u.mat.tobytes()
        assert got.accept_sets == want.accept_sets

    @pytest.mark.parametrize("T", ["4", 0, -1, 4.0, True, None])
    def test_gamma_grid_refuses(self, T):
        with pytest.raises(DomainError, match="T="):
            gamma_grid(1.0, T)

    @pytest.mark.parametrize("i", ["1", 1.0, True, None, 0, 3])
    def test_round_probability_coordinate(self, i):
        rng = np.random.default_rng(5)
        s = random_strategy(rng, m=2, x_width=1, z_width=1)
        psi = random_xz_state(rng, s)
        with pytest.raises(DomainError, match="i="):
            accept_prob(s, i, "01", psi)
        assert accept_prob(s, np.int64(2), "01", psi) == accept_prob(s, 2, "01", psi)


class TestPartitionChain:
    @pytest.mark.parametrize("mode", ["ideal", "kernel"])
    def test_telescoping_reconstruction(self, mode):
        rng = np.random.default_rng(91)
        s = random_strategy(rng, m=2, x_width=1, z_width=1)
        grid = gamma_grid(0.75, 4)
        psi = random_xz_state(rng, s)
        chain = partition_chain(s, (grid[1], grid[2]), "01", psi,
                                gamma0=0.75, T=4, mode=mode)
        total = sum(chain.kept_norms2) + chain.remainder_norm2 + sum(chain.err_norms2)
        # branch masses never exceed the input; ideal mode splits exactly
        assert sum(chain.kept_norms2) + chain.remainder_norm2 <= psi.norm2 + 1e-9
        if mode == "ideal":
            assert total == pytest.approx(psi.norm2, abs=1e-9)
        assert sum(chain.err_norms2) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_remainder_average_bound(self, m):
        # E_c[\|psi_{cbar_1..cbar_m}\|^2] <= 2^-m, exhaustively over c
        rng = np.random.default_rng(100 + m)
        s = random_strategy(rng, m=m, x_width=1, z_width=1)
        grid = gamma_grid(0.75, 4)
        gam = tuple(grid[(k * 2) % 4] for k in range(m))
        psi = random_xz_state(rng, s)
        total = 0.0
        for cbits in range(1 << m):
            c = format(cbits, f"0{m}b")
            total += partition_chain(s, gam, c, psi, gamma0=0.75, T=4).remainder_norm2
        assert total / (1 << m) <= 2.0 ** -m + 1e-9

    def test_gammahat_average_err_bound_m3(self):
        # E over the full gamma-tuple grid of the accumulated err mass
        rng = np.random.default_rng(123)
        m, T = 3, 16
        s = random_strategy(rng, m=m, x_width=1, z_width=1)
        grid = gamma_grid(1.0, T)
        psi = random_xz_state(rng, s)
        rng_c = np.random.default_rng(7)
        total = 0.0
        count = 0
        for g1 in grid:
            for g2 in grid:
                for g3 in grid:
                    c = format(rng_c.integers(8), "03b")
                    chain = partition_chain(s, (g1, g2, g3), c, psi,
                                            gamma0=1.0, T=T)
                    total += sum(chain.err_norms2)
                    count += 1
        assert count == T ** 3
        assert total / count <= 6.0 * m * m / T + 0.05


# ---------------------------------------------------------------------------
# Extractor


def _recurrence_oracle(p, n):
    # independent route: iterate the success/failure pair from the
    # conditioned-state analysis instead of the closed form
    pk, pk_perp = 0.0, 0.0
    for _ in range(n):
        pk, pk_perp = (
            p + (1 - p) ** 2 * pk + (1 - p) * p * pk_perp,
            (1 - p) + p * (1 - p) * pk + p * p * pk_perp,
        )
    return pk


class TestExtractor:
    def test_common_eigenvector_succeeds_first_round(self):
        s = _trivial_strategy()
        p = _params()
        # (C=0, X1=0, Z=0): a (1,1) vector of the projector pair
        amps = np.zeros(s.dim, dtype=np.complex128)
        amps[0] = 1.0
        for k in range(20):
            out = extract(s, p, StateVector(s.layout(), amps), 1,
                          np.random.default_rng(k))
            assert out.success and out.rounds_used == 1
            assert out.a_i in s.accept_sets[0]

    def test_half_block_two_rounds_monte_carlo(self):
        s = single_block_strategy(0.5)
        p = _params(gamma0=1.0, T=4, j=1)
        amps = np.zeros(4, dtype=np.complex128)
        amps[0] = 1.0
        st = StateVector(s.layout(), amps)
        n_mc = 10_000
        wins = sum(extract(s, p, st, 2, np.random.default_rng(k)).success
                   for k in range(n_mc))
        assert wins / n_mc == pytest.approx(0.75, abs=0.02)
        assert ext_success_formula(0.5, 2) == pytest.approx(0.75)

    def test_dead_block_always_fails(self):
        s = single_block_strategy(0.0)
        p = _params(gamma0=1.0, T=4, j=1)
        amps = np.zeros(4, dtype=np.complex128)
        amps[0] = 1.0
        st = StateVector(s.layout(), amps)
        for k in range(30):
            out = extract(s, p, st, 5, np.random.default_rng(k))
            assert not out.success
            assert out.rounds_used == 5

    @pytest.mark.parametrize("p,n", [(0.1, 1), (0.3, 10), (0.9, 10)])
    def test_monte_carlo_tracks_formula(self, p, n):
        s = single_block_strategy(p)
        pp = _params(gamma0=1.0, T=4, j=1)
        amps = np.zeros(4, dtype=np.complex128)
        amps[0] = 1.0
        st = StateVector(s.layout(), amps)
        n_mc = 3000
        wins = sum(extract(s, pp, st, n, np.random.default_rng(10 * k + 1)).success
                   for k in range(n_mc))
        assert wins / n_mc == pytest.approx(ext_success_formula(p, n), abs=0.03)

    def test_validation(self):
        s = single_block_strategy(0.5)
        pp = _params(gamma0=1.0, T=4, j=1)
        amps = np.zeros(4, dtype=np.complex128)
        amps[0] = 1.0
        with pytest.raises(DomainError):
            extract(s, pp, StateVector(s.layout(), amps), 0, np.random.default_rng(0))
        with pytest.raises(ZeroState):
            extract(s, pp, StateVector(s.layout(), np.zeros(4, dtype=complex)), 1,
                    np.random.default_rng(0))


class TestSingleBlockStrategy:
    # sha256 over U's bytes at p = 0, 0.1, 0.3, 0.5, 0.9 and 1, the values
    # criterion 04 and the benchmark use
    DIGEST = "80e826b28a3217c22e77e13c97ad99ddde754bb86e79f8d9698614788f01ceaf"

    def test_pinned_unitaries(self):
        h = hashlib.sha256()
        for p in (0.0, 0.1, 0.3, 0.5, 0.9, 1.0):
            h.update(single_block_strategy(p).u.mat.tobytes())
        assert h.hexdigest() == self.DIGEST

    def test_unitary_for_every_p(self):
        # near p = 1 the Gram-Schmidt residual sqrt(1 - p) is tiny; it must
        # not be taken as a basis vector
        ps = list(np.linspace(0.0, 1.0, 4001)) + [1 - 10.0**-k for k in range(1, 17)] \
            + [1 - 2.0**-k for k in range(1, 54)]
        for p in ps:
            s = single_block_strategy(float(p))
            assert s.u.kind == "unitary"


class TestExtractFormula:
    def test_pins(self):
        assert ext_success_formula(1.0, 7) == 1.0
        assert ext_success_formula(0.5, 2) == 0.75
        for p in (0.0, 0.2, 0.9):
            assert ext_success_formula(p, 1) == pytest.approx(p)

    def test_matches_recurrence_iteration(self):
        for p in np.linspace(0.0, 1.0, 21):
            for n in range(1, 13):
                want = _recurrence_oracle(float(p), n)
                assert ext_success_formula(float(p), n) == pytest.approx(want, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            ext_success_formula(1.2, 3)
        with pytest.raises(DomainError):
            ext_success_formula(0.5, 0)

    def test_monotone_in_rounds(self):
        vals = [ext_success_formula(0.3, n) for n in range(1, 30)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


# ---------------------------------------------------------------------------
# Cauchy-Schwarz bound


class TestCauchySchwarz:
    def test_random_decompositions(self):
        rng = np.random.default_rng(131)
        from cvqc_lab.jordan import random_projector
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            n_pieces = int(rng.integers(1, 5))
            proj = random_projector(rng, dim, int(rng.integers(1, dim)))
            pieces = [rng.normal(size=dim) + 1j * rng.normal(size=dim)
                      for _ in range(n_pieces)]
            lhs, rhs = cs_bound(pieces, proj)
            assert lhs <= rhs + 1e-9

    def test_single_piece_is_tight(self):
        rng = np.random.default_rng(7)
        from cvqc_lab.jordan import random_projector
        proj = random_projector(rng, 6, 2)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        lhs, rhs = cs_bound([v], proj)
        assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# Spectral data and the tau accuracy guarantee


class TestSpectralData:
    def test_components_are_consistent(self):
        rng = np.random.default_rng(19)
        s = random_strategy(rng, m=2, x_width=1, z_width=1)
        p = _params(m=2, i=2)
        data = spectral_data(s, p)
        xz = s.xz_dim
        # alpha columns are orthonormal and live in the C=0 slice
        g = data.alphas_xz.conj().T @ data.alphas_xz
        assert np.max(np.abs(g - np.eye(g.shape[0]))) <= 1e-8
        assert np.all(data.pvals >= -1e-12) and np.all(data.pvals <= 1 + 1e-12)
        assert np.all(data.thetas > 0) and np.all(data.thetas < np.pi)
        # caching: same object on repeat call
        assert spectral_data(s, p) is data
        # run_G_state's eigenbasis, from its own cached dense route
        full, _ = eigenbasis(s, p)
        assert np.max(np.abs(full.conj().T @ full - np.eye(s.dim))) <= 1e-8
        assert eigenbasis(s, p)[0] is full

    def test_tau_rounding_accuracy(self):
        # the tau formula keeps the decoded cos^2 within delta/2 of the truth
        rng = np.random.default_rng(23)
        p = _params(gamma0=0.75, T=4, j=2)
        tau = p.tau
        for _ in range(300):
            theta = rng.uniform(-np.pi, np.pi)
            lab = phase_label(theta, tau)
            decoded = np.cos(np.pi * lab / (1 << tau)) ** 2
            assert abs(decoded - np.cos(theta / 2.0) ** 2) <= p.delta / 2 + 1e-12


def _dense_blocks(s, p):
    """(alphas, thetas, pvals, v11, v10) of the dense route, as full-dim columns."""
    dec = jordan_decompose(*build_projectors(s, p))

    def cols(vs):
        return np.column_stack(vs) if vs else np.zeros((s.dim, 0), dtype=np.complex128)

    return (cols([blk.alpha for blk in dec.blocks2d]),
            np.array([blk.theta for blk in dec.blocks2d]),
            np.array([blk.p for blk in dec.blocks2d]),
            cols([blk.vector for blk in dec.blocks1d if (blk.b, blk.c) == (1, 1)]),
            cols([blk.vector for blk in dec.blocks1d if (blk.b, blk.c) == (1, 0)]))


def _outer(cols, weights=1.0):
    return (cols * weights) @ cols.conj().T


def _route_cases():
    cases = []
    for m in range(1, 5):
        for controlled in (False, True):
            cases.append(pytest.param(
                lambda m=m, c=controlled: random_strategy(
                    np.random.default_rng(1000 + m), m=m, controlled=c),
                id=f"random-m{m}-{'ctl' if controlled else 'joint'}"))
    for m in (1, 2):
        cases.append(pytest.param(lambda m=m: random_strategy(
            np.random.default_rng(2000 + m), m=m, x_width=2), id=f"random-m{m}-x2"))
    for pv in (0.0, 0.3, 1.0):
        cases.append(pytest.param(lambda pv=pv: single_block_strategy(pv),
                                  id=f"single-block-{pv}"))
    cases.append(pytest.param(_trivial_strategy, id="identity-m1"))
    cases.append(pytest.param(lambda: ProverStrategy(
        m=2, x_width=1, z_width=1, u=Operator.unitary(np.eye(32, dtype=np.complex128)),
        accept_sets=(frozenset({"0"}), frozenset({"1"}))), id="identity-m2"))
    cases.append(pytest.param(lambda: ProverStrategy(
        m=1, x_width=1, z_width=1,
        u=Operator.unitary(haar_unitary(np.random.default_rng(3), 8)),
        accept_sets=(frozenset({"0", "1"}),)), id="accept-all"))
    return cases


class TestSpectralRoutes:
    """spectral_data (principal angles) against jordan_decompose (dense unitary_eig route)."""

    @pytest.mark.parametrize("make", _route_cases())
    def test_blocks_match_dense_route(self, make):
        s = make()
        for i in range(1, s.m + 1):
            p = _params(m=s.m, i=i)
            data = spectral_data(s, p)
            alphas, thetas, pvals, v11, v10 = _dense_blocks(s, p)
            assert data.alphas_xz.shape[1] == alphas.shape[1]
            assert data.v11_xz.shape[1] == v11.shape[1]
            assert data.v10_xz.shape[1] == v10.shape[1]
            assert np.max(np.abs(data.thetas - thetas), initial=0.0) <= 1e-12
            assert np.max(np.abs(data.pvals - pvals), initial=0.0) <= 1e-12

            def embed(xz_cols):
                out = np.zeros((s.dim, xz_cols.shape[1]), dtype=np.complex128)
                out[:s.xz_dim] = xz_cols
                return out

            # the p-weighted alpha projector pins each alpha to its p
            pairs = [(data.alphas_xz, alphas, 1.0, 1.0),
                     (data.alphas_xz, alphas, data.pvals, pvals),
                     (data.v11_xz, v11, 1.0, 1.0),
                     (data.v10_xz, v10, 1.0, 1.0)]
            for ours, theirs, w_ours, w_theirs in pairs:
                diff = _outer(embed(ours), w_ours) - _outer(theirs, w_theirs)
                assert np.max(np.abs(diff)) <= 1e-12


def _reference_frame(strategy, i):
    w = _rotated_frame(strategy, i)
    return w, w.conj().T, _accept_mask(strategy, i), strategy.layout().values(f"X{i}")


def _extract_reference(frame, strategy, state, n_rounds, rng):
    # the plain alternating loop, one numpy pass per measurement; extract
    # must reproduce its outcomes and its RNG use exactly
    w, wd, acc, xi_vals = frame
    xz = strategy.xz_dim
    amps = state.amps.astype(np.complex128, copy=True)
    nrm = np.linalg.norm(amps)
    if nrm**2 <= config.ZERO_STATE_TOL:
        raise ZeroState("extractor input has zero norm")
    amps /= nrm

    for rnd in range(1, n_rounds + 1):
        rotated = w @ amps
        hit = rotated * acc
        p_hit = float(np.vdot(hit, hit).real)
        if rng.random() < p_hit:
            # the X_i outcome masses of the accepted part, read in place
            masses = np.bincount(xi_vals, weights=(hit.conj() * hit).real,
                                 minlength=1 << strategy.x_width)
            outcome = int(rng.choice(len(masses), p=masses / masses.sum()))
            return ExtractOutcome(a_i=format(outcome, f"0{strategy.x_width}b"), rounds_used=rnd)
        amps = wd @ (rotated - hit)
        p_in = float(np.vdot(amps[:xz], amps[:xz]).real / np.vdot(amps, amps).real)
        if rng.random() < p_in:
            amps[xz:] = 0.0
        else:
            amps[:xz] = 0.0
        amps /= np.linalg.norm(amps)
    return ExtractOutcome(a_i=None, rounds_used=n_rounds)


def _assert_routes_agree(s, i, states, n, seed, calls):
    pp = PartitionParams(s.m, i, 1.0, 4, 0.25)
    frame = _reference_frame(s, i)
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for k in range(calls):
        st = states[k % len(states)]
        assert extract(s, pp, st, n, fast) == _extract_reference(frame, s, st, n, slow)
    assert fast.bit_generator.state == slow.bit_generator.state


def _graph_kind(key) -> str:
    """What an extractor table's key holds: a root is keyed on the input's
    bytes, a node on (its amplitude bytes,), an outcome on (a_i, rounds_used)."""
    if isinstance(key, bytes):
        return "root"
    return "node" if len(key) == 1 else "outcome"


def _graph_entries(graph, kind: str) -> dict:
    return {k: v for k, v in graph.table.entries.items() if _graph_kind(k) == kind}


def _graph_count(graph) -> int:
    """The numbers an extractor table's entries count: dim per root, 2 dim
    per node (its miss vector and CDF), 1 per outcome."""
    dim = len(graph.w)
    sizes = {"root": dim, "node": 2 * dim, "outcome": 1}
    return sum(sizes[_graph_kind(k)] for k in graph.table.entries)


class TestExtractorGraph:
    @pytest.mark.parametrize("controlled", [False, True])
    @pytest.mark.parametrize("x_width", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_reference_loop(self, m, x_width, controlled):
        rng = np.random.default_rng(100 * m + 10 * x_width + controlled)
        s = random_strategy(rng, m, x_width=x_width, z_width=1 if m < 3 else 0,
                            controlled=controlled)
        # one input inside Pi_in, one spread over every challenge block
        inside = np.zeros(s.dim, dtype=np.complex128)
        inside[:s.xz_dim] = random_xz_state(rng, s).amps
        spread = rng.normal(size=s.dim) + 1j * rng.normal(size=s.dim)
        states = [StateVector(s.layout(), inside), StateVector(s.layout(), spread)]
        for i in range(1, m + 1):
            for n in (1, 2, 10):
                _assert_routes_agree(s, i, states, n, seed=7 * i + n, calls=40)

    def test_state_mutated_in_place_between_calls(self):
        s = random_strategy(np.random.default_rng(71), 2, x_width=1, z_width=1)
        amps = np.zeros(s.dim, dtype=np.complex128)
        amps[0] = 1.0
        st = StateVector(s.layout(), amps)
        for k in range(6):
            _assert_routes_agree(s, 1, [st], 10, seed=k, calls=30)
            st.amps[k % s.xz_dim] += 0.5 - 0.25j

    @pytest.mark.parametrize("p", [0.0, 1e-300, 1 - 1e-16, 1.0])
    def test_degenerate_blocks_raise_no_warning(self, p):
        s = single_block_strategy(p)
        amps = np.zeros(4, dtype=np.complex128)
        amps[0] = 1.0
        st = StateVector(s.layout(), amps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1, 2, 10):
                _assert_routes_agree(s, 1, [st], n, seed=n, calls=50)

    def test_single_block_holds_few_states(self):
        s = single_block_strategy(0.3)
        amps = np.zeros(4, dtype=np.complex128)
        amps[0] = 1.0
        _assert_routes_agree(s, 1, [StateVector(s.layout(), amps)], 50, seed=3, calls=500)
        assert 2 <= len(_graph_entries(s._cache[("extract", 1)], "node")) <= 4

    def test_full_table_starts_over(self, monkeypatch):
        # room for 4 nodes of dim 16 (32 numbers each): the walk keeps
        # clearing its table
        monkeypatch.setattr(config, "EXTRACT_TABLE_AMPS", 4 * 32)
        rng = np.random.default_rng(73)
        s = random_strategy(rng, 1, x_width=2, z_width=1)
        states = [StateVector(s.layout(), rng.normal(size=s.dim) + 0j) for _ in range(5)]
        _assert_routes_agree(s, 1, states, 10, seed=5, calls=200)
        graph = s._cache[("extract", 1)]
        assert len(_graph_entries(graph, "node")) <= 4
        assert graph.table.held == _graph_count(graph) <= config.EXTRACT_TABLE_AMPS

    def test_equal_outcomes_are_one_shared_object(self):
        rng = np.random.default_rng(74)
        s = random_strategy(rng, 2, x_width=2, z_width=1)
        st = StateVector(s.layout(), rng.normal(size=s.dim) + 0j)
        pp = PartitionParams(2, 2, 1.0, 4, 0.25)
        shared = {}
        for n in (1, 3, 10):
            for _ in range(200):
                o = extract(s, pp, st, n, rng)
                assert shared.setdefault((o.a_i, o.rounds_used), o) is o
        assert any(a is None for a, _ in shared) and len(shared) > 4
        assert _graph_entries(s._cache[("extract", 2)], "outcome") == shared

    def test_outcome_table_empties_when_graph_starts_over(self, monkeypatch):
        # room for one root of dim 4 (4 numbers), its node (8) and one
        # outcome (1): a second root starts the graph over
        monkeypatch.setattr(config, "EXTRACT_TABLE_AMPS", 13)
        s = single_block_strategy(1.0)
        amps = np.zeros(4, dtype=np.complex128)
        amps[0] = 1.0
        pp = PartitionParams(1, 1, 1.0, 4, 0.25)
        rng = np.random.default_rng(75)
        first = extract(s, pp, StateVector(s.layout(), amps), 5, rng)
        assert (first.a_i, first.rounds_used) == ("0", 1)
        assert extract(s, pp, StateVector(s.layout(), amps), 5, rng) is first
        graph = s._cache[("extract", 1)]
        assert _graph_entries(graph, "outcome") == {("0", 1): first}
        again = extract(s, pp, StateVector(s.layout(), 2 * amps), 5, rng)
        assert again == first and again is not first
        outcomes = _graph_entries(graph, "outcome")
        assert list(outcomes.values()) == [again]
        assert [o is again for o in outcomes.values()] == [True]

    def test_replaced_strategy_gets_fresh_table(self):
        rng = np.random.default_rng(72)
        s = random_strategy(rng, 1, x_width=1, z_width=1)
        st = StateVector(s.layout(), np.eye(s.dim, dtype=np.complex128)[0])
        _assert_routes_agree(s, 1, [st], 10, seed=1, calls=50)
        assert _graph_entries(s._cache[("extract", 1)], "node")
        r = replace(s, u=Operator.unitary(haar_unitary(rng, s.dim)))
        assert ("extract", 1) not in r._cache
        _assert_routes_agree(r, 1, [st], 10, seed=1, calls=50)
        assert r._cache[("extract", 1)] is not s._cache[("extract", 1)]


class TestBoundedTables:
    def test_mixed_traffic_matches_references_within_budget(self, monkeypatch):
        # m = 2 over dim 32, (X, Z) dim 8: grid points count 32 numbers, H
        # walks 48, extractor roots 32 and nodes 64, so a budget of 320
        # keeps every table starting over while the calls interleave
        monkeypatch.setattr(config, "EXTRACT_TABLE_AMPS", 320)
        rng = np.random.default_rng(45)
        s = random_strategy(rng, 2, x_width=1, z_width=1)
        psi = random_xz_state(rng, s)
        h_states = [psi, StateVector(s.xz_layout(), 0.5 * random_xz_state(rng, s).amps)]
        wide = [StateVector(s.layout(), rng.normal(size=s.dim) + 1j * rng.normal(size=s.dim))
                for _ in range(2)]
        frames = {i: _reference_frame(s, i) for i in (1, 2)}
        grid = gamma_grid(0.75, 16)
        gamma_pairs = [(float(grid[3]), float(grid[11])), (float(grid[8]), float(grid[8]))]
        fast, slow = np.random.default_rng(46), np.random.default_rng(46)
        held, starts = {}, {}

        def check_budgets():
            for name in ("table", ("extract", 1), ("extract", 2)):
                if name not in s._cache:
                    continue
                table = s._cache[name] if name == "table" else s._cache[name].table
                assert table.held <= config.EXTRACT_TABLE_AMPS
                starts[name] = starts.get(name, 0) + (table.held < held.get(name, 0))
                held[name] = table.held

        for k in range(96):
            i, mode = 1 + k % 2, ("ideal", "kernel")[k // 16 % 2]
            p = PartitionParams(2, i, 0.75, 16, 0.75 * (k % 16 + 1) / 16, mode)
            _assert_same_outcome(run_G(s, p, psi), _run_G_reference(s, p, psi))
            check_budgets()
            gammas, c, h_psi = gamma_pairs[k % 2], format(k % 4, "02b"), h_states[k // 4 % 2]
            kw = dict(gamma0=0.75, T=16, mode=mode)
            got = run_H(s, gammas, c, h_psi, fast, **kw)
            want = _run_H_reference(s, gammas, c, h_psi, slow, **kw)
            assert type(got) is type(want)
            assert getattr(got, "stop_index", None) == getattr(want, "stop_index", None)
            if _h_state(want) is not None:
                assert _h_state(got).amps.tobytes() == _h_state(want).amps.tobytes()
            check_budgets()
            st = wide[k // 3 % 2]
            ext_params = PartitionParams(2, i, 1.0, 4, 0.25)
            assert extract(s, ext_params, st, 10, fast) == \
                _extract_reference(frames[i], s, st, 10, slow)
            assert fast.bit_generator.state == slow.bit_generator.state
            check_budgets()
        assert all(n > 0 for n in starts.values()), starts


class TestExtractorStream:
    # sha256 over criterion 04's 16 (p, N) cells, its seeds, 500 calls per
    # cell: every (a_i, rounds_used), then the generator state after the
    # cell, so a changed draw count shows up too
    DIGEST = "d34abc6207ba79c2cf703b2a21d3f44860d5579d2b79be98b0ef6259498a2e62"

    def test_outcome_stream_is_pinned(self):
        h = hashlib.sha256()
        pp = PartitionParams(1, 1, 1.0, 4, 0.25)
        for pi, p in enumerate((0.1, 0.3, 0.5, 0.9)):
            s = single_block_strategy(p)
            amps = np.zeros(4, dtype=np.complex128)
            amps[0] = 1.0
            st = StateVector(s.layout(), amps)
            for ni, n in enumerate((1, 2, 10, 50)):
                rng = np.random.default_rng(4000 + 10 * pi + ni)
                for _ in range(500):
                    o = extract(s, pp, st, n, rng)
                    h.update(repr((o.a_i, o.rounds_used)).encode())
                h.update(rng.bit_generator.state["state"]["state"].to_bytes(16, "big"))
        assert h.hexdigest() == self.DIGEST


class TestHaarUnitary:
    def test_same_bytes_as_summed_draws(self):
        # the Ginibre matrix is built in place, from the draws a + 1j b made
        for k in range(30):
            dim = (2, 8, 64)[k % 3]
            ref = np.random.default_rng(k)
            g = ref.standard_normal((dim, dim)) + 1j * ref.standard_normal((dim, dim))
            q, r = np.linalg.qr(g)
            d = np.diag(r)
            rng = np.random.default_rng(k)
            assert haar_unitary(rng, dim).tobytes() == (q * (d / np.abs(d))).tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state


class TestDerivedData:
    def test_replaced_unitary_gets_fresh_spectral_data(self):
        rng = np.random.default_rng(61)
        s = random_strategy(rng, 1, x_width=2, z_width=1)
        p = _params()
        old = spectral_data(s, p)
        u = Operator.unitary(haar_unitary(rng, s.dim))
        got = spectral_data(replace(s, u=u), p)
        want = spectral_data(ProverStrategy(m=1, x_width=2, z_width=1, u=u,
                                            accept_sets=s.accept_sets), p)
        assert got is not old
        assert np.array_equal(got.thetas, want.thetas)
        assert np.array_equal(got.alphas_xz, want.alphas_xz)
        assert spectral_data(s, p) is old

    def test_derived_builds_once_per_key(self):
        s = _trivial_strategy()
        calls = []

        def build(*args):
            calls.append(args)
            return len(calls)

        assert s.derived("k", build, 1, 2) == 1
        assert s.derived("k", build, 3) == 1
        assert s.derived("j", build) == 2
        assert calls == [(1, 2), ()]


class TestRngRule:
    """Every sampler refuses an rng that is no numpy Generator before its first draw."""

    @staticmethod
    def _calls():
        s = single_block_strategy(0.3)
        full = StateVector(s.layout(), np.eye(s.dim)[0])
        params = PartitionParams(1, 1, 1.0, 4, 0.25)
        return [lambda rng: random_strategy(rng, m=1),
                lambda rng: random_strategy(rng, m=1, controlled=True),
                lambda rng: haar_unitary(rng, 2),
                lambda rng: random_accept_sets(rng, 1, 1),
                lambda rng: random_xz_state(rng, s),
                lambda rng: extract(s, params, full, 3, rng),
                lambda rng: run_H(s, (0.25,), "0", StateVector(s.xz_layout(), [1.0, 0.0]), rng,
                                  gamma0=1.0, T=4)]

    @pytest.mark.parametrize("bad", [None, 0, "rng", np.random.PCG64(0)])
    def test_refused(self, bad):
        for call in self._calls():
            with pytest.raises(NotAGenerator, match="not a numpy.random.Generator"):
                call(bad)

    def test_a_legacy_random_state_is_refused_untouched(self):
        # RandomState has random(), normal() and standard_normal(), so only
        # the type check keeps the samplers from drawing from it
        for call in self._calls():
            rs = np.random.RandomState(0)
            with pytest.raises(NotAGenerator):
                call(rs)
            assert rs.random_sample() == np.random.RandomState(0).random_sample()


class TestOverflowingNorm:
    """A finite state whose squared norm overflows is refused by run_H and
    extract, as qsim's outcome_probs refuses it, before any draw."""

    @staticmethod
    def _refused(call):
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteAmplitude, match="overflows"):
                call(rng)
        assert rng.bit_generator.state == before

    # complex amplitudes overflow to NaN, not inf, in vdot's real part
    @pytest.mark.parametrize("amps", [[1e200, 0.0], [1e160, 1e160], [1e160 + 1e160j, 0.0]])
    def test_run_H(self, amps):
        s = single_block_strategy(0.3)
        psi = StateVector(s.xz_layout(), amps)
        for _ in range(2):  # a refused input keeps being refused
            self._refused(lambda rng: run_H(s, (0.25,), "0", psi, rng, gamma0=1.0, T=4))

    @pytest.mark.parametrize("amps", [[1e200, 0, 0, 0], [0, 1e160, 0, 1e160],
                                      [1e160 + 1e160j, 0, 0, 0]])
    def test_extract(self, amps):
        s = single_block_strategy(0.3)
        p = PartitionParams(m=1, i=1, gamma0=1.0, T=4, gamma=0.25)
        state = StateVector(s.layout(), amps)
        for _ in range(2):
            self._refused(lambda rng: extract(s, p, state, 3, rng))

    def test_large_finite_norms_still_run(self):
        # 1e153 squared stays finite: the input is normalized as before
        s = single_block_strategy(0.3)
        p = PartitionParams(m=1, i=1, gamma0=1.0, T=4, gamma=0.25)
        big = extract(s, p, StateVector(s.layout(), [1e153, 0, 0, 0]), 3, np.random.default_rng(7))
        unit = extract(s, p, StateVector(s.layout(), [1.0, 0, 0, 0]), 3, np.random.default_rng(7))
        assert big == unit
        for seed in range(8):
            big, unit = (run_H(s, (0.25,), "0", StateVector(s.xz_layout(), [scale, 0]),
                               np.random.default_rng(seed), gamma0=1.0, T=4)
                         for scale in (1e153, 1.0))
            assert type(big) is type(unit)


@pytest.mark.parametrize("fill", [np.nan, np.inf])
def test_a_non_finite_unitary_never_reaches_run_G(fill):
    # refused where it is built, so run_G's SVD never sees a NaN
    u = np.eye(8, dtype=np.complex128)
    u[3, 3] = fill
    with np.errstate(invalid="ignore"):
        with pytest.raises(NotUnitary):
            ProverStrategy(m=1, x_width=1, z_width=1, u=Operator.unitary(u),
                           accept_sets=(frozenset({"0"}),))
    with pytest.raises(NotUnitary, match="not a unitary Operator"):
        ProverStrategy(m=1, x_width=1, z_width=1, u=u, accept_sets=(frozenset({"0"}),))
