"""Phase-estimation partition procedures over a two-projector structure.

The objects here operate on a prover strategy given by a unitary U over
registers (C, X, Z) and per-coordinate acceptance sets.  Two projectors
anchor everything:

    Pi_in    = |0^m><0^m|_C (x) I_{X,Z}
    Pi_i,out = (U H_{C-i})^dag (acceptance projector on X_i) (U H_{C-i})

where H_{C-i} applies Hadamards to every challenge qubit except the i-th.
The product of the associated reflections is phase estimated; a threshold
on cos^2(theta/2) then splits a state into a low branch psi_0, a high
branch psi_1, and a residual psi_err.

Two execution routes are kept deliberately separate:

  - run_G computes the branch components in the Jordan eigenbasis with a
    closed-form phase-estimation kernel.  It reads the blocks as
    principal angles (spectral_data: one SVD of the small acc x xz block
    of U H_{C-i}), never builds a dense projector or the ancilla
    registers, and is fast enough for exhaustive grid sweeps.
  - run_G_state executes the literal pipeline U_in U_est^dag U_th U_est
    on the full register space (C, X_1..X_m, Z, ph, th, in), in the Q
    eigenbasis of the dense route (eigenbasis: jordan_decompose on
    build_projectors, via jordan.unitary_eig).

Tests cross-check the two routes, and so the two spectral sources,
against each other; do not collapse them into one.

The sampled procedures, H (run_H) and the extractor (extract), walk the
states they reach: every step's numbers are computed once per distinct
state, by the plain loop's own arithmetic, so the draws and outcomes are
the loop's bit for bit, and a call costs little more than its draws.  An
extractor node is made whole, with every number a round reads from it,
when its graph first reaches its state; the extractor shares its outcomes
too.  run_G reads the conjugate frame kept in SpectralData and the
gamma-dependent vectors of its grid point, both built once by its own
arithmetic.  Every cache of states is a _Table, bounded by one rule: each
entry counts the numbers it may hold, and the table starts over before
their total would pass EXTRACT_TABLE_AMPS.  A strategy's table holds its
grid points and H walks; each extractor graph has its own.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import config
from .jordan import jordan_decompose
from .qsim import (
    DimensionMismatch,
    NotUnitary,
    Operator,
    RegisterLayout,
    StateVector,
    ZeroState,
)


class DomainError(Exception):
    """Argument outside the mathematical domain of a closed form."""


# ---------------------------------------------------------------------------
# Parameters and strategies


@dataclass(frozen=True)
class PartitionParams:
    """Grid parameters of one partition step.

    gamma must lie on the grid {gamma0 * j / T : j = 1..T}; delta is
    fixed to gamma0 / (3T); tau is the phase precision needed so that a
    tau-bit phase error moves cos^2(theta/2) by at most delta/2.
    """

    m: int
    i: int
    gamma0: float
    T: int
    gamma: float
    mode: str = "ideal"

    def __post_init__(self):
        config.check_int("m", self.m, 1, DomainError)
        config.check_int("i", self.i, 1, DomainError, self.m)
        config.check_int("T", self.T, 1, DomainError)
        if config.check_real("gamma0", self.gamma0, 0, 1, DomainError) == 0:
            raise DomainError(f"gamma0={self.gamma0} outside (0, 1]")
        if self.gamma0 / self.T < config.GRID_STEP_MIN:
            raise DomainError(f"grid step {self.gamma0 / self.T} underflows")
        config.check_real("gamma", self.gamma, 0, 1, DomainError)
        j = round(self.gamma * self.T / self.gamma0)
        if not 1 <= j <= self.T or abs(self.gamma - self.gamma0 * j / self.T) > 1e-12:
            raise DomainError(f"gamma={self.gamma} not on the grid")
        if self.mode not in ("ideal", "kernel"):
            raise DomainError(f"mode={self.mode!r}")

    @property
    def delta(self) -> float:
        return self.gamma0 / (3.0 * self.T)

    @property
    def tau(self) -> int:
        return math.ceil(math.log2(8.0 / self.delta))


def gamma_grid(gamma0: float, T: int) -> np.ndarray:
    T = config.check_int("T", T, 1, DomainError)
    return gamma0 * np.arange(1, T + 1) / T


@dataclass(frozen=True, eq=False)
class ProverStrategy:
    """Attack description: answer unitary over (C, X, Z) plus acceptance sets.

    u is the unitary the prover applies to |c>_C |psi>_{X,Z} before
    measuring X.  accept_sets[i-1] lists the X_i outcomes the verifier
    accepts on coordinate i.  Data derived from it is cached through
    `derived`; `dataclasses.replace` starts an empty cache.
    """

    m: int
    x_width: int
    z_width: int
    u: Operator
    accept_sets: tuple[frozenset, ...]
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.u.dim != self.dim:
            raise DimensionMismatch(f"u dim {self.u.dim}, registers need {self.dim}")
        if self.u.kind != "unitary":
            raise NotUnitary(f"kind {self.u.kind!r}")
        if len(self.accept_sets) != self.m:
            raise DimensionMismatch(f"{len(self.accept_sets)} acceptance sets for m={self.m}")
        for acc in self.accept_sets:
            for a in acc:
                if len(a) != self.x_width or set(a) - {"0", "1"}:
                    raise DomainError(f"acceptance string {a!r}")

    def derived(self, key, build, *args):
        """The value cached under key, built as build(*args) on first use."""
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = build(*args)
            return value

    def layout(self) -> RegisterLayout:
        return self.derived("layout", lambda: RegisterLayout(
            (("C", self.m),) + self.xz_layout().registers))

    def xz_layout(self) -> RegisterLayout:
        return self.derived("xz_layout", lambda: RegisterLayout(
            tuple((f"X{i}", self.x_width) for i in range(1, self.m + 1))
            + (("Z", self.z_width),)))

    @property
    def dim(self) -> int:
        return 1 << (self.m + self.m * self.x_width + self.z_width)

    @property
    def xz_dim(self) -> int:
        return 1 << (self.m * self.x_width + self.z_width)


@dataclass(frozen=True)
class PartitionOutcome:
    psi0: StateVector
    psi1: StateVector
    psi_err: StateVector
    z0: complex
    z1: complex
    branch_probs: tuple[float, float, float]


# ---------------------------------------------------------------------------
# Projector construction

_H1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _hadamard_c_minus_i(m: int, i: int, xz_dim: int) -> np.ndarray:
    mats = [np.eye(2) if j == i - 1 else _H1 for j in range(m)]
    out = np.array([[1.0]])
    for mat in mats:
        out = np.kron(out, mat)
    return np.kron(out, np.eye(xz_dim))


def _accept_mask(strategy: ProverStrategy, i: int) -> np.ndarray:
    """Boolean diagonal of the X_i acceptance projector over (C, X, Z)."""
    acc_ints = [int(a, 2) for a in strategy.accept_sets[i - 1]]
    return np.isin(strategy.layout().values(f"X{i}"), acc_ints)


def _rotated_frame(strategy: ProverStrategy, i: int) -> np.ndarray:
    """W = U H_{C-i}, the frame in which X_i acceptance is diagonal."""
    return strategy.u.mat @ _hadamard_c_minus_i(strategy.m, i, strategy.xz_dim)


def answer_amps(strategy: ProverStrategy, c: int, psi_xz: np.ndarray) -> np.ndarray:
    """U (|c>_C (x) psi_xz) over (C, X, Z); c is the challenge as an integer."""
    full = np.zeros(strategy.dim, dtype=np.complex128)
    full.reshape(1 << strategy.m, strategy.xz_dim)[c] = psi_xz
    return strategy.u.mat @ full


def _amps_of(psi: StateVector, dim: int) -> np.ndarray:
    """psi's amplitudes; DimensionMismatch unless they span dim."""
    if psi.amps.shape != (dim,):
        raise DimensionMismatch(f"state dim {psi.amps.size}, registers need {dim}")
    return psi.amps


def _check_challenge(strategy: ProverStrategy, c: str) -> None:
    """DimensionMismatch unless c has m characters, DomainError unless they are bits."""
    if not isinstance(c, str) or len(c) != strategy.m:
        raise DimensionMismatch(f"challenge {c!r} vs m={strategy.m}")
    if set(c) - {"0", "1"}:
        raise DomainError(f"challenge {c!r} is not a bit string")


def build_projectors(strategy: ProverStrategy, params: PartitionParams) -> tuple[Operator, Operator]:
    """Pi_in and Pi_i,out for coordinate params.i, as dense projectors."""
    if params.m != strategy.m:
        raise DimensionMismatch(f"params.m={params.m} vs strategy.m={strategy.m}")
    dim = strategy.dim
    pi_in = np.zeros((dim, dim), dtype=np.complex128)
    xz = strategy.xz_dim
    pi_in[:xz, :xz] = np.eye(xz)
    w = _rotated_frame(strategy, params.i)
    pi_out = w.conj().T @ (_accept_mask(strategy, params.i)[:, None] * w)
    return Operator.projector(pi_in), Operator.projector(pi_out)


# ---------------------------------------------------------------------------
# Phase-estimation kernel

@lru_cache(maxsize=32)
def _label_pvals(t: int) -> np.ndarray:
    return np.cos(np.pi * np.arange(1 << t) / (1 << t)) ** 2


def phase_label(theta: float, t: int) -> int:
    """Nearest t-bit label of a phase (ideal rounding)."""
    frac = (theta / (2.0 * np.pi)) % 1.0
    return int(round(frac * (1 << t))) % (1 << t)


def kernel_amplitudes(theta: float, t: int) -> np.ndarray:
    """Exact QPE amplitude on each t-bit label for eigenphase theta."""
    size = 1 << t
    labels = np.arange(size)
    delta = theta - 2.0 * np.pi * labels / size
    x = delta / 2.0
    den = size * np.sin(x)
    singular = np.abs(den) < 1e-12
    with np.errstate(invalid="ignore", divide="ignore"):
        mag = np.sin(size * x) / np.where(singular, 1.0, den)
    amp = np.exp(1j * (size - 1) * x) * mag
    # the x -> k*pi limit of the full expression is exactly 1 (phase included)
    return np.where(singular, 1.0 + 0.0j, amp)


def kernel_masses(theta: float, t: int) -> np.ndarray:
    amp = kernel_amplitudes(theta, t)
    return (amp.conj() * amp).real


def threshold_mask(params: PartitionParams) -> np.ndarray:
    """Labels whose decoded cos^2 passes the gamma - delta threshold."""
    return _label_pvals(params.tau) >= (params.gamma - params.delta)


# ---------------------------------------------------------------------------
# Spectral data per (strategy, coordinate)


@dataclass(frozen=True)
class SpectralData:
    alphas_xz: np.ndarray  # xz_dim x n2; alpha_j = |0^m> (x) column
    thetas: np.ndarray  # n2 block angles in (0, pi), ascending
    pvals: np.ndarray
    v11_xz: np.ndarray  # (1,1) common eigenvectors, xz part
    v10_xz: np.ndarray  # (1,0) vectors, xz part
    alphas_c: np.ndarray  # the three conjugated, for run_G's a_c.T @ psi
    v11_c: np.ndarray
    v10_c: np.ndarray


def spectral_data(strategy: ProverStrategy, params: PartitionParams) -> SpectralData:
    """Cached Jordan blocks of Pi_in against Pi_i,out, from principal angles.

    On the C = 0^m block Pi_in Pi_i,out Pi_in is M^dag M with
    M = W[acc, :xz], so each right singular vector v_k of M is an alpha
    with p_k = sigma_k^2 (Bjorck-Golub).  The angle is read as
    2 atan2(||W[rej, :xz] v_k||, sigma_k), which stays accurate at both
    ends where arccos(sigma_k) does not; theta = 0 gives the (1,1)
    vectors and theta = pi the (1,0) vectors.
    """
    # checked on every call: a cached entry must not excuse other params.m
    if params.m != strategy.m:
        raise DimensionMismatch(f"params.m={params.m} vs strategy.m={strategy.m}")
    return strategy.derived(("spec", params.i), _principal_angles, strategy, params)


def _principal_angles(strategy: ProverStrategy, params: PartitionParams) -> SpectralData:
    xz = strategy.xz_dim
    # W[:, :xz] = U (H_{C-i}|0^m> (x) I_xz), without forming W
    c_col = _hadamard_c_minus_i(strategy.m, params.i, 1)[:, 0]
    w_top = np.tensordot(strategy.u.mat.reshape(strategy.dim, -1, xz), c_col, axes=([1], [0]))
    acc = _accept_mask(strategy, params.i)
    # full_matrices only when M is wide: its null space is (1,0) and needs a basis
    _, sig, vh = np.linalg.svd(w_top[acc], full_matrices=int(acc.sum()) < xz)
    v = vh.conj().T
    cos = np.zeros(xz)
    cos[:len(sig)] = sig
    thetas = 2.0 * np.arctan2(np.linalg.norm(w_top[~acc] @ v, axis=0), cos)
    tol = config.EIGPHASE_TOL
    is11 = thetas <= tol
    is10 = np.abs(thetas - np.pi) <= tol
    rot = np.flatnonzero(~(is11 | is10))
    rot = rot[np.argsort(thetas[rot], kind="stable")]
    return SpectralData(
        alphas_xz=v[:, rot],
        thetas=thetas[rot],
        pvals=cos[rot] ** 2,
        v11_xz=v[:, is11],
        v10_xz=v[:, is10],
        alphas_c=v[:, rot].conj(),
        v11_c=v[:, is11].conj(),
        v10_c=v[:, is10].conj(),
    )


def eigenbasis(strategy: ProverStrategy, params: PartitionParams) -> tuple[np.ndarray, np.ndarray]:
    """Cached full Q eigenbasis (dim x dim) and eigenphases of coordinate params.i.

    Read off jordan_decompose on build_projectors (the dense unitary_eig
    route), so that run_G_state stays independent of spectral_data.
    """
    return strategy.derived(("eig", params.i), _jordan_eigvecs, strategy, params)


def _jordan_eigvecs(strategy: ProverStrategy, params: PartitionParams):
    return jordan_decompose(*build_projectors(strategy, params)).eigvecs()


def _kernel_rows(thetas: np.ndarray, t: int) -> np.ndarray:
    if not len(thetas):
        return np.zeros((0, 1 << t))
    return np.stack([kernel_masses(th, t) for th in thetas])


def _ideal_labels(thetas: np.ndarray, t: int) -> np.ndarray:
    return np.array([phase_label(th, t) for th in thetas], dtype=int)


class _Table:
    """Entries that count the numbers they may hold, in `held`.

    keep starts the table over before that count would pass
    config.EXTRACT_TABLE_AMPS; an entry larger than the whole budget is
    kept alone.  Lookups read `entries`, a plain dict: a dict subclass's
    get costs about 15 ns more per call.
    """

    __slots__ = ("entries", "held")

    def __init__(self):
        self.entries = {}
        self.held = 0

    def keep(self, key, value, size: int):
        """Store value under key as size numbers, and return it."""
        if self.held + size > config.EXTRACT_TABLE_AMPS:
            self.entries.clear()
            self.held = 0
        self.held += size
        self.entries[key] = value
        return value


def _grid_point(strategy: ProverStrategy, params: PartitionParams, data: SpectralData) -> tuple:
    """w1, 1 - w1 and the reference masks low and high of one grid point.

    w1 is the amplitude weight per 2-D block landing in the th=1 branch.
    The (1,1) blocks always threshold to 1 and the (1,0) blocks to 0, in
    both modes: their phases 0 and pi sit exactly on dyadic labels, and
    gamma - delta always lies strictly between cos^2(pi/2)=0 and 1.
    Chains, H walks and grid sweeps revisit params, so points are kept in
    the strategy's table, at 4 xz_dim numbers each.
    """
    table = strategy.derived("table", _Table)
    point = table.entries.get(params)
    if point is not None:
        return point
    mask = threshold_mask(params)
    if params.mode == "ideal":
        labels = strategy.derived(("lab", params.i, params.tau), _ideal_labels, data.thetas, params.tau)
        w1 = mask[labels].astype(float)
    else:
        rows = strategy.derived(("K", params.i, params.tau), _kernel_rows, data.thetas, params.tau)
        w1 = rows @ mask.astype(float)
    point = (w1, 1.0 - w1, data.pvals <= params.gamma - 2 * params.delta,
             data.pvals >= params.gamma)
    return table.keep(params, point, 4 * strategy.xz_dim)


# ---------------------------------------------------------------------------
# Procedure G


def _branches(strategy, params, psi_xz: np.ndarray):
    """Unnormalized th=0/th=1 branch vectors on (X, Z), plus coefficients."""
    data = spectral_data(strategy, params)
    w1, w0, low, high = _grid_point(strategy, params, data)
    c2 = data.alphas_c.T @ psi_xz
    c11 = data.v11_c.T @ psi_xz
    c10 = data.v10_c.T @ psi_xz
    b1 = data.alphas_xz @ (c2 * w1) + data.v11_xz @ c11
    b0 = data.alphas_xz @ (c2 * w0) + data.v10_xz @ c10
    return b0, b1, (c2, c11, c10, low, high, data)


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a 1-D complex array, by its own arithmetic."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _phase_of(overlap: complex, ref_norm: float, branch_norm: float) -> complex:
    small = config.ZERO_BRANCH_TOL
    if ref_norm < small or branch_norm < small or abs(overlap) < small:
        return 1.0 + 0.0j
    return overlap / abs(overlap)


def run_G(strategy: ProverStrategy, params: PartitionParams, psi: StateVector) -> PartitionOutcome:
    """One partition step: split psi into low/high branches and a residual.

    psi lives on (X_1..X_m, Z) and is implicitly extended by C=0^m and
    fresh ancillas (ph, th, in); the returned components are the
    (ph, th, in) = (0^t, b, 1) branches mapped back to (X, Z).
    """
    psi_xz = _amps_of(psi, strategy.xz_dim)
    b0, b1, (c2, c11, c10, low, high, data) = _branches(strategy, params, psi_xz)
    # reference states of the lemma: clean low and high components
    ref0 = data.alphas_xz @ (c2 * low) + data.v10_xz @ c10
    ref1 = data.alphas_xz @ (c2 * high) + data.v11_xz @ c11
    z0 = _phase_of(np.vdot(ref0, b0), _norm(ref0), _norm(b0))
    z1 = _phase_of(np.vdot(ref1, b1), _norm(ref1), _norm(b1))
    psi0 = np.conj(z0) * b0
    psi1 = np.conj(z1) * b1
    err = psi_xz - psi0 - psi1
    n0 = float(np.vdot(psi0, psi0).real)
    n1 = float(np.vdot(psi1, psi1).real)
    norm2 = float(np.vdot(psi_xz, psi_xz).real)
    # finite squared norms put every amplitude below sqrt(max float), so
    # err is finite too; otherwise the checking constructor decides
    state = StateVector._finite if math.isfinite(n0 + n1 + norm2) else StateVector
    lay = strategy.xz_layout()
    return PartitionOutcome(
        psi0=state(lay, psi0),
        psi1=state(lay, psi1),
        psi_err=state(lay, err),
        z0=complex(z0),
        z1=complex(z1),
        branch_probs=(n0, n1, norm2 - n0 - n1),
    )


# ---------------------------------------------------------------------------
# Literal pipeline on the full register space


def _full_layout(strategy: ProverStrategy, t: int) -> RegisterLayout:
    regs = list(strategy.layout().registers) + [("ph", t), ("th", 1), ("in", 1)]
    return RegisterLayout(tuple(regs))


def _apply_kernel_column(block: np.ndarray, theta: float, t: int, mode: str, dagger: bool) -> np.ndarray:
    """Apply the per-eigenvector estimation unitary on the ph axis.

    block has shape (2^t, r).  Ideal mode is the transposition
    (0 <-> label); kernel mode is a Householder completion sending e_0 to
    the exact QPE amplitude column.
    """
    if mode == "ideal":
        lab = phase_label(theta, t)
        if lab:
            out = block.copy()
            out[[0, lab]] = out[[lab, 0]]
            return out
        return block
    w = kernel_amplitudes(theta, t)
    mu = w[0]
    phase = mu / abs(mu) if abs(mu) > 1e-14 else 1.0 + 0.0j
    bprime = np.conj(phase) * w
    bprime[0] -= 1.0
    nrm = _norm(bprime)
    if nrm < 1e-14:
        return (np.conj(phase) if dagger else phase) * block
    u = (bprime / nrm)[:, None]
    if dagger:
        tmp = np.conj(phase) * block
        return tmp - 2.0 * u @ (u.conj().T @ tmp)
    tmp = block - 2.0 * u @ (u.conj().T @ block)
    return phase * tmp


def _apply_est(flat: np.ndarray, basis: np.ndarray, phases: np.ndarray, t: int,
               mode: str, dagger: bool) -> np.ndarray:
    """U_est (or its adjoint) on (system, rest) amplitudes, diagonalized.

    basis holds the eigenvectors of Q as columns with eigenphases
    `phases`; the rest axis leads with the 2^t ph labels.
    """
    coeff = basis.conj().T @ flat
    ph_rest = coeff.shape[1] >> t
    for k in range(coeff.shape[0]):
        blk = coeff[k].reshape(1 << t, ph_rest)
        coeff[k] = _apply_kernel_column(blk, float(phases[k]), t, mode, dagger).reshape(-1)
    return basis @ coeff


def run_G_state(strategy: ProverStrategy, params: PartitionParams, psi: StateVector) -> StateVector:
    """Literal G = U_in U_est^dag U_th U_est on (C, X, Z, ph, th, in)."""
    eig_full, eig_phases = eigenbasis(strategy, params)
    t = params.tau
    lay = _full_layout(strategy, t)
    dim, xz = strategy.dim, strategy.xz_dim
    amps = np.zeros(lay.dim, dtype=np.complex128)
    # input slots: C = 0^m, ph = 0^t, th = in = 0
    amps.reshape(dim, 1 << t, 2, 2)[:xz, 0, 0, 0] = _amps_of(psi, xz)

    amps = _apply_est(amps.reshape(dim, -1), eig_full, eig_phases, t,
                      params.mode, dagger=False).reshape(-1)
    view = amps.reshape(dim, 1 << t, 2, 2)
    flip = np.where(threshold_mask(params))[0]
    view[:, flip] = view[:, flip, ::-1]  # th flips on the passing labels
    amps = _apply_est(amps.reshape(dim, -1), eig_full, eig_phases, t,
                      params.mode, dagger=True).reshape(-1)
    view = amps.reshape(dim, 1 << t, 2, 2)
    view[:xz] = view[:xz, :, :, ::-1]  # in flips where C = 0^m
    return StateVector(lay, amps)


# ---------------------------------------------------------------------------
# Procedure H: iterated partition with measurement


@dataclass(frozen=True)
class HBranch:
    branch_state: StateVector
    stop_index: int


@dataclass(frozen=True)
class HAbort:
    stop_index: int


@dataclass(frozen=True)
class HRemainder:
    state: StateVector


def _step(strategy, gammas, idx, current, gamma0, T, mode):
    """Branches (b0, b1) of G_{idx, gamma_idx} on current."""
    params = PartitionParams(m=strategy.m, i=idx, gamma0=gamma0, T=T,
                             gamma=float(gammas[idx - 1]), mode=mode)
    return _branches(strategy, params, current)[:2]


def _shared_state(strategy: ProverStrategy, amps: np.ndarray) -> StateVector:
    """A read-only (X, Z) state over amps, safe to hand to every later call."""
    state = StateVector(strategy.xz_layout(), amps)
    state.amps.setflags(write=False)
    return state


class _HWalk:
    """The steps of procedure H that calls have reached from one input.

    Every number a step of H's loop reads depends only on the exact bytes
    of its current state, so each step is computed once per walk, by that
    loop's own arithmetic, when a call first reaches it.  The draws, the
    comparisons and so the outcomes are the loop's, bit for bit.  A
    branch is normalized only when its mass is > 0, so a walk evaluates
    nothing the loop would not; an error is raised, never stored.
    steps[k] holds (p_want, p_other, the HBranch halting at step k + 1,
    the HAbort there); `current` is the state the next step starts from,
    and `remainder` the HRemainder once a call has continued past step m.
    """

    __slots__ = ("steps", "current", "remainder")

    def __init__(self, current: np.ndarray):
        self.steps = []
        self.current = current
        self.remainder = None

    def step(self, strategy, gammas, c: str, gamma0, T, mode):
        idx = len(self.steps) + 1
        current = self.current
        norm2 = float(np.vdot(current, current).real)
        if norm2 <= config.ZERO_STATE_TOL:
            raise ZeroState(f"norm^2 = {norm2:.3e} entering step {idx}")
        b0, b1 = _step(strategy, gammas, idx, current, gamma0, T, mode)
        want, other = (b1, b0) if c[idx - 1] == "1" else (b0, b1)
        p_want = float(np.vdot(want, want).real) / norm2
        p_other = float(np.vdot(other, other).real) / norm2
        halt = None
        if p_want > 0:
            halt = HBranch(branch_state=_shared_state(strategy, want / _norm(want)),
                           stop_index=idx)
        if p_other > 0:
            self.current = other / _norm(other)
        self.steps.append((p_want, p_other, halt, HAbort(stop_index=idx)))


def run_H(strategy: ProverStrategy, gammas, c: str, psi: StateVector,
          rng: np.random.Generator, *, gamma0: float, T: int,
          mode: str = "ideal"):
    """Iterate G_{i, gamma_i} with a three-way measurement per step.

    Outcome (0^t, c_i, 1) halts with the collapsed branch; (0^t, !c_i, 1)
    continues; anything else aborts.  Sampling order per step: the c_i
    branch, then the continue branch, then abort.  A call follows its
    input's walk (see _HWalk), kept in the strategy's table at (2m + 2)
    xz_dim numbers, one per state it may make: one draw per step reached,
    exactly as the loop draws them.  The returned outcomes are shared
    between calls, and their states are read-only.
    """
    if len(gammas) != strategy.m:
        raise DimensionMismatch(f"need m={strategy.m} gammas")
    _check_challenge(strategy, c)
    amps = _amps_of(psi, strategy.xz_dim)
    table = strategy.derived("table", _Table)
    key = (tuple(float(g) for g in gammas), c, gamma0, T, mode, amps.tobytes())
    walk = table.entries.get(key) or table.keep(key, _HWalk(amps.copy()),
                                        (2 * strategy.m + 2) * strategy.xz_dim)
    for idx in range(1, strategy.m + 1):
        if len(walk.steps) < idx:
            walk.step(strategy, gammas, c, gamma0, T, mode)
        p_want, p_other, halt, abort = walk.steps[idx - 1]
        r = rng.random()
        if r < p_want:
            return halt
        if r < p_want + p_other:
            continue
        return abort
    if walk.remainder is None:
        walk.remainder = HRemainder(_shared_state(strategy, walk.current / _norm(walk.current)))
    return walk.remainder


@dataclass(frozen=True)
class ChainResult:
    kept_norms2: tuple[float, ...]  # |psi_{!c_1..!c_{i-1}, c_i}|^2 per i
    remainder_norm2: float  # |psi_{!c_1..!c_m}|^2
    err_norms2: tuple[float, ...]  # per-step psi_err mass


def partition_chain(strategy: ProverStrategy, gammas, c: str, psi: StateVector,
                    *, gamma0: float, T: int, mode: str = "ideal") -> ChainResult:
    """Exact (probability-free) branch chain underlying run_H."""
    if len(gammas) != strategy.m:
        raise DimensionMismatch(f"need m={strategy.m} gammas")
    _check_challenge(strategy, c)
    current = _amps_of(psi, strategy.xz_dim)
    kept, errs = [], []
    for idx in range(1, strategy.m + 1):
        b0, b1 = _step(strategy, gammas, idx, current, gamma0, T, mode)
        errs.append(_norm(current - b0 - b1) ** 2)
        want, current = (b1, b0) if c[idx - 1] == "1" else (b0, b1)
        kept.append(float(np.vdot(want, want).real))
    return ChainResult(
        kept_norms2=tuple(kept),
        remainder_norm2=float(np.vdot(current, current).real),
        err_norms2=tuple(errs),
    )


# ---------------------------------------------------------------------------
# Extractor


@dataclass(frozen=True)
class ExtractOutcome:
    a_i: str | None  # None encodes Failure
    rounds_used: int

    @property
    def success(self) -> bool:
        return self.a_i is not None


class _ExtractNode:
    """One normalized extractor state and every number a round reads from it.

    A node is made whole when its graph first reaches its state, by the
    alternating loop's own arithmetic: p_hit; the X_i CDF of the accepted
    part when p_hit > 0; the miss vector W^dag (rotated - hit) and p_in
    when p_hit < 1.  No draw can read a value those guards skip, so a node
    evaluates nothing the loop would not (no 0/0 at p_hit = 0 or 1).  Each
    child is made on its first visit.
    """

    __slots__ = ("p_hit", "cdf", "p_in", "back", "kids")

    def __init__(self, graph: _ExtractGraph, amps: np.ndarray):
        rotated = graph.w @ amps
        hit = rotated * graph.acc
        self.p_hit = float(np.vdot(hit, hit).real)
        self.cdf = self.p_in = self.back = None
        self.kids = [None, None]  # collapsed out of Pi_in, into Pi_in
        if self.p_hit > 0:
            # the X_i CDF of the accepted part, built as Generator.choice builds it
            masses = np.bincount(graph.xi_vals, weights=(hit.conj() * hit).real,
                                 minlength=len(graph.labels))
            cdf = (masses / masses.sum()).cumsum()
            cdf /= cdf[-1]
            self.cdf = cdf.tolist()
        if self.p_hit < 1:
            # undo W on the rejected part; read the chance of landing in Pi_in
            back = self.back = graph.wd @ (rotated - hit)
            xz = graph.xz
            self.p_in = float(np.vdot(back[:xz], back[:xz]).real / np.vdot(back, back).real)


class _ExtractGraph:
    """W, W^dagger and the X_i data of one coordinate, and the states reached.

    Every number a round of the alternating loop reads depends only on
    the exact bytes of the current normalized state, so each is computed
    once per distinct state, by that loop's own arithmetic.  The draws,
    the comparisons and so the outcomes are the loop's, bit for bit.
    Its table holds roots keyed on the input's bytes (dim numbers each),
    nodes keyed on (amplitude bytes,) (2 dim: the miss vector and the
    CDF) and shared outcomes keyed on (a_i, rounds_used) (1 each).
    """

    def __init__(self, strategy: ProverStrategy, i: int):
        self.w = _rotated_frame(strategy, i)
        self.wd = self.w.conj().T
        self.acc = _accept_mask(strategy, i)
        self.xi_vals = strategy.layout().values(f"X{i}")
        self.labels = [format(v, f"0{strategy.x_width}b") for v in range(1 << strategy.x_width)]
        self.xz = strategy.xz_dim
        self.table = _Table()

    def outcome(self, a_i: str | None, rounds_used: int) -> ExtractOutcome:
        """The shared, frozen outcome (a_i, rounds_used)."""
        key = (a_i, rounds_used)
        return self.table.entries.get(key) or self.table.keep(key, ExtractOutcome(a_i, rounds_used), 1)

    def root(self, state: StateVector) -> _ExtractNode:
        key = state.amps.tobytes()
        node = self.table.entries.get(key)
        if node is None:
            # a hit has the bytes, and so the dimension, of a checked state
            amps = _amps_of(state, len(self.w)).astype(np.complex128, copy=True)
            nrm = _norm(amps)
            if nrm**2 <= config.ZERO_STATE_TOL:
                raise ZeroState("extractor input has zero norm")
            amps /= nrm
            node = self.table.keep(key, self._node(amps), len(amps))
        return node

    def _node(self, amps: np.ndarray) -> _ExtractNode:
        key = (amps.tobytes(),)
        return self.table.entries.get(key) or self.table.keep(key, _ExtractNode(self, amps), 2 * len(amps))

    def kid(self, node: _ExtractNode, into: bool) -> _ExtractNode:
        """The state node's miss collapses to, into Pi_in or out of it."""
        amps = node.back.copy()
        if into:
            amps[self.xz:] = 0.0
        else:
            amps[:self.xz] = 0.0
        amps /= _norm(amps)
        kid = node.kids[into] = self._node(amps)
        return kid


def extract(strategy: ProverStrategy, params: PartitionParams, state: StateVector,
            n_rounds: int, rng: np.random.Generator) -> ExtractOutcome:
    """Alternate {Pi_i,out} and {Pi_in} measurements until X_i yields an answer.

    Operationally each Pi_i,out measurement is realized in the rotated
    frame: apply W = U H_{C-i}, binary-measure the X_i acceptance
    projector, and on success measure X_i right there, which guarantees
    the returned a_i is accepted.  On failure W is undone before the
    Pi_in measurement.  The walk runs over the strategy's cached graph
    of extractor states (see _ExtractGraph): one draw per measurement,
    exactly as the alternating loop draws them.  Equal outcomes are one
    shared frozen object.
    """
    config.check_int("n_rounds", n_rounds, 1, DomainError)
    if not 1 <= params.i <= strategy.m:
        raise DomainError(f"coordinate i={params.i} outside 1..{strategy.m}")
    # checked on every call: a cached graph must not excuse other params.m
    if params.m != strategy.m:
        raise DimensionMismatch(f"params.m={params.m} vs strategy.m={strategy.m}")
    graph = strategy.derived(("extract", params.i), _ExtractGraph, strategy, params.i)
    node = graph.root(state)
    for rnd in range(1, n_rounds + 1):
        if rng.random() < node.p_hit:
            return graph.outcome(graph.labels[bisect_right(node.cdf, rng.random())], rnd)
        into = rng.random() < node.p_in
        node = node.kids[into] or graph.kid(node, into)
    return graph.outcome(None, rnd)


def ext_success_formula(p: float, n_rounds: int) -> float:
    """Closed-form success probability of the extractor on one 2-D block."""
    p = config.check_real("p", p, 0, 1, DomainError)
    n_rounds = config.check_int("n_rounds", n_rounds, 1, DomainError)
    return 1.0 - (1.0 - 2.0 * p + 2.0 * p * p) ** (n_rounds - 1) * (1.0 - p)


# ---------------------------------------------------------------------------
# Supporting analysis helpers


def test_round_accept_prob(strategy: ProverStrategy, i: int, c: str, psi_xz: StateVector) -> float:
    """Pr of an accepted X_i outcome when U hits |c>_C (x) psi directly."""
    config.check_int("i", i, 1, DomainError, strategy.m)
    _check_challenge(strategy, c)
    amps = _amps_of(psi_xz, strategy.xz_dim)
    nrm2 = psi_xz.norm2
    if nrm2 <= config.ZERO_STATE_TOL:
        raise ZeroState("zero input state")
    hit = answer_amps(strategy, int(c, 2), amps) * _accept_mask(strategy, i)
    return float(np.vdot(hit, hit).real) / nrm2


def cs_bound(pieces, projector: np.ndarray) -> tuple[float, float]:
    """(lhs, rhs) of the measurement Cauchy-Schwarz bound.

    lhs = ||M sum_i psi_i||^2, rhs = m * sum_i ||M psi_i||^2; the bound
    lhs <= rhs follows from Cauchy-Schwarz and holds for any vectors.
    """
    pieces = [np.asarray(v, dtype=np.complex128) for v in pieces]
    total = np.sum(pieces, axis=0)
    lhs = _norm(projector @ total) ** 2
    rhs = len(pieces) * sum(_norm(projector @ v) ** 2 for v in pieces)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Strategy constructors


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = np.empty((dim, dim), dtype=np.complex128)  # real parts drawn first, then imaginary
    m.real, m.imag = rng.standard_normal((dim, dim)), rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_accept_sets(rng: np.random.Generator, m: int, x_width: int) -> tuple[frozenset, ...]:
    sets = []
    size = 1 << x_width
    for _ in range(m):
        # nonempty proper subset keeps both measurement outcomes possible
        k = int(rng.integers(1, size))
        chosen = rng.choice(size, size=k, replace=False)
        sets.append(frozenset(format(v, f"0{x_width}b") for v in chosen))
    return tuple(sets)


def random_xz_state(rng: np.random.Generator, strategy: ProverStrategy) -> StateVector:
    """Haar-random normalized state on the strategy's (X, Z) registers."""
    amps = rng.normal(size=strategy.xz_dim) + 1j * rng.normal(size=strategy.xz_dim)
    amps /= _norm(amps)
    return StateVector(strategy.xz_layout(), amps)


def random_strategy(rng: np.random.Generator, m: int, x_width: int = 1,
                    z_width: int = 1, controlled: bool = False) -> ProverStrategy:
    """Random attack; controlled=True makes u block-diagonal over C.

    A prover that treats the challenge as the classical message it is
    acts block-diagonally on C; that structure is what makes the fixed-c
    test-round bound provable, so claim-4 experiments use it.
    """
    m = config.check_int("m", m, 1, DomainError)
    x_width = config.check_int("x_width", x_width, 1, DomainError)
    z_width = config.check_int("z_width", z_width, 0, DomainError)
    xz = 1 << (m * x_width + z_width)
    if controlled:
        u = np.zeros(((1 << m) * xz,) * 2, dtype=np.complex128)
        for k in range(0, len(u), xz):
            u[k:k + xz, k:k + xz] = haar_unitary(rng, xz)
    else:
        u = haar_unitary(rng, (1 << m) * xz)
    return ProverStrategy(
        m=m, x_width=x_width, z_width=z_width,
        u=Operator.unitary(u),
        accept_sets=random_accept_sets(rng, m, x_width),
    )


def single_block_strategy(p: float) -> ProverStrategy:
    """Strategy whose Jordan structure has one 2-D block of overlap exactly p.

    Registers (C:1, X:1, Z:0); Acc = {"0"}; the block's alpha is |00>.
    Degenerate p=0 and p=1 turn the block into pure 1-D types.
    """
    p = config.check_real("p", p, 0, 1, DomainError)
    beta = np.array([np.sqrt(p), 0, np.sqrt(1 - p), 0], dtype=np.complex128)
    beta2 = np.array([0, 0, 0, 1], dtype=np.complex128)
    cols = [beta, beta2]
    basis = list(cols)
    for e in np.eye(4, dtype=np.complex128):
        v = e - sum(np.vdot(b, e) * b for b in basis)
        nrm = _norm(v)
        if nrm > 1e-6:
            basis.append(v / nrm)
    b_from = np.column_stack(basis[:4])
    b_to = np.eye(4, dtype=np.complex128)[:, [0, 2, 1, 3]]  # X=0 strings first
    u = b_to @ b_from.conj().T
    return ProverStrategy(
        m=1, x_width=1, z_width=0,
        u=Operator.unitary(u),
        accept_sets=(frozenset({"0"}),),
    )
