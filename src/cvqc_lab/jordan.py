"""Two-projector Jordan block decomposition.

Given projectors P0 and P1 on the same space, the product of reflections
Q = (2 P1 - I)(2 P0 - I) is unitary and the space splits into

  - 2-D blocks where Q rotates by an angle theta in (0, pi).  Each block
    carries an orthonormal pair (alpha, alpha_perp) with P0 acting as
    |alpha><alpha| inside the block, a pair (beta, beta_perp) doing the
    same for P1, an overlap <alpha|beta> = sqrt(p) chosen positive real,
    and Q-eigenvectors phi_pm = (alpha +- i alpha_perp)/sqrt(2) with
    eigenvalues exp(+-i theta).
  - 1-D blocks spanned by a common eigenvector v of both projectors:
    P0 v = b v and P1 v = c v for bits b, c, and Q v = (2b-1)(2c-1) v.

The construction diagonalises Q once with unitary_eig (numpy eigh only)
and then reads every block off the eigenvectors.  For an eigenvector u
of Q with eigenvalue exp(i theta), theta in (0, pi):

    alpha      = normalize(P0 u)                (norm is 1/sqrt(2))
    alpha_perp = -i (sqrt(2) u - alpha)         (already unit)
    beta       = normalize(exp(i theta/2) P1 u)
    beta_perp  = -i (sqrt(2) exp(i theta/2) u - beta)

These phases make <alpha|beta> = cos(theta/2) > 0 automatically.  Inside
a degenerate exp(i theta) eigenspace any orthonormal choice of u's works:
P0 maps it isometrically (up to 1/sqrt(2)) onto the span of the alphas,
so orthogonality of the u's carries over to the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .qsim import DimensionMismatch, NotAProjector, Operator, _as_matrix, check_rng, gram_residual


class DegenerateNumerics(Exception):
    """Block extraction left residuals too large to trust."""


@dataclass(frozen=True)
class JordanBlock2D:
    theta: float  # in (0, pi)
    p: float  # cos^2(theta/2) = |<alpha|beta>|^2
    alpha: np.ndarray
    alpha_perp: np.ndarray
    beta: np.ndarray
    beta_perp: np.ndarray

    @property
    def phi_plus(self) -> np.ndarray:
        return (self.alpha + 1j * self.alpha_perp) / np.sqrt(2)

    @property
    def phi_minus(self) -> np.ndarray:
        return (self.alpha - 1j * self.alpha_perp) / np.sqrt(2)


@dataclass(frozen=True)
class JordanBlock1D:
    vector: np.ndarray
    b: int
    c: int


@dataclass(frozen=True)
class JordanDecomposition:
    blocks2d: tuple[JordanBlock2D, ...]
    blocks1d: tuple[JordanBlock1D, ...]
    dim: int

    def basis(self) -> np.ndarray:
        """Columns: (alpha, alpha_perp) per 2-D block, then 1-D vectors."""
        cols = []
        for blk in self.blocks2d:
            cols.append(blk.alpha)
            cols.append(blk.alpha_perp)
        for blk in self.blocks1d:
            cols.append(blk.vector)
        return np.column_stack(cols) if cols else np.zeros((self.dim, 0), dtype=np.complex128)

    def eigvecs(self) -> tuple[np.ndarray, np.ndarray]:
        """Q eigenvectors as columns, (phi_plus, phi_minus) per 2-D block then
        the 1-D vectors, with their eigenphases (+-theta; 0 if b = c, else pi)."""
        cols, phases = [], []
        for blk in self.blocks2d:
            cols += [blk.phi_plus, blk.phi_minus]
            phases += [blk.theta, -blk.theta]
        for blk in self.blocks1d:
            cols.append(blk.vector)
            phases.append(0.0 if blk.b == blk.c else np.pi)
        return np.column_stack(cols), np.array(phases)


@dataclass(frozen=True)
class Residuals:
    max_p0: float
    max_p1: float
    max_q: float
    gram: float


def _projector_matrix(p) -> np.ndarray:
    if not isinstance(p, Operator):
        return Operator.projector(p).mat
    if p.kind != "projector":
        raise NotAProjector(f"kind {p.kind!r}")
    return p.mat


def reflect(p) -> Operator:
    """Reflection 2P - I about the range of a projector."""
    mat = _projector_matrix(p)
    return Operator.unitary(2.0 * mat - np.eye(mat.shape[0]))


def unitary_eig(q) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases and orthonormal eigenvectors (columns) of a unitary q.

    eigh of (q + q^dag)/2 gives cos(phi); each run of cosines within
    EIGPHASE_TOL (an exp(+-i phi) pair, a degenerate eigenvalue) is split by
    eigh of (q - q^dag)/2i on the run.  A non-normal q raises DegenerateNumerics."""
    q = _as_matrix(q, "unitary")
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise DimensionMismatch(f"matrix shape {q.shape} is not square")
    n = len(q)
    cos, vecs = np.linalg.eigh(0.5 * (q + q.conj().T))
    vq = np.vstack([vecs, q @ vecs])  # column j holds v_j over q v_j
    starts = np.flatnonzero(np.diff(cos, prepend=-np.inf) > config.EIGPHASE_TOL)
    sizes = np.diff(starts, append=n)
    for size in np.unique(sizes[sizes > 1]):  # all runs of one size at once
        runs = starts[sizes == size, None] + np.arange(size)
        r = np.einsum("iab,iac->abc", vq[:n, runs].conj(), vq[n:, runs])  # q on each run
        w = np.linalg.eigh((r - r.conj().transpose(0, 2, 1)) / 2j)[1]
        vq[:, runs] = np.einsum("iab,abc->iac", vq[:, runs], w)
    # one first-order rotation on V^dag q V undoes the mixing of close cosines
    rq = vq[:n].conj().T @ vq[n:]
    lam = np.diag(rq)
    gap = lam[None, :] - lam[:, None]
    mix = np.divide(rq, gap, out=np.zeros_like(rq), where=np.abs(gap) > config.EIGPHASE_TOL)
    vq = vq + vq @ (0.5 * (mix - mix.conj().T))
    resid = np.max(np.abs(vq[n:] - vq[:n] * lam), initial=0.0)
    if not resid <= config.DEGENERATE_LIMIT:  # NaN included
        raise DegenerateNumerics(f"eigenvector residual max|qV - V Lambda| {resid:.3e}")
    return np.angle(lam), vq[:n]


def jordan_decompose(p0, p1) -> JordanDecomposition:
    """Split the space into Jordan blocks of the projector pair (p0, p1)."""
    m0 = _projector_matrix(p0)
    m1 = _projector_matrix(p1)
    if m0.shape != m1.shape:
        raise DimensionMismatch(f"{m0.shape} vs {m1.shape}")
    dim = m0.shape[0]
    q = (2.0 * m1 - np.eye(dim)) @ (2.0 * m0 - np.eye(dim))

    phases, qvecs = unitary_eig(q)
    tol = config.EIGPHASE_TOL
    plus = np.abs(phases) <= tol  # Q-eigenvalue +1
    minus = ~plus & (np.abs(np.abs(phases) - np.pi) <= tol)  # Q-eigenvalue -1
    rot = ~(plus | minus) & (phases > 0)
    n_conj = int(np.count_nonzero(~(plus | minus) & (phases <= 0)))

    th = phases[rot]
    u = qvecs[:, rot]
    alpha = m0 @ u
    na = np.linalg.norm(alpha, axis=0)
    if not np.all(na >= config.DEGENERATE_LIMIT):
        raise DegenerateNumerics(f"P0 image collapsed at theta={th[np.argmin(na)]:.3e}")
    alpha = alpha / na
    alpha_perp = -1j * (np.sqrt(2.0) * u - alpha)
    alpha_perp = alpha_perp / np.linalg.norm(alpha_perp, axis=0)
    half = np.exp(0.5j * th)
    w = half * (m1 @ u)
    nb = np.linalg.norm(w, axis=0)
    if not np.all(nb >= config.DEGENERATE_LIMIT):
        raise DegenerateNumerics(f"P1 image collapsed at theta={th[np.argmin(nb)]:.3e}")
    beta = w / nb
    beta_perp = -1j * (np.sqrt(2.0) * half * u - beta)
    beta_perp = beta_perp / np.linalg.norm(beta_perp, axis=0)
    blocks2d = [
        JordanBlock2D(theta=float(th[k]), p=float(np.cos(th[k] / 2.0) ** 2),
                      alpha=alpha[:, k], alpha_perp=alpha_perp[:, k],
                      beta=beta[:, k], beta_perp=beta_perp[:, k])
        for k in range(len(th))
    ]

    if len(blocks2d) != n_conj:
        raise DegenerateNumerics(
            f"{len(blocks2d)} rotation blocks vs {n_conj} conjugate partners")

    blocks1d: list[JordanBlock1D] = []
    # Each +-1 eigenspace of Q is invariant under both projectors, and on
    # it P1 equals P0 (for +1) or I - P0 (for -1).  Diagonalizing the
    # restriction of P0 therefore separates the four (b, c) types.
    for cols, same in ((plus, True), (minus, False)):
        if not cols.any():
            continue
        vsub = qvecs[:, cols]
        restricted = vsub.conj().T @ m0 @ vsub
        evals, evecs = np.linalg.eigh(restricted)
        vecs = vsub @ evecs
        for j, ev in enumerate(evals):
            b = int(ev > 0.5)
            if not abs(ev - b) <= config.DEGENERATE_LIMIT:
                raise DegenerateNumerics(f"1-D block eigenvalue {ev:.6e} not a bit")
            c = b if same else 1 - b
            blocks1d.append(JordanBlock1D(vector=vecs[:, j], b=b, c=c))

    blocks2d.sort(key=lambda blk: blk.theta)
    blocks1d.sort(key=lambda blk: (blk.b, blk.c))
    dec = JordanDecomposition(tuple(blocks2d), tuple(blocks1d), dim)

    if 2 * len(dec.blocks2d) + len(dec.blocks1d) != dim:
        raise DegenerateNumerics(
            f"block count 2*{len(dec.blocks2d)}+{len(dec.blocks1d)} != {dim}")
    gram = gram_residual(dec.basis())
    if not gram <= config.DEGENERATE_LIMIT:
        raise DegenerateNumerics(f"basis Gram residual {gram:.3e}")
    return dec


def reconstruct_check(dec: JordanDecomposition, p0, p1) -> Residuals:
    """Rebuild P0, P1, Q from block data and report max-norm residuals."""
    m0 = _projector_matrix(p0)
    m1 = _projector_matrix(p1)
    dim = dec.dim
    r0 = np.zeros((dim, dim), dtype=np.complex128)
    r1 = np.zeros((dim, dim), dtype=np.complex128)
    rq = np.zeros((dim, dim), dtype=np.complex128)
    for blk in dec.blocks2d:
        r0 += np.outer(blk.alpha, blk.alpha.conj())
        r1 += np.outer(blk.beta, blk.beta.conj())
        fp, fm = blk.phi_plus, blk.phi_minus
        rq += np.exp(1j * blk.theta) * np.outer(fp, fp.conj())
        rq += np.exp(-1j * blk.theta) * np.outer(fm, fm.conj())
    for blk in dec.blocks1d:
        proj = np.outer(blk.vector, blk.vector.conj())
        r0 += blk.b * proj
        r1 += blk.c * proj
        rq += (2 * blk.b - 1) * (2 * blk.c - 1) * proj
    q = (2.0 * m1 - np.eye(dim)) @ (2.0 * m0 - np.eye(dim))
    return Residuals(
        max_p0=float(np.max(np.abs(r0 - m0))),
        max_p1=float(np.max(np.abs(r1 - m1))),
        max_q=float(np.max(np.abs(rq - q))),
        gram=gram_residual(dec.basis()),
    )


def eigenphases(dec: JordanDecomposition) -> np.ndarray:
    """Sorted multiset of Q eigenphases implied by the block structure."""
    return np.sort(dec.eigvecs()[1])


def random_projector(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Haar-random rank-r projector; test and demo helper."""
    dim = config.check_int("dim", dim, 1, DimensionMismatch)
    rank = config.check_int("rank", rank, 0, DimensionMismatch, dim)
    check_rng(rng)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    qmat, _ = np.linalg.qr(m)
    cols = qmat[:, :rank]
    return cols @ cols.conj().T
