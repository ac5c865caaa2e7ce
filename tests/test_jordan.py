"""Jordan block decomposition: pinned small cases and randomized residual checks."""

import numpy as np
import pytest

from cvqc_lab import config
from cvqc_lab.jordan import (
    DegenerateNumerics,
    JordanBlock1D,
    JordanDecomposition,
    eigenphases,
    jordan_decompose,
    random_projector,
    reconstruct_check,
    reflect,
    unitary_eig,
)
from cvqc_lab.partition import haar_unitary
from cvqc_lab.qsim import DimensionMismatch, NotAGenerator, NotAProjector, NotUnitary

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]])
PLUS = np.full((2, 2), 0.5)


def _eig_oracle(p0, p1):
    """Independent eigenphase computation straight from a dense eigensolve."""
    dim = p0.shape[0]
    q = (2 * p1 - np.eye(dim)) @ (2 * p0 - np.eye(dim))
    ph = np.angle(np.linalg.eigvals(q))
    ph[ph < -np.pi + 1e-9] = np.pi  # canonicalize the branch cut at -pi
    return np.sort(ph)


def test_reflect_trivial_cases():
    assert np.allclose(reflect(np.zeros((2, 2))).mat, -np.eye(2))
    assert np.allclose(reflect(np.eye(3)).mat, np.eye(3))
    assert np.allclose(reflect(KET0).mat, np.diag([1.0, -1.0]))
    with pytest.raises(NotAProjector):
        reflect(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetric_two_dim_block():
    # overlap 1/2 forces a single rotation block with theta = pi/2
    dec = jordan_decompose(KET0, PLUS)
    assert len(dec.blocks2d) == 1 and not dec.blocks1d
    blk = dec.blocks2d[0]
    assert blk.theta == pytest.approx(np.pi / 2, abs=1e-12)
    assert blk.p == pytest.approx(0.5, abs=1e-12)
    ov = np.vdot(blk.alpha, blk.beta)
    assert ov.real > 0 and abs(ov.imag) <= 1e-9
    res = reconstruct_check(dec, KET0, PLUS)
    assert res.max_q <= 1e-10
    q = (2 * PLUS - np.eye(2)) @ (2 * KET0 - np.eye(2))
    assert np.allclose(q, [[0.0, -1.0], [1.0, 0.0]])


def test_identical_projectors_only_1d():
    dec = jordan_decompose(KET0, KET0)
    assert not dec.blocks2d
    types = sorted((blk.b, blk.c) for blk in dec.blocks1d)
    assert types == [(0, 0), (1, 1)]


def test_complement_projectors_only_flip_types():
    rng = np.random.default_rng(8)
    p0 = random_projector(rng, 5, 2)
    dec = jordan_decompose(p0, np.eye(5) - p0)
    assert not dec.blocks2d
    types = sorted((blk.b, blk.c) for blk in dec.blocks1d)
    assert types == [(0, 1), (0, 1), (0, 1), (1, 0), (1, 0)]


def test_zero_projector_edge():
    rng = np.random.default_rng(9)
    p1 = random_projector(rng, 4, 2)
    dec = jordan_decompose(np.zeros((4, 4)), p1)
    types = sorted((blk.b, blk.c) for blk in dec.blocks1d)
    assert types == [(0, 0), (0, 0), (0, 1), (0, 1)]


def test_random_rank2_dim6_residuals():
    rng = np.random.default_rng(2)
    p0 = random_projector(rng, 6, 2)
    p1 = random_projector(rng, 6, 2)
    dec = jordan_decompose(p0, p1)
    res = reconstruct_check(dec, p0, p1)
    assert max(res.max_p0, res.max_p1, res.max_q, res.gram) <= 1e-8


def test_block_invariants_random_sweep():
    rng = np.random.default_rng(31)
    for _ in range(40):
        dim = int(rng.integers(2, 13))
        p0 = random_projector(rng, dim, int(rng.integers(0, dim + 1)))
        p1 = random_projector(rng, dim, int(rng.integers(0, dim + 1)))
        dec = jordan_decompose(p0, p1)
        assert 2 * len(dec.blocks2d) + len(dec.blocks1d) == dim
        q = (2 * p1 - np.eye(dim)) @ (2 * p0 - np.eye(dim))
        prev = -1.0
        for blk in dec.blocks2d:
            assert 0.0 < blk.theta < np.pi
            assert blk.theta >= prev  # ascending order
            prev = blk.theta
            ov = np.vdot(blk.alpha, blk.beta)
            assert ov.real > 0 and abs(ov.imag) <= 1e-9
            assert abs(blk.p - abs(ov) ** 2) <= 1e-9
            # theta = 2 arccos sqrt(<alpha|P1|alpha>)
            overlap = np.vdot(blk.alpha, p1 @ blk.alpha).real
            assert abs(blk.theta - 2 * np.arccos(np.sqrt(np.clip(overlap, 0, 1)))) <= 1e-8
            # projectors act rank-one inside the block
            for s in (blk.alpha, blk.alpha_perp, blk.beta, blk.beta_perp):
                assert np.linalg.norm(p0 @ s - np.vdot(blk.alpha, s) * blk.alpha) <= 1e-8
                assert np.linalg.norm(p1 @ s - np.vdot(blk.beta, s) * blk.beta) <= 1e-8
            fp, fm = blk.phi_plus, blk.phi_minus
            assert np.linalg.norm(q @ fp - np.exp(1j * blk.theta) * fp) <= 1e-8
            assert np.linalg.norm(q @ fm - np.exp(-1j * blk.theta) * fm) <= 1e-8
        for blk in dec.blocks1d:
            assert np.linalg.norm(p0 @ blk.vector - blk.b * blk.vector) <= 1e-8
            assert np.linalg.norm(p1 @ blk.vector - blk.c * blk.vector) <= 1e-8
        basis = dec.basis()
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(dim))) <= 1e-8


def test_eigenphase_cross_check():
    rng = np.random.default_rng(77)
    for _ in range(25):
        dim = int(rng.integers(2, 13))
        p0 = random_projector(rng, dim, int(rng.integers(1, dim)))
        p1 = random_projector(rng, dim, int(rng.integers(1, dim)))
        dec = jordan_decompose(p0, p1)
        got = eigenphases(dec)
        want = _eig_oracle(p0, p1)
        assert np.max(np.abs(got - want)) <= config.EIGPHASE_TOL


def test_degenerate_theta_direct_sum():
    # two copies of the same 2x2 pair share one rotation angle
    t = 0.7
    u = np.array([np.cos(t), np.sin(t)])
    small1 = np.outer(u, u)
    p0 = np.kron(np.eye(2), KET0)
    p1 = np.kron(np.eye(2), small1)
    dec = jordan_decompose(p0, p1)
    assert len(dec.blocks2d) == 2 and not dec.blocks1d
    assert dec.blocks2d[0].theta == pytest.approx(dec.blocks2d[1].theta, abs=1e-10)
    assert dec.blocks2d[0].theta == pytest.approx(2 * t, abs=1e-10)
    res = reconstruct_check(dec, p0, p1)
    assert max(res.max_p0, res.max_p1, res.max_q, res.gram) <= 1e-8


def test_reconstruct_negative_control():
    rng = np.random.default_rng(4)
    p0 = random_projector(rng, 6, 3)
    p1 = random_projector(rng, 6, 2)
    dec = jordan_decompose(p0, p1)
    blk = dec.blocks2d[0]
    bad = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    bad /= np.linalg.norm(bad)
    corrupted = JordanDecomposition(
        (type(blk)(blk.theta, blk.p, bad, blk.alpha_perp, blk.beta, blk.beta_perp),)
        + dec.blocks2d[1:],
        dec.blocks1d,
        dec.dim,
    )
    res = reconstruct_check(corrupted, p0, p1)
    assert max(res.max_p0, res.max_p1, res.max_q, res.gram) > 1e-3


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        jordan_decompose(KET0, np.eye(4))


def test_0d_projectors_are_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        jordan_decompose(1.0, 1.0)


def test_non_numeric_projectors_are_rejected():
    with pytest.raises(NotAProjector, match="not numeric"):
        jordan_decompose("a", "b")


def test_raw_non_projector_is_rejected():
    with pytest.raises(NotAProjector):
        jordan_decompose(np.array([[1.0, 1.0], [0.0, 0.0]]), KET0)


def test_eigvecs_are_q_eigenvectors_in_block_order():
    rng = np.random.default_rng(81)
    p0, p1 = random_projector(rng, 6, 2), random_projector(rng, 6, 3)
    dec = jordan_decompose(p0, p1)
    vecs, phases = dec.eigvecs()
    q = (2 * p1 - np.eye(6)) @ (2 * p0 - np.eye(6))
    assert np.allclose(q @ vecs, vecs * np.exp(1j * phases), atol=1e-9)
    assert np.allclose(vecs[:, 0], dec.blocks2d[0].phi_plus)
    assert np.array_equal(np.sort(phases), eigenphases(dec))


def _haar(dim, seed=5):
    return haar_unitary(np.random.default_rng(seed), dim)


def _conjugated(phases):
    w = _haar(len(phases), seed=len(phases))
    return w @ np.diag(np.exp(1j * np.asarray(phases, dtype=float))) @ w.conj().T


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _haar(1), id="haar-1"),
    pytest.param(lambda: _haar(2), id="haar-2"),
    pytest.param(lambda: _haar(7), id="haar-7"),
    pytest.param(lambda: _haar(64), id="haar-64"),
    pytest.param(lambda: _conjugated([0.0] * 5), id="identity"),
    pytest.param(lambda: _conjugated([0.0, 0.0, np.pi, np.pi]), id="plus-minus-one"),
    pytest.param(lambda: _conjugated([np.pi / 3, -np.pi / 3] * 3), id="repeated-pairs"),
    pytest.param(lambda: _conjugated([0.4, np.pi - 0.4, -0.4, 0.0]), id="equal-sines"),
])
def test_unitary_eig_matches_dense_eigvals(make):
    q = make()
    dim = q.shape[0]
    phases, vecs = unitary_eig(q)

    def canonical(ph):
        return np.sort(np.where(ph < -np.pi + 1e-9, ph + 2 * np.pi, ph))

    assert np.max(np.abs(canonical(phases) - canonical(np.angle(np.linalg.eigvals(q))))) <= 1e-12
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim))) <= 1e-12
    assert np.max(np.abs(q @ vecs - vecs * np.exp(1j * phases))) <= 1e-12


def test_unitary_eig_rejects_non_normal():
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DegenerateNumerics):
        unitary_eig(shear)
    # a NaN residual is no pass
    with pytest.raises(DegenerateNumerics):
        unitary_eig(np.full((2, 2), np.nan))


@pytest.mark.parametrize("q,error", [("a", NotUnitary), ([["a", 1]], NotUnitary), (None, DimensionMismatch),
                                     ([1.0, 0.0], DimensionMismatch),
                                     (np.eye(3)[:2], DimensionMismatch)])
def test_unitary_eig_refuses_what_is_no_square_matrix(q, error):
    with pytest.raises(error):
        unitary_eig(q)


@pytest.mark.parametrize("dim,rank", [(-1, 1), (0, 0), (3, 4), (3, -1), (3.0, 1), (3, None)])
def test_random_projector_sizes_follow_the_integer_rule(dim, rank):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(DimensionMismatch):
        random_projector(rng, dim, rank)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("bad", [None, 3, np.random.RandomState(0)])
def test_random_projector_refuses_what_is_no_generator(bad):
    with pytest.raises(NotAGenerator):
        random_projector(bad, 2, 1)


@pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf])
def test_non_finite_projectors_are_refused(fill):
    bad = np.where(KET0 == 1, fill, 0.0)
    with np.errstate(invalid="ignore"):
        for pair in ((bad, PLUS), (PLUS, bad)):
            with pytest.raises(NotAProjector):
                jordan_decompose(*pair)
