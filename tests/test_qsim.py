"""Statevector engine checks: layout, operator validation and measurement."""

import numpy as np
import pytest

from cvqc_lab import config
from cvqc_lab.qsim import (
    outcome_probs,
    CapExceeded,
    DimensionMismatch,
    NotAProjector,
    NotUnitary,
    Operator,
    RegisterLayout,
    StateVector,
    UnknownRegister,
    ZeroState,
    measure,
)

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
P0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)


def _random_state(rng, layout):
    amps = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    amps /= np.linalg.norm(amps)
    return StateVector(layout, amps)


def test_layout_rejects_duplicates_and_cap():
    with pytest.raises(ValueError):
        RegisterLayout((("a", 1), ("a", 2)))
    with pytest.raises(CapExceeded):
        RegisterLayout((("big", 21),))
    lay = RegisterLayout((("c", 2), ("x", 3)))
    assert lay.total_qubits == 5 and lay.dim == 32
    with pytest.raises(UnknownRegister):
        lay.width("nope")


def test_statevector_validation():
    lay = RegisterLayout((("q", 1),))
    with pytest.raises(DimensionMismatch):
        StateVector(lay, np.zeros(3, dtype=np.complex128))
    sub = StateVector(lay, np.array([0.5, 0.0]))
    assert sub.norm2 == pytest.approx(0.25)
    for bad in ([np.nan, 0.0], [0.0, np.inf], [0.0, complex(0.0, -np.inf)],
                [complex(np.nan, 1.0), 0.0]):
        with pytest.raises(ValueError, match="non-finite amplitude"):
            StateVector(lay, np.array(bad, dtype=np.complex128))


def test_operator_validation():
    with pytest.raises(NotUnitary):
        Operator.unitary([[1, 0], [0, 2]])
    with pytest.raises(NotAProjector):
        Operator.projector([[0.5, 0.5j], [0.5, 0.5]])
    Operator.unitary(H)
    Operator.projector(P0)
    with pytest.raises(DimensionMismatch):
        Operator(4, np.eye(2), "unitary")


def test_unitarity_residual_is_the_dense_one():
    # the residual, and so the verdict and its message, is max|U^dag U - I|
    # exactly as computed against a dense identity
    rng = np.random.default_rng(4)
    for dim in (1, 2, 8):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        for scale in (0.0, 1e-11, 3e-10, 1e-9, 1e-8):
            mat = q + scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            res = np.max(np.abs(mat.conj().T @ mat - np.eye(dim)))
            if res > config.ATOL:
                with pytest.raises(NotUnitary, match=f"residual {res:.3e}$"):
                    Operator.unitary(mat)
            else:
                assert np.array_equal(Operator.unitary(mat).mat, mat)
    for eps, ok in ((0.4e-9, True), (0.6e-9, False)):
        mat = (1.0 + eps) * np.eye(4)
        if ok:
            Operator.unitary(mat)
        else:
            with pytest.raises(NotUnitary):
                Operator.unitary(mat)


def test_measure_deterministic():
    psi = StateVector(RegisterLayout((("r", 2),)), np.eye(4)[0b01])
    assert measure(psi, "r", np.random.default_rng(0)) == "01"
    assert outcome_probs(psi, "r")[0b01] == pytest.approx(1.0)


def test_measure_born_frequency():
    # |+> should come up 1 about half the time
    lay = RegisterLayout((("q", 1),))
    plus = StateVector(lay, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    rng = np.random.default_rng(2024)
    n = 10**5
    ones = sum(measure(plus, "q", rng) == "1" for _ in range(n))
    assert abs(ones / n - 0.5) <= 0.01


def test_measure_subnormalized_matches_normalized():
    lay = RegisterLayout((("q", 1),))
    scaled = StateVector(lay, np.array([0.3, 0.4], dtype=np.complex128))
    normal = StateVector(lay, np.array([0.6, 0.8], dtype=np.complex128))
    assert np.allclose(outcome_probs(scaled, "q"), [0.09 / 0.25, 0.16 / 0.25])
    assert np.allclose(outcome_probs(scaled, "q"), outcome_probs(normal, "q"))
    draws = [measure(psi, "q", np.random.default_rng(9)) for psi in (scaled, normal)]
    assert draws[0] == draws[1]


def test_measure_zero_state():
    lay = RegisterLayout((("q", 1),))
    dead = StateVector(lay, np.zeros(2))
    with pytest.raises(ZeroState):
        measure(dead, "q", np.random.default_rng(0))


def test_qsim_module_has_no_hidden_norm_mutation():
    lay = RegisterLayout((("q", 1),))
    psi = StateVector(lay, [0.6, 0.8])
    before = psi.amps.copy()
    measure(psi, "q", np.random.default_rng(0))
    assert np.array_equal(psi.amps, before)


def test_operator_rejects_0d_input():
    for make in (Operator.unitary, Operator.projector):
        with pytest.raises(DimensionMismatch):
            make(1.0)


def test_layout_values_read_register_bits():
    lay = RegisterLayout((("a", 2), ("b", 0), ("c", 3), ("d", 1)))
    idx = np.arange(lay.dim)
    bits = [format(i, "06b") for i in idx]
    for name, lo, hi in (("a", 0, 2), ("c", 2, 5), ("d", 5, 6), ("b", 2, 2)):
        want = [int(b[lo:hi] or "0", 2) for b in bits]
        assert lay.values(name).tolist() == want
    with pytest.raises(UnknownRegister):
        lay.values("e")


def test_measure_middle_register_against_reshaped_reference():
    lay = RegisterLayout((("a", 2), ("b", 2), ("c", 1)))
    psi = _random_state(np.random.default_rng(71), lay)
    blocks = np.moveaxis(psi.amps.reshape(4, 4, 2), 1, 0).reshape(4, -1)
    masses = (np.abs(blocks) ** 2).sum(axis=1)
    assert np.allclose(outcome_probs(psi, "b"), masses / masses.sum(), atol=1e-15)
    # measure is one rng.choice over these probabilities
    want = np.random.default_rng(3).choice(4, p=masses / masses.sum())
    assert measure(psi, "b", np.random.default_rng(3)) == format(want, "02b")


@pytest.mark.parametrize("bad", ["a", [["a"]], {"x": 1}, object(), [[1, 2], [3]]])
def test_operator_refuses_a_non_numeric_matrix(bad):
    with pytest.raises(NotUnitary, match="not numeric"):
        Operator.unitary(bad)
    with pytest.raises(NotAProjector, match="not numeric"):
        Operator.projector(bad)
    with pytest.raises(NotUnitary, match="not numeric"):
        Operator(1, bad, "unitary")
