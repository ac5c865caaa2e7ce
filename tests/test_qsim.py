"""Statevector engine checks: layout, operator validation and measurement."""

import numpy as np
import pytest

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


def test_operator_validation():
    with pytest.raises(NotUnitary):
        Operator.unitary([[1, 0], [0, 2]])
    with pytest.raises(NotAProjector):
        Operator.projector([[0.5, 0.5j], [0.5, 0.5]])
    Operator.unitary(H)
    Operator.projector(P0)
    with pytest.raises(DimensionMismatch):
        Operator(4, np.eye(2), "unitary")


def test_measure_deterministic():
    lay = RegisterLayout((("r", 2),))
    outcome, post, prob = measure(StateVector(lay, np.eye(4)[0b01]), "r", np.random.default_rng(0))
    assert outcome == "01" and prob == pytest.approx(1.0)
    assert np.allclose(post.amps, np.eye(4)[0b01])


def test_measure_born_frequency():
    # |+> should come up 1 about half the time
    lay = RegisterLayout((("q", 1),))
    plus = StateVector(lay, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    rng = np.random.default_rng(2024)
    n = 10**5
    ones = sum(measure(plus, "q", rng)[0] == "1" for _ in range(n))
    assert abs(ones / n - 0.5) <= 0.01


def test_measure_entanglement_collapse():
    lay = RegisterLayout((("a", 1), ("b", 1)))
    bell = StateVector(lay, np.array([1, 0, 0, 1]) / np.sqrt(2))
    rng = np.random.default_rng(1)
    for _ in range(20):
        outcome, post, prob = measure(bell, "a", rng)
        assert prob == pytest.approx(0.5)
        target = 0b00 if outcome == "0" else 0b11
        assert np.allclose(post.amps, np.eye(4)[target])


def test_measure_subnormalized_matches_normalized():
    lay = RegisterLayout((("q", 1),))
    amps = np.array([0.3, 0.4], dtype=np.complex128)
    scaled = StateVector(lay, amps)
    outcome, post, prob = measure(scaled, "q", np.random.default_rng(9))
    expect = 0.09 / 0.25 if outcome == "0" else 0.16 / 0.25
    assert prob == pytest.approx(expect)
    assert post.norm2 == pytest.approx(1.0)


def test_measure_zero_state():
    lay = RegisterLayout((("q", 1),))
    dead = StateVector(lay, np.zeros(2))
    with pytest.raises(ZeroState):
        measure(dead, "q", np.random.default_rng(0))


def test_measurement_completeness():
    # conditional outcome probabilities over a register sum to one
    rng = np.random.default_rng(42)
    lay = RegisterLayout((("a", 2), ("b", 2)))
    psi = _random_state(rng, lay)
    seen = {}
    probe = np.random.default_rng(0)
    for _ in range(400):
        outcome, _, prob = measure(psi, "a", probe)
        seen[outcome] = prob
    assert abs(sum(seen.values()) - 1.0) <= 1e-9


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
    bits, post, p = measure(psi, "b", np.random.default_rng(3))
    k = int(bits, 2)
    want = np.zeros((4, 4, 2), dtype=np.complex128)
    want[:, k, :] = psi.amps.reshape(4, 4, 2)[:, k, :] / np.sqrt(masses[k])
    assert np.allclose(post.amps, want.reshape(-1), atol=1e-15)
    assert abs(p - masses[k] / masses.sum()) < 1e-15
