"""Statevector engine checks: pinned examples plus randomized invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqc_lab import qsim
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
    apply,
    measure,
    project,
    tensor,
)

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
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
    assert lay.qubit_positions("x") == [2, 3, 4]
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


def test_tensor_basis_product():
    # |0> (x) |1> lands on index 1 of a 2-qubit space
    a = StateVector(RegisterLayout((("a", 1),)), [1, 0])
    b = StateVector(RegisterLayout((("b", 1),)), [0, 1])
    out = tensor(a, b)
    expect = np.zeros(4)
    expect[1] = 1.0
    assert np.allclose(out.amps, expect)


def test_tensor_linearity():
    plus = StateVector(RegisterLayout((("a", 1),)), [1 / np.sqrt(2), 1 / np.sqrt(2)])
    zero = StateVector(RegisterLayout((("b", 1),)), [1, 0])
    out = tensor(plus, zero)
    assert np.allclose(out.amps, [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0])


def test_tensor_norm_product():
    rng = np.random.default_rng(7)
    a = _random_state(rng, RegisterLayout((("a", 2),)))
    b = _random_state(rng, RegisterLayout((("b", 1),)))
    a = StateVector(a.layout, a.amps * 0.9)
    out = tensor(a, b)
    assert abs(out.norm2 - a.norm2 * b.norm2) <= 1e-12


def test_tensor_cap():
    a = StateVector(RegisterLayout((("a", 12),)), np.eye(1, 1 << 12)[0])
    b = StateVector(RegisterLayout((("b", 12),)), np.eye(1, 1 << 12)[0])
    with pytest.raises(CapExceeded):
        tensor(a, b)


def test_apply_pauli_flip():
    lay = RegisterLayout((("C", 1),))
    out = apply(Operator.unitary(X), StateVector(lay, [1, 0]), ["C"])
    assert np.allclose(out.amps, [0, 1])


def test_apply_identity_bitwise():
    rng = np.random.default_rng(3)
    lay = RegisterLayout((("a", 2), ("b", 1)))
    psi = _random_state(rng, lay)
    out = apply(Operator.unitary(np.eye(2)), psi, ["b"])
    assert np.array_equal(out.amps, psi.amps)


def test_apply_h_involution():
    rng = np.random.default_rng(11)
    lay = RegisterLayout((("a", 1), ("b", 2)))
    psi = _random_state(rng, lay)
    once = apply(Operator.unitary(H), psi, ["a"])
    twice = apply(Operator.unitary(H), once, ["a"])
    assert np.max(np.abs(twice.amps - psi.amps)) <= 1e-12


def test_apply_register_order():
    # CNOT with control listed first: |10> on (hi, lo) flips lo
    lay = RegisterLayout((("lo", 1), ("hi", 1)))
    cnot = np.eye(4)[[0, 1, 3, 2]]
    psi = StateVector(lay, np.eye(4)[0b01])  # lo=0, hi=1
    out = apply(Operator.unitary(cnot), psi, ["hi", "lo"])
    assert np.allclose(out.amps, np.eye(4)[0b11])


def test_apply_errors():
    lay = RegisterLayout((("a", 1),))
    psi = StateVector(lay, [1, 0])
    with pytest.raises(DimensionMismatch):
        apply(Operator.unitary(np.eye(4)), psi, ["a"])
    with pytest.raises(UnknownRegister):
        apply(Operator.unitary(np.eye(2)), psi, ["zz"])


def test_project_textbook():
    plus = StateVector(RegisterLayout((("q", 1),)), [1 / np.sqrt(2), 1 / np.sqrt(2)])
    out = project(Operator.projector(P0), plus, ["q"])
    assert np.allclose(out.amps, [1 / np.sqrt(2), 0])
    assert out.norm2 == pytest.approx(0.5)


def test_project_identity_and_idempotence():
    rng = np.random.default_rng(5)
    lay = RegisterLayout((("a", 2),))
    psi = _random_state(rng, lay)
    eye = Operator.projector(np.eye(4))
    assert np.array_equal(project(eye, psi, ["a"]).amps, psi.amps)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    p = Operator.projector(np.outer(v, v.conj()))
    once = project(p, psi, ["a"])
    twice = project(p, once, ["a"])
    assert np.max(np.abs(twice.amps - once.amps)) <= 1e-12
    with pytest.raises(NotAProjector):
        project(Operator.unitary(H), psi, ["a"][:1])


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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 3))
def test_unitarity_preserves_norm(seed, nq):
    rng = np.random.default_rng(seed)
    lay = RegisterLayout((("a", nq), ("pad", 1)))
    psi = _random_state(rng, lay)
    m = rng.standard_normal((2**nq, 2**nq)) + 1j * rng.standard_normal((2**nq, 2**nq))
    q, _ = np.linalg.qr(m)
    out = apply(Operator.unitary(q), psi, ["a"])
    assert abs(out.norm2 - psi.norm2) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_projection_monotone(seed):
    rng = np.random.default_rng(seed)
    lay = RegisterLayout((("a", 2),))
    psi = _random_state(rng, lay)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(m)
    rank = int(rng.integers(1, 4))
    p = q[:, :rank] @ q[:, :rank].conj().T
    out = project(Operator.projector(p), psi, ["a"])
    assert out.norm2 <= psi.norm2 + 1e-12


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
    apply(Operator.unitary(H), psi, ["q"])
    project(Operator.projector(P0), psi, ["q"])
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
