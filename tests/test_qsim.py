"""Statevector engine checks: layout, operator validation and measurement."""

import numpy as np
import pytest

from cvqc_lab import config
from cvqc_lab.qsim import (
    outcome_probs,
    BadLayout,
    CapExceeded,
    DimensionMismatch,
    NonFiniteAmplitude,
    NotAGenerator,
    NotAProjector,
    NotUnitary,
    Operator,
    RegisterLayout,
    StateVector,
    UnknownKind,
    UnknownRegister,
    ZeroState,
    born_table,
    gram_residual,
    measure,
)

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
P0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)


def _random_state(rng, layout):
    amps = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    amps /= np.linalg.norm(amps)
    return StateVector(layout, amps)


def test_layout_rejects_duplicates_and_cap():
    with pytest.raises(BadLayout):
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
        with pytest.raises(NonFiniteAmplitude, match="non-finite amplitude"):
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
    with pytest.raises(UnknownKind, match="unknown operator kind 'foo'"):
        Operator(2, np.eye(2), "foo")
    with pytest.raises(UnknownKind, match="not numeric"):
        Operator(2, "ab", "foo")


@pytest.mark.parametrize("width", [2.5, True, np.float64(3.9), "x", None, -1])
def test_layout_widths_follow_the_integer_rule(width):
    # no width is truncated to an int, and none escapes as a builtin error
    with pytest.raises(BadLayout, match="width of 'a'"):
        RegisterLayout((("a", width),))


def test_layout_widths_take_numpy_integers_as_ints():
    lay = RegisterLayout((("a", np.int64(2)), ("b", 0)))
    assert lay.registers == (("a", 2), ("b", 0)) and type(lay.registers[0][1]) is int
    assert lay.dim == 4


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


def test_measure_draws_as_generator_choice():
    # measure searches qsim's Born table with one rng.random(); that is
    # Generator.choice's table and draw, so the outcome and the stream after
    # it are choice's, zero masses and a width-0 register included
    rng = np.random.default_rng(35)
    for k in range(400):
        width = int(rng.integers(0, 4))
        lay = RegisterLayout((("r", width), ("s", 1)))
        amps = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
        amps[rng.random(lay.dim) < 0.4] = 0.0
        amps[0] = amps[0] or 1.0
        psi = StateVector(lay, amps * 10.0 ** rng.integers(-6, 7))
        probs = outcome_probs(psi, "r")
        ref, mine = np.random.default_rng(k), np.random.default_rng(k)
        want = int(ref.choice(len(probs), p=probs))
        assert measure(psi, "r", mine) == (format(want, f"0{width}b") if width else "")
        assert mine.bit_generator.state == ref.bit_generator.state
    for k in range(2000):
        probs = rng.random(int(rng.integers(1, 9)))
        probs[rng.random(len(probs)) < 0.4] = 0.0
        probs[-1] += not probs.any()
        probs /= probs.sum()
        ref, mine = np.random.default_rng(k), np.random.default_rng(k)
        assert born_table(probs).searchsorted(mine.random(), "right") == ref.choice(len(probs), p=probs)
        assert mine.random() == ref.random()


@pytest.mark.parametrize("bad", [None, 0, "rng", np.random.RandomState(0), np.random.PCG64(0)])
def test_measure_refuses_what_is_no_generator(bad):
    psi = StateVector(RegisterLayout((("q", 1),)), [0.6, 0.8])
    with pytest.raises(NotAGenerator, match="not a numpy.random.Generator"):
        measure(psi, "q", bad)


def test_measure_refuses_a_norm_that_overflows():
    # the Born table of such a state would hold NaNs, so outcome_probs
    # refuses it first
    # complex amplitudes make vdot's real part NaN, not inf
    for amps in ([1e200, 0.0], [1e160, 1e160], [1e160 + 1e160j, 0.0], [1e160 - 3e159j, 1e150j]):
        psi = StateVector(RegisterLayout((("q", 1),)), amps)
        with pytest.raises(NonFiniteAmplitude, match="overflows"):
            measure(psi, "q", np.random.default_rng(0))


@pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf])
def test_non_finite_operators_are_refused(fill):
    # each tolerance test reads `not residual <= tol`, so a NaN residual fails it
    for mat in (np.full((2, 2), fill), np.where(np.eye(2) == 1, fill, 0.0)):
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(gram_residual(np.asarray(mat, dtype=np.complex128)))
            with pytest.raises(NotUnitary):
                Operator.unitary(mat)
            with pytest.raises(NotAProjector):
                Operator.projector(mat)


def test_gram_residual_reads_the_columns():
    assert gram_residual(np.zeros((0, 0))) == 0.0
    assert gram_residual(np.eye(3)[:, :2]) == 0.0
    assert gram_residual(np.eye(3)[:, :2] * 2.0) == 3.0
