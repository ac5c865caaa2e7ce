"""Minimal dense statevector engine with named registers.

States live over an ordered list of named registers; the first register
occupies the most significant bits of the flat amplitude index. Everything
is immutable. Sub-normalized states are first-class citizens because the
partition machinery manipulates unnormalized branch components throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from . import config


class BadLayout(Exception):
    """Register names or widths that do not make a layout."""


class CapExceeded(Exception):
    """Total qubit count would exceed the configured dense-simulation cap."""


class DimensionMismatch(Exception):
    """Operator dimension does not match the targeted subsystem."""


class UnknownRegister(Exception):
    """A named register is not present in the layout."""


class NotAProjector(Exception):
    """Operator failed the projector well-formedness check."""


class NotUnitary(Exception):
    """Operator failed the unitarity check."""


class UnknownKind(Exception):
    """An operator kind other than unitary or projector."""


class ZeroState(Exception):
    """Measurement attempted on a state with (numerically) zero norm."""


class NonFiniteAmplitude(Exception):
    """A state amplitude is NaN or infinite, or the squared norm overflows."""


class NotAGenerator(Exception):
    """An rng that is not a numpy.random.Generator."""


def check_rng(rng) -> None:
    """NotAGenerator unless rng is a numpy.random.Generator; each sampler
    calls it before its first draw."""
    if not isinstance(rng, Generator):
        raise NotAGenerator(f"rng={rng!r} is not a numpy.random.Generator")


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers; first register = most significant qubits."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "registers", tuple(
            (str(n), config.check_int(f"width of {n!r}", w, 0, BadLayout)) for n, w in self.registers))
        names = [n for n, _ in self.registers]
        if len(set(names)) != len(names):
            raise BadLayout(f"duplicate register names in {names}")
        total = sum(w for _, w in self.registers)
        if total > config.QUBIT_CAP:
            raise CapExceeded(f"{total} qubits exceeds cap {config.QUBIT_CAP}")
        # derived once; plain attributes, so eq, hash and repr stay the registers'
        object.__setattr__(self, "total_qubits", total)
        object.__setattr__(self, "dim", 1 << total)

    def width(self, name: str) -> int:
        for n, w in self.registers:
            if n == name:
                return w
        raise UnknownRegister(name)

    def values(self, name: str) -> np.ndarray:
        """The register's value, its bits read MSB-first, at every flat index."""
        shift = 0
        for n, w in reversed(self.registers):
            if n == name:
                return (np.arange(self.dim) >> shift) & ((1 << w) - 1)
            shift += w
        raise UnknownRegister(name)


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over a register layout; possibly sub-normalized."""

    layout: RegisterLayout
    amps: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if amps.shape != (self.layout.dim,):
            raise DimensionMismatch(
                f"amps length {amps.shape} vs layout dim {self.layout.dim}")
        if not np.isfinite(amps).all():
            raise NonFiniteAmplitude("non-finite amplitude")
        object.__setattr__(self, "amps", amps)

    @classmethod
    def _finite(cls, layout: RegisterLayout, amps: np.ndarray) -> "StateVector":
        """A state built without checks: amps must be a fresh, C-contiguous
        complex128 array of layout.dim entries that the caller proved finite."""
        state = object.__new__(cls)
        object.__setattr__(state, "layout", layout)
        object.__setattr__(state, "amps", amps)
        return state

    @property
    def norm2(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


def gram_residual(mat: np.ndarray) -> float:
    """max|M^dag M - I| over the columns of mat (0.0 for none); not finite
    when mat holds a NaN or an infinity, and every `not res <= tol` refuses it."""
    gram = mat.conj().T @ mat
    gram.reshape(-1)[::len(gram) + 1] -= 1.0  # M^dag M - I, in place
    return float(np.max(np.abs(gram), initial=0.0))


def _as_matrix(mat, kind: str) -> np.ndarray:
    """mat as a complex array; one that holds no numbers is refused with the kind's error."""
    try:
        return np.asarray(mat, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        error = {"unitary": NotUnitary, "projector": NotAProjector}.get(kind, UnknownKind)
        raise error(f"{kind} matrix is not numeric: {exc}") from None


@dataclass(frozen=True)
class Operator:
    """Dense matrix on a power-of-2 dimension with a well-formedness tag."""

    dim: int
    mat: np.ndarray
    kind: str  # unitary | projector

    def __post_init__(self):
        mat = _as_matrix(self.mat, self.kind)
        if mat.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"matrix shape {mat.shape} vs dim {self.dim}")
        if self.dim < 1:
            raise DimensionMismatch(f"dim {self.dim}")
        if self.kind == "unitary":
            res = gram_residual(mat)
            if not res <= config.ATOL:
                raise NotUnitary(f"U^dag U - I residual {res:.3e}")
        elif self.kind == "projector":
            res_idem = np.max(np.abs(mat @ mat - mat))
            res_herm = np.max(np.abs(mat - mat.conj().T))
            if not (res_idem <= config.ATOL and res_herm <= config.ATOL):
                raise NotAProjector(
                    f"P^2-P residual {res_idem:.3e}, P-P^dag residual {res_herm:.3e}")
        else:
            raise UnknownKind(f"unknown operator kind {self.kind!r}")
        object.__setattr__(self, "mat", mat)

    @classmethod
    def unitary(cls, mat) -> "Operator":
        mat = _as_matrix(mat, "unitary")
        # a 0-d array claims dim 0 and fails the shape check
        return cls(mat.shape[0] if mat.ndim else 0, mat, "unitary")

    @classmethod
    def projector(cls, mat) -> "Operator":
        mat = _as_matrix(mat, "projector")
        return cls(mat.shape[0] if mat.ndim else 0, mat, "projector")


def born_table(probs: np.ndarray) -> np.ndarray:
    """The table Generator.choice searches for probs: their cumsum, divided in
    place by its last entry; a draw u = rng.random() falls at
    table.searchsorted(u, "right")."""
    table = probs.cumsum()
    table /= table[-1]
    return table


def outcome_probs(state: StateVector, register: str) -> np.ndarray:
    """Born probabilities of each computational-basis outcome of one register.

    Taken relative to the state's squared norm, so sub-normalized inputs
    behave like their normalized versions; entry i is the outcome whose
    bits read i MSB-first.
    """
    total = state.norm2
    if total <= config.ZERO_STATE_TOL:
        raise ZeroState(f"norm^2 = {total:.3e}")
    # an overflow reads inf, or NaN where a complex product meets inf - inf
    if not total < np.inf:
        raise NonFiniteAmplitude("norm^2 overflows")
    masses = np.bincount(state.layout.values(register),
                         weights=(state.amps.conj() * state.amps).real,
                         minlength=1 << state.layout.width(register))
    probs = masses / total
    return probs / probs.sum()


def measure(state: StateVector, register: str, rng: np.random.Generator) -> str:
    """Sample one computational-basis outcome of a register as a bitstring.

    The outcome is where one rng.random() falls in the `born_table` of
    `outcome_probs`, the index and the stream Generator.choice would give.
    It is drawn even for a width-0 register (whose outcome is ""), so a
    caller's stream advances the same way whatever the width.
    """
    check_rng(rng)
    table = born_table(outcome_probs(state, register))
    outcome = int(table.searchsorted(rng.random(), "right"))
    w = state.layout.width(register)
    return format(outcome, f"0{w}b") if w else ""
