"""Centralized numeric tolerances and size limits.

Every fixed tolerance in the package lives here so experiments and tests
agree on what "equal" means.
"""

import numbers

import numpy as np


def check_int(name: str, value, low: int, error: type, high: int | None = None) -> int:
    """value as a plain int; error unless an int or numpy integer (never a bool) in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name}={value!r} is not an integer")
    value = int(value)
    if high is None and value < low:
        raise error(f"{name}={_shown(value)} below {low}")
    if high is not None and not low <= value <= high:
        raise error(f"{name}={_shown(value)} outside {low}..{high}")
    return value


def _shown(value: int) -> str:
    """value in decimal, or its size where Python refuses to print that many digits."""
    return str(value) if abs(value) < 10**4000 else f"<a {value.bit_length()}-bit integer>"


def check_real(name: str, value, lo: float, hi: float, error: type) -> float:
    """value as a float; error unless a real number (never a bool or NaN) in finite [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name}={value!r} is not a real number")
    if not lo <= value <= hi:
        raise error(f"{name}={value} outside [{lo}, {hi}]")
    return float(value)

# Default absolute tolerance for operator well-formedness checks
# (unitarity, projector idempotence/hermiticity).
ATOL = 1e-9

# Residual budget for reconstruction-style checks (rebuilding projectors
# from Jordan block data, branch additivity, exclusivity).
RESIDUAL_TOL = 1e-8

# Orthonormalization residual above which a decomposition is rejected
# as numerically degenerate.
DEGENERATE_LIMIT = 1e-6

# Eigenphases within this distance of 0 or pi are classified as
# one-dimensional invariant vectors rather than rotation blocks.
EIGPHASE_TOL = 1e-7

# Total qubits a single dense state, or a phase register of precision tau,
# may use: dimension <= 2**QUBIT_CAP.
QUBIT_CAP = 20

# A branch (or overlap reference) below this norm is treated as zero when
# extracting unit-modulus phases; the phase then defaults to 1.
ZERO_BRANCH_TOL = 1e-12

# States with squared norm at or below this cannot be measured.
ZERO_STATE_TOL = 1e-15

# Every table of reached states in partition (a _Table) starts over before
# the numbers its entries may hold would pass this: 4 xz_dim per grid point,
# (2m + 2) xz_dim per H walk; dim per extractor root, 2 dim per node (its miss
# vector and X_i CDF, held from the node's making on), 1 per outcome.
EXTRACT_TABLE_AMPS = 2 ** 20
