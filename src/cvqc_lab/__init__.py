"""Desk-scale laboratory for classical verification of quantum computation.

Modules:
    jordan     two-projector block decomposition
    qsim       dense register-level state simulator
    partition  phase-estimation partition procedures and claims
    protocol   four-round toy protocol, repetition, Fiat-Shamir
    effverify  efficient-verifier composition over stub backends
    claims     one function per checked claim, shared by the CLI and the gate
    cli        experiment runner and table renderer (imported on demand,
               so `python -m cvqc_lab.cli` runs it exactly once)
"""

from . import config, effverify, jordan, partition, protocol, qsim
from .effverify import make_stub_suite, run_four_round, run_two_round_fs, toy_inner
from .jordan import jordan_decompose, reconstruct_check
from .partition import PartitionParams, ProverStrategy, partition_chain, run_G, run_H
from .protocol import (
    OracleTable,
    fiat_shamir,
    parallel_repeat,
    run_protocol,
    toy_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "claims",
    "cli",
    "config",
    "effverify",
    "jordan",
    "partition",
    "protocol",
    "qsim",
    "OracleTable",
    "PartitionParams",
    "ProverStrategy",
    "fiat_shamir",
    "jordan_decompose",
    "make_stub_suite",
    "parallel_repeat",
    "partition_chain",
    "reconstruct_check",
    "run_G",
    "run_H",
    "run_four_round",
    "run_protocol",
    "run_two_round_fs",
    "toy_inner",
    "toy_protocol",
    "__version__",
]
