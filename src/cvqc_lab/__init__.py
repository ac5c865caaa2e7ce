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

__version__ = "0.1.0"
