"""Machine-speed probe that puts round times on one scale.

The reference machine is a 2-vCPU virtual machine on a shared host.
With nothing else running in it, the same round of operations takes
anywhere from 1.6 s to 3.1 s, in slow and fast spells that last tens of
seconds (steal time stays near zero, and CPU time varies as much as wall
time).  A 30 s run often sits inside one spell, so raw medians of
identical runs spread by 25% and more.

The probe is a fixed piece of work that belongs to the benchmark, not
to cvqc_lab: a pure-Python loop, dict inserts, small numpy generators
and sha256 calls, the same kinds of work the workloads do.  It runs
between operations, at least every PROBE_EVERY_S of operation time, and
each round's times are scaled by REFERENCE_S / (mean probe time in that
round): they read as seconds at the reference machine's typical speed.
On traces of all three workloads this cut the spread of 30 s medians
from 5-13% to 2-3% (interquartile range over median).
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

# median probe time on the reference machine (Intel Xeon at 2.1 GHz,
# Python 3.11.7, numpy 2.4.6); only the scale of the reported times
# depends on it
REFERENCE_S = 3.4e-3
PROBE_EVERY_S = 0.05


def probe() -> float:
    """Seconds the fixed probe work takes right now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(12_000):
        total += i * i % 7
    table = {}
    for i in range(2_000):
        table[str(i)] = i
    for i in range(60):
        np.random.Generator(np.random.PCG64(i)).random(4)
    for i in range(600):
        hashlib.sha256(b"x" * 64 + i.to_bytes(4, "big")).digest()
    return time.perf_counter() - t0
