"""Benchmark of cvqc-lab: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a plain checkout: the package is imported from
./src, nothing is installed.  The run first times SETUP_PROBES fresh
processes from their start to the point where the workload's inputs are
built, then repeats whole rounds of the workload's operations: one
warm-up round (it fills the caches that persist across rounds), then
measured rounds until --seconds have passed and at least
MIN_MEASURED_ROUNDS have run.  Every round runs the same operations on
the same inputs and is checked against independent reference values.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  --trace 0 reports the end-to-end metrics, --trace 1 wraps
the package's layer entry points and reports the per-layer ones (see
README.md).  Notes on each round, failures and the machine go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MIN_MEASURED_ROUNDS = 3
PROBE_TIMEOUT_S = 60
THREADS_ENV = "CVQC_LAB_THREADS"  # the CLI pool stays at one worker when unset
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB"}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "hashed", "spectral"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap


def _use_checkout_sources():
    if not (SRC / "cvqc_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC}/cvqc_lab; "
                 "run from the root of a cvqc-lab checkout")
    sys.path.insert(0, str(SRC))


def _setup_probe(args) -> int:
    """Child process: import the package, build the inputs, report, exit."""
    t0 = time.perf_counter()
    import cvqc_lab  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads
    workloads.WORKLOADS[args.workload](args.seed, str(ROOT))
    print(f"ready {import_s!r}", flush=True)
    return 0


def _time_setup(args) -> tuple[float, float]:
    """One fresh process from its start to its first operation: (setup, import)."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return setup_s, float(line.split()[1])


def run_round(ops, tracer=None) -> dict:
    """Run every operation once; a failing call is counted and the round goes on.

    `scale` converts this round's seconds to the reference machine's speed
    (see speed.py).
    """
    # imported here, not at the top: numpy must load inside the setup
    # probe's timed `import cvqc_lab`
    import checks
    import speed

    digest = hashlib.sha256()
    wall = sampling = 0.0
    trials = failed = 0
    problems, errors, probes = [], [], []
    since_probe = speed.PROBE_EVERY_S
    if tracer is not None:
        tracer.reset()
    for op in ops:
        if since_probe >= speed.PROBE_EVERY_S:
            probes.append(speed.probe())
            since_probe = 0.0
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # the program failed this operation; keep measuring
            dt = time.perf_counter() - t0
            wall += dt
            since_probe += dt
            failed += 1
            errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
            digest.update(f"{op.name} failed {type(exc).__name__}\n".encode())
            continue
        dt = time.perf_counter() - t0
        wall += dt
        since_probe += dt
        if op.trials:
            sampling += dt
            trials += op.trials
        try:
            summary = op.check(result)
        except checks.CheckFailed as exc:
            problems.append(str(exc))
            summary = "check failed"
        digest.update(f"{op.name} {summary!r}\n".encode())
    return {
        "attempted": len(ops), "failed": failed, "wall": wall, "sampling": sampling,
        "trials": trials, "scale": speed.REFERENCE_S / statistics.fmean(probes),
        "digest": digest.hexdigest(), "problems": problems, "errors": errors,
        "layers": tracer.snapshot() if tracer is not None else None,
    }


def run_rounds(ops, seconds: float, tracer=None) -> dict:
    """A warm-up round, then measured rounds for `seconds` (at least a few)."""
    warmup = run_round(ops, tracer)
    measured = []
    t0 = time.perf_counter()
    while len(measured) < MIN_MEASURED_ROUNDS or time.perf_counter() - t0 < seconds:
        measured.append(run_round(ops, tracer))
    rounds = [warmup] + measured
    problems = [p for r in rounds for p in r["problems"]]
    digests = {r["digest"] for r in rounds}
    if len(digests) != 1:
        problems.append(f"rounds disagree on the same inputs: {len(digests)} digests")
    return {"rounds": rounds, "measured": measured, "problems": problems,
            "digest": warmup["digest"]}


def _blas_info() -> str:
    """BLAS library and its thread count, read from the loaded library."""
    import ctypes

    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{cfg.get('name')} {cfg.get('version')}"
    except (KeyError, TypeError):
        name = "unknown BLAS"
    threads = "unknown"
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                threads = str(getattr(handle, fn)())
                break
    return f"{name}, {threads} threads"


def _machine_line() -> str:
    import numpy
    import scipy

    return (f"machine: nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}, {_blas_info()}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _use_checkout_sources()
    os.environ.pop(THREADS_ENV, None)
    if args.setup_probe:
        return _setup_probe(args)

    setups = [_time_setup(args) for _ in range(SETUP_PROBES)]
    import tracing
    import workloads

    print(_machine_line(), file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        ops = workloads.WORKLOADS[args.workload](args.seed, scratch)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            report = run_rounds(ops, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()

    rounds, measured = report["rounds"], report["measured"]
    problems = report["problems"]
    walls = [r["wall"] * r["scale"] for r in measured]
    for err in dict.fromkeys(e for r in rounds for e in r["errors"]):
        print(f"failed: {err}", file=sys.stderr)
    for p in dict.fromkeys(problems):
        print(f"check: {p}", file=sys.stderr)
    print(f"rounds: {len(rounds)} ({len(measured)} measured), first one warm-up", file=sys.stderr)
    for label, key in (("raw round s", "wall"), ("speed scale", "scale")):
        print(f"{label}: " + " ".join(f"{r[key]:.4f}" for r in rounds), file=sys.stderr)
    print(f"results sha256: {report['digest']}", file=sys.stderr)

    if tracer is not None:
        metrics, moved = tracing.layer_metrics(
            [r["layers"] for r in measured], [r["scale"] for r in measured],
            statistics.median(i for _, i in setups), walls)
        problems += moved
    else:
        values = {
            "setup_s": statistics.median(s for s, _ in setups),
            "wall_s": statistics.median(walls),
            "trials_per_s": (sum(r["trials"] for r in measured)
                             / sum(r["sampling"] * r["scale"] for r in measured)),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
