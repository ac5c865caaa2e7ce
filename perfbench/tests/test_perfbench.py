"""Tests of the benchmark itself.

Each check must fail on a planted wrong value, an operation the program
fails must be counted without ending the run, and the traced run must
compute the same results as the untraced one.  Run from the repository
root:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cvqc_lab import jordan, protocol  # noqa: E402
from cvqc_lab.partition import HAbort  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    scratch = str(tmp_path_factory.mktemp("scratch"))
    return {name: {op.name: op for op in build(SEED, scratch)}
            for name, build in workloads.WORKLOADS.items()}


def _fails(op, result):
    with pytest.raises(checks.CheckFailed):
        op.check(result)


# ---------------------------------------------------------------------------
# closed forms and Monte Carlo tolerances


def test_closed_forms_at_known_points():
    assert checks.testonly_rate(3) == 0.125
    assert checks.honest_rate(0, 1) == 0.5
    assert checks.grinder_rate(1, 2) == 0.75
    assert checks.extractor_success(0.5, 2) == 0.75
    assert checks.extractor_success(1.0, 1) == 1.0


@pytest.mark.parametrize("expect, planted", [
    (checks.testonly_rate(3), checks.testonly_rate(4)),
    (checks.honest_rate(12, 20), checks.honest_rate(6, 20)),
    (checks.grinder_rate(4, 8), checks.grinder_rate(4, 6)),
    (checks.extractor_success(0.3, 10), checks.extractor_success(0.2, 10)),
])
def test_count_check_rejects_a_planted_rate(expect, planted):
    trials = 10_000
    checks.check_count("exact", round(trials * expect), trials, expect)
    with pytest.raises(checks.CheckFailed):
        checks.check_count("planted", round(trials * planted), trials, expect)


def test_cheat_enumeration_on_known_unitaries():
    n, dim = 4, 128
    # identity: X reads 0, so a test round needs x_0 == y (1/16) and a
    # Hadamard round answers d = 0 and always fails
    assert checks.cheat_coordinate_accept(np.eye(dim), n, 1) == pytest.approx(1 / 32)
    # send |1, 0...0> to X = (m0 = 1, d = all ones): parity(d & delta) is
    # the odd parity of the key difference, so every Hadamard round passes
    perm = np.eye(dim)
    target = (1 << 6) | (0b11111 << 1)
    perm[:, [64, target]] = perm[:, [target, 64]]
    assert checks.cheat_coordinate_accept(perm, n, 1) == pytest.approx(0.5 / 16 + 0.5)


# ---------------------------------------------------------------------------
# every operation's check rejects a planted result


def test_sweep_checks_reject_planted_stats(ops):
    sweep = ops["sweep"]
    for name in ("testonly m=3", "honest m=20", "honest no-instance m=4", "cheat n=4 m=1"):
        op = sweep[name]
        st = op.call()
        op.check(st)
        wrong = st.accepts // 2 if st.accepts > 1000 else st.accepts + 1000
        _fails(op, dataclasses.replace(st, accepts=wrong))


def test_hashed_checks_reject_planted_results(ops):
    hashed = ops["hashed"]
    honest = hashed["fs honest"]
    st = honest.call()
    honest.check(st)
    _fails(honest, dataclasses.replace(st, queries=st.queries + 1))
    grind = hashed["fs grinder q=2"]
    st = grind.call()
    grind.check(st)
    _fails(grind, dataclasses.replace(st, accepts=st.accepts // 2))
    rerun = hashed["fs rerun"]
    a, b = rerun.call()
    rerun.check((a, b))
    _fails(rerun, (a, dataclasses.replace(b, accepts=b.accepts - 1)))

    sessions = hashed["sessions two-round"]
    out = sessions.call()
    sessions.check(out)
    _fails(sessions, [(tb, tb != 4096, r) for tb, _, r in out])
    flat = [(tb, v, dataclasses.replace(r, prover_ops=1000)) for tb, v, r in out]
    _fails(sessions, flat)

    deviations = hashed["deviations"]
    honest_ok, mutated, foreign, deviants = deviations.call()
    deviations.check((honest_ok, mutated, foreign, deviants))
    _fails(deviations, (False, mutated, foreign, deviants))
    _fails(deviations, (honest_ok, [True] + mutated[1:], foreign, deviants))
    _fails(deviations, (honest_ok, mutated, foreign[:-1] + [True], deviants))
    _fails(deviations, (honest_ok, mutated, foreign, [True] + deviants[1:]))

    cli_op = hashed["cli effverify-demo"]
    payload, table = cli_op.call()
    cli_op.check((payload, table))
    bad = json.loads(json.dumps(payload))
    bad["rows"][0]["measured"] = "1"
    _fails(cli_op, (bad, table))
    _fails(cli_op, (payload, table.replace(" yes", " no", 1)))


def test_spectral_checks_reject_planted_results(ops):
    spectral = ops["spectral"]
    op = spectral["jordan dim=16"]
    dec = op.call()
    op.check(dec)
    blk = dec.blocks2d[0]
    nudged = dataclasses.replace(blk, alpha=blk.alpha + 1e-6)
    _fails(op, dataclasses.replace(dec, blocks2d=(nudged,) + dec.blocks2d[1:]))
    turned = dataclasses.replace(blk, theta=blk.theta + 1e-5)
    _fails(op, dataclasses.replace(dec, blocks2d=(turned,) + dec.blocks2d[1:]))

    op = spectral["cold run_G m=2"]
    out = op.call()
    op.check(out)
    _fails(op, dataclasses.replace(out, psi1=out.psi0))
    grown = dataclasses.replace(out.psi0, amps=out.psi0.amps * 1.5 + 0.1)
    _fails(op, dataclasses.replace(out, psi0=grown))

    op = spectral["grid m=1 i=1 kernel"]
    outs = op.call()
    op.check(outs)
    heavy = dataclasses.replace(outs[0].psi_err, amps=outs[0].psi_err.amps + 10.0)
    _fails(op, [dataclasses.replace(outs[0], psi_err=heavy)] + outs[1:])

    op = spectral["chain m=2"]
    per_tuple = op.call()
    op.check(per_tuple)
    full = [dataclasses.replace(ch, remainder_norm2=1.0) for ch in per_tuple[0]]
    _fails(op, [full] + per_tuple[1:])

    op = spectral["run_H c=01"]
    chain, outs = op.call()
    op.check((chain, outs))
    _fails(op, (chain, [HAbort(stop_index=1)] * len(outs)))

    op = spectral["extract p=0.5 N=10"]
    outs = op.call()
    op.check(outs)
    _fails(op, [dataclasses.replace(o, a_i=None) for o in outs])
    _fails(op, [dataclasses.replace(o, a_i="1") if o.success else o for o in outs])


# ---------------------------------------------------------------------------
# failures are counted; tracing changes nothing


def test_failing_operation_is_counted_and_the_round_goes_on(ops):
    def boom():
        raise IndexError("planted")

    planted = workloads.Op("planted", boom, lambda r: ())
    nested = ops["sweep"]["testonly nested 3x2"]
    after = ops["sweep"]["testonly m=1"]
    r = run.run_round([planted, nested, after])
    assert r["attempted"] == 3
    assert r["failed"] == len(r["errors"]) >= 1
    assert r["errors"][0] == "planted: IndexError: planted"
    assert r["problems"] == []
    # the operation after the failures still ran and was checked
    nested_ran = r["failed"] == 1
    assert r["trials"] == after.trials + (nested.trials if nested_ran else 0)


CHEAP = {
    "sweep": ("testonly m=1", "cheat n=4 m=1", "testonly nested 3x2"),
    "hashed": ("fs grinder q=1", "sessions four-round", "deviations", "cli effverify-demo"),
    "spectral": ("cold run_G m=1", "cold run_G m=3", "jordan dim=16", "grid m=1 i=1 kernel",
                 "chain m=2", "run_H c=10", "extract p=0.3 N=2"),
}
EXERCISED = {
    "sweep": ("protocol.interactive.trials", "protocol.cheat.trials", "qsim.measure.calls"),
    "hashed": ("protocol.fs.trials", "protocol.oracle.queries", "effverify.session.calls",
               "effverify.run_machine.steps", "cli.run.calls", "cli.output_bytes"),
    "spectral": ("jordan.jordan_decompose.calls", "partition.spectral_data.misses",
                 "partition.run_G.calls", "partition.partition_chain.calls",
                 "partition.extract.calls", "partition.extract.rounds",
                 "partition.run_H.calls"),
}


@pytest.mark.parametrize("workload", sorted(CHEAP))
def test_tracing_changes_no_result_and_counts_repeat(ops, workload):
    subset = [ops[workload][name] for name in CHEAP[workload]]
    plain = run.run_round(subset)
    originals = (protocol.run_protocol, jordan.jordan_decompose, protocol.OracleTable.query)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        first = run.run_round(subset, tracer)
        second = run.run_round(subset, tracer)
    finally:
        tracer.uninstall()
    assert originals == (protocol.run_protocol, jordan.jordan_decompose,
                         protocol.OracleTable.query)
    assert plain["problems"] == first["problems"] == []
    assert plain["digest"] == first["digest"] == second["digest"]
    counts = {name for name, _, _, kind in tracing.LAYER_METRICS if kind == "count"}
    layers = first["layers"]
    assert {k: layers[k] for k in counts & set(layers)} == \
        {k: second["layers"][k] for k in counts & set(layers)}
    for name in EXERCISED[workload]:
        assert layers[name] > 0, name


# ---------------------------------------------------------------------------
# the command and BENCHMARK.json


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS]


@pytest.mark.parametrize("trace, names", [
    (0, set(run.END_TO_END_UNITS)),
    (1, {name for name, *_ in tracing.LAYER_METRICS}),
])
def test_command_prints_one_result_line(trace, names):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectral", "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == names
    assert not list(ROOT.glob(".perfbench-*"))


def test_command_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
