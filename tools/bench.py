"""Record benchmark runs in BENCH_<label>.json and compare two records.

    python3 tools/bench.py --label head --workloads hashed --seeds 1 2 3
    python3 tools/bench.py --label base --checkout ../base-checkout
    python3 tools/bench.py --compare base head
    python3 tools/bench.py --label head --layers --checkout ../base-checkout

A record runs `perfbench/run.py --trace 0` of a checkout (this
repository unless --checkout names another) once per seed (1 to 10
unless --seeds names others) and workload, and keeps in
BENCH_<label>.json at the root of this repository the
command and, for each run, its result line and the machine and
`results sha256:` lines it printed on stderr.  Each record call also runs the checkout's
acceptance gate (`pytest tests/test_acceptance.py`) once, with
CVQC_LAB_ACCEPTANCE_JSON naming a temporary file, and keeps its JSON
lines under "acceptance", "src_lines", the summed line count of the
checkout's src/cvqc_lab/*.py, and "src_lines_by_file", each file's
count.  It also runs every `cvqc-lab` command of
the checkout's README `sh` blocks but `render`, as `python -m
cvqc_lab.cli` in a temporary directory against the checkout's src, and
keeps each data file's sha256 under "readme", by command.  Runs are
added to an existing record of the same label and command, so two
checkouts can be recorded in alternation.

--compare A B takes two labels (or paths) and prints both sides'
src_lines, under it each file whose count changed (when both records
keep src_lines_by_file), and, per workload and end-to-end metric of
BENCHMARK.json,
each side's median and quartiles, the change of B's median against A's,
and how many runs of B beat the run of A with the same seed.  It flags a median of B worse than A's by
more than the metric's bound, a run of B that is not correct, failed
operations, and a same-workload, same-seed pair of runs whose results
sha256 differ (otherwise it prints at how many pairs they are
identical), and the same for a README command whose data files differ,
and exits 1 when anything is flagged.  Each metric
also gets a gain verdict: GAIN when there are at least ten same-seed
pairs, B wins at least nine in ten of them, and B's median is better
than A's by more than A's interquartile range; otherwise "no gain".
It then prints, per acceptance criterion, each side's elapsed_s median
and quartiles and its median headroom over the gate runs of its record,
labels `noise` a criterion whose median moved by less than A's
interquartile range, and flags a criterion that did not pass in B.

--layers times layers of the stack in one process instead: --checkout's
src (A) and this repository's (B), each imported under its own package
name.  The layers are seeding one chunk of streams at 300 to 16,384
rows, one `words` read at 1 to 16,384 rows, and each run_protocol call
of perfbench's `sweep` workload.  Over 21 rounds, alternating which
side goes first, each layer's best of three calls is timed on both
sides.  The record keeps under "layers" each layer's median per side,
the median B/A ratio over rounds and the rounds B won, or why it was
skipped: a layer one side lacks or cannot call.  --compare prints each
record's layers with the verdict GAIN when the ratio is at most 0.9 and
B won at least 80% of the rounds, and `noise` otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench: {' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    machine = [ln for ln in proc.stderr.splitlines() if ln.startswith("machine:")]
    digest = [ln for ln in proc.stderr.splitlines() if ln.startswith("results sha256:")]
    return {"workload": workload, "seed": seed, "result": json.loads(lines[-1]),
            "machine": machine[0] if machine else None,
            "digest": digest[0].split()[-1] if digest else None}


def _checkout_env(checkout: Path, **extra) -> dict:
    """This process's environment plus extra, importing checkout's src first."""
    path = [str(checkout / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(filter(None, path)))


def _acceptance_once(checkout: Path) -> list:
    """The JSON lines of one acceptance-gate run in checkout."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "acceptance.jsonl"
        env = _checkout_env(checkout, CVQC_LAB_ACCEPTANCE_JSON=str(path))
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "tests/test_acceptance.py"]
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"bench: {' '.join(cmd[2:])} exited {proc.returncode}:\n"
                  f"{proc.stdout[-2000:]}", file=sys.stderr)
        return [json.loads(ln) for ln in path.read_text().splitlines()] if path.is_file() else []


def _readme_commands(checkout: Path) -> list:
    """The argv after `cvqc-lab` of each command in the README's sh blocks, but render."""
    commands, in_sh = [], False
    for line in (checkout / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("cvqc-lab "):
            argv = shlex.split(line, comments=True)[1:]
            if argv[0] != "render":
                commands.append(argv)
    return commands


def _readme_digests(checkout: Path) -> dict:
    """{command: {data file: sha256}} of the README commands, each run in a fresh directory."""
    env, digests = _checkout_env(checkout), {}
    for argv in _readme_commands(checkout):
        with tempfile.TemporaryDirectory() as tmp:
            cmd = [sys.executable, "-m", "cvqc_lab.cli", *argv]
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"bench: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            digests[" ".join(argv)] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                                       for path in sorted(Path(tmp).iterdir())}
    return digests


def _src_lines_by_file(checkout: Path) -> dict:
    """{file name: line count} of checkout's src/cvqc_lab/*.py, each as `wc -l` gives it."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in sorted((checkout / "src" / "cvqc_lab").glob("*.py"))}


def _src_lines(checkout: Path) -> int:
    """The line count of checkout's src/cvqc_lab/*.py, as `cat ... | wc -l` gives it."""
    return sum(_src_lines_by_file(checkout).values())


def _load_package(checkout: Path, name: str):
    """checkout's src/cvqc_lab imported as the package `name`, beside any other copy.

    The package imports its modules relatively, so each copy keeps its own.
    """
    pkg = checkout / "src" / "cvqc_lab"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _load_module(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sweep_ops(pkg) -> list:
    """perfbench's `build_sweep` operations at seed 1, calling into pkg.

    This repository's perfbench/workloads.py is loaded once per package,
    with `cvqc_lab` and its modules resolving to pkg's while it imports.
    """
    perfbench = ROOT / "perfbench"
    prefix = pkg.__name__ + "."
    importlib.import_module(prefix + "cli")  # the package imports cli on demand
    aliases = {"checks": _load_module(perfbench / "checks.py", prefix + "checks"), "cvqc_lab": pkg}
    aliases.update({"cvqc_lab." + name[len(prefix):]: module
                    for name, module in sys.modules.items() if name.startswith(prefix)})
    saved = {name: sys.modules.get(name) for name in aliases}
    sys.modules.update(aliases)
    try:
        workloads = _load_module(perfbench / "workloads.py", prefix + "workloads")
    finally:
        for name, module in saved.items():
            if module is None:
                del sys.modules[name]
            else:
                sys.modules[name] = module
    with tempfile.TemporaryDirectory() as scratch:
        return workloads.build_sweep(1, scratch)


_SEED_ROWS = (300, 1_000, 10_000, 16_384)
_WORD_ROWS = (1, 5, 400, 16_384)


def _layer_builders(pkg) -> dict:
    """{layer: build() -> its zero-argument call} over one loaded package.

    Seeding is one chunk's streams; words is one read in honest m = 20's
    layout (p2's d and the coins, 3m outputs); the sweep operations are
    perfbench's own, each one run_protocol call.
    """
    protocol = pkg.protocol

    def words(rows):
        streams = protocol._TrialStreams(7, 0, rows)
        return lambda: streams.words(60, [*range(42, 100, 3), *range(100, 120)])

    builders = {f"seeding rows={rows}": lambda rows=rows: lambda: protocol._TrialStreams(7, 0, rows)
                for rows in _SEED_ROWS}
    builders.update({f"words honest m=20 rows={rows}": partial(words, rows) for rows in _WORD_ROWS})
    builders.update({f"sweep {op.name}": lambda op=op: op.call for op in _sweep_ops(pkg)})
    return builders


def _layer_calls(pkg) -> dict:
    """{layer: its call, run once, or the reason it cannot run on pkg}."""
    calls = {}
    try:
        builders = _layer_builders(pkg)
    except Exception as exc:  # a side without the sweep's entry points has no layers
        print(f"bench: {pkg.__name__} has no layers: {type(exc).__name__}: {exc}", file=sys.stderr)
        return calls
    for name, build in builders.items():
        try:
            call = build()
            call()
        except Exception as exc:  # a layer this side does not have, or calls otherwise
            call = f"{type(exc).__name__}: {exc}"
        calls[name] = call
    return calls


def _time_layers(calls_a: dict, calls_b: dict, rounds: int, repeat: int = 3,
                 clock=time.perf_counter) -> dict:
    """{layer: ([A's times], [B's times]) or the reason it was skipped}.

    A round times each layer on both sides, the best of repeat calls
    each, A first in even rounds and B first in odd ones.
    """
    times = {}
    for name in sorted(calls_a.keys() | calls_b.keys()):
        reasons = [f"{side}: {call if isinstance(call, str) else 'missing'}"
                   for side, call in (("A", calls_a.get(name)), ("B", calls_b.get(name)))
                   if not callable(call)]
        times[name] = "; ".join(reasons) if reasons else ([], [])
    for r in range(rounds):
        for name, pair in times.items():
            if isinstance(pair, str):
                continue
            sides = [(calls_a[name], pair[0]), (calls_b[name], pair[1])]
            for call, out in sides[::-1] if r % 2 else sides:
                best = math.inf
                for _ in range(repeat):
                    t0 = clock()
                    call()
                    best = min(best, clock() - t0)
                out.append(best)
    return times


def _layer_summary(times_a: list, times_b: list) -> dict:
    """Each side's median, the median of B/A over rounds, and the rounds B won."""
    return {"a": statistics.median(times_a), "b": statistics.median(times_b),
            "ratio": statistics.median(b / a for a, b in zip(times_a, times_b)),
            "wins": sum(b < a for a, b in zip(times_a, times_b)), "rounds": len(times_a)}


# alternating rounds of --layers
_LAYER_ROUNDS = 21
# a layer gains when B's median ratio is at most this, winning this share of rounds
_LAYER_GAIN_RATIO, _LAYER_GAIN_WINS = 0.9, 0.8


def _layer_verdict(row: dict) -> str:
    if "skipped" in row:
        return f"skipped ({row['skipped']})"
    gain = row["ratio"] <= _LAYER_GAIN_RATIO and row["wins"] >= _LAYER_GAIN_WINS * row["rounds"]
    return "GAIN" if gain else "noise"


def record_layers(args) -> int:
    """Time the layers of --checkout (A) against this repository (B) into BENCH_<label>.json."""
    checkout = Path(args.checkout).resolve()
    calls_a = _layer_calls(_load_package(checkout, "cvqc_lab_a"))
    calls_b = _layer_calls(_load_package(ROOT, "cvqc_lab_b"))
    rows = {}
    for name, pair in sorted(_time_layers(calls_a, calls_b, _LAYER_ROUNDS).items()):
        rows[name] = {"skipped": pair} if isinstance(pair, str) else _layer_summary(*pair)
        print(f"{name}: {_layer_verdict(rows[name])}", file=sys.stderr)
    out = ROOT / f"BENCH_{args.label}.json"
    bench = json.loads(out.read_text()) if out.is_file() else {"label": args.label, "runs": []}
    bench["layers"] = {"a": os.path.relpath(checkout, ROOT), "rounds": _LAYER_ROUNDS, "rows": rows}
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(out)
    return 0


def _compare_layers(bench: dict) -> None:
    layers = bench["layers"]
    print(f"layers: A = {layers['a']}, B = this checkout, median s, median B/A over "
          f"{layers['rounds']} alternating rounds; GAIN: ratio <= {_LAYER_GAIN_RATIO}"
          f" and B wins >= {_LAYER_GAIN_WINS:.0%} of rounds, else noise")
    for name, row in layers["rows"].items():
        if "skipped" in row:
            print(f"  {name:32s} {_layer_verdict(row)}")
        else:
            print(f"  {name:32s} {row['a']:10.4g} -> {row['b']:10.4g}  ratio {row['ratio']:.3f}"
                  f"  wins {row['wins']}/{row['rounds']}  {_layer_verdict(row)}")


def record(args) -> int:
    checkout = Path(args.checkout).resolve()
    out = ROOT / f"BENCH_{args.label}.json"
    command = f"perfbench/run.py --seconds {args.seconds:g} --trace 0"
    bench = {"label": args.label, "command": command, "runs": []}
    if out.is_file():
        bench = json.loads(out.read_text())
        if bench["command"] != command:
            sys.exit(f"bench: {out.name} holds runs of `{bench['command']}`")
    for seed in args.seeds:
        for workload in args.workloads:
            run = _run_once(checkout, workload, seed, args.seconds)
            print(f"{workload} seed {seed}: {json.dumps(run['result']['metrics'])}",
                  file=sys.stderr)
            bench["runs"].append(run)
            out.write_text(json.dumps(bench, indent=1) + "\n")
    bench.setdefault("acceptance", []).extend(_acceptance_once(checkout))
    bench.setdefault("readme", {}).update(_readme_digests(checkout))
    bench["src_lines_by_file"] = _src_lines_by_file(checkout)
    bench["src_lines"] = _src_lines(checkout)
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(out)
    return 0


def _load(name: str) -> dict:
    path = Path(name)
    if not path.is_file():
        path = ROOT / f"BENCH_{name}.json"
    return json.loads(path.read_text())


def _values(bench: dict) -> dict:
    """{workload: {metric: {seed: [values in run order]}}}"""
    values: dict = {}
    for run in bench["runs"]:
        per = values.setdefault(run["workload"], {})
        for metric, entry in run["result"]["metrics"].items():
            per.setdefault(metric, {}).setdefault(run["seed"], []).append(entry["value"])
    return values


def _quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def compare(name_a: str, name_b: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench_a, bench_b = _load(name_a), _load(name_b)
    a, b = _values(bench_a), _values(bench_b)
    print(f"src_lines: {bench_a.get('src_lines', 'unrecorded')} -> "
          f"{bench_b.get('src_lines', 'unrecorded')}")
    by_a, by_b = bench_a.get("src_lines_by_file"), bench_b.get("src_lines_by_file")
    if by_a and by_b:
        for name in sorted(by_a.keys() | by_b.keys()):
            if by_a.get(name, 0) != by_b.get(name, 0):
                print(f"  {name}: {by_a.get(name, 0)} -> {by_b.get(name, 0)}")
    flagged = 0
    for run in bench_b["runs"]:
        res = run["result"]
        if not res["correct"] or res["failed"]:
            print(f"FLAG {run['workload']} seed {run['seed']}: correct "
                  f"{res['correct']}, {res['failed']} failed operations")
            flagged += 1
    flagged += _compare_digests(bench_a, bench_b)
    flagged += _compare_readme(bench_a.get("readme", {}), bench_b.get("readme", {}))
    for workload in sorted(set(a) & set(b)):
        print(f"{workload}: {name_a} -> {name_b}, median [quartiles]")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a[workload] or name not in b[workload]:
                continue
            by_seed_a, by_seed_b = a[workload][name], b[workload][name]
            qa = _quartiles([v for vs in by_seed_a.values() for v in vs])
            qb = _quartiles([v for vs in by_seed_b.values() for v in vs])
            sign = 1 if metric["better"] == "lower" else -1
            pairs = [(x, y) for seed in by_seed_a.keys() & by_seed_b.keys()
                     for x, y in zip(by_seed_a[seed], by_seed_b[seed])]
            wins = sum(sign * (y - x) < 0 for x, y in pairs)
            change = (qb[1] - qa[1]) / qa[1]
            flag = sign * change > metric["bound"]
            flagged += flag
            gain = (len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
                    and sign * (qa[1] - qb[1]) > qa[2] - qa[0])
            print(f"  {name:13s} {qa[1]:10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
                  f" -> {qb[1]:10.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {change:+7.1%}"
                  f"  wins {wins}/{len(pairs)}  bound {metric['bound']:.0%}"
                  f"  {'GAIN' if gain else 'no gain'}{'  WORSE' if flag else ''}")
    flagged += _compare_acceptance(name_a, name_b, bench_a, bench_b)
    for bench in (bench_a, bench_b):
        if "layers" in bench:
            _compare_layers(bench)
    return 1 if flagged else 0


def _digests(bench: dict) -> dict:
    """{(workload, seed): [results sha256 in run order, None where unrecorded]}"""
    digests: dict = {}
    for run in bench["runs"]:
        digests.setdefault((run["workload"], run["seed"]), []).append(run.get("digest"))
    return digests


def _compare_digests(bench_a: dict, bench_b: dict) -> int:
    """Flag each same-workload, same-seed pair of runs whose results sha256 differ."""
    a, b = _digests(bench_a), _digests(bench_b)
    identical = flagged = 0
    for key in sorted(a.keys() & b.keys()):
        for x, y in zip(a[key], b[key]):
            if x is None or y is None:
                continue  # a run recorded before digests were kept
            if x == y:
                identical += 1
            else:
                print(f"FLAG {key[0]} seed {key[1]}: results sha256 {x} -> {y}")
                flagged += 1
    if not flagged:
        print(f"results identical at {identical} pairs")
    return flagged


def _compare_readme(a: dict, b: dict) -> int:
    """Flag each README command recorded on both sides whose data files differ."""
    flagged = 0
    for command in sorted(a.keys() & b.keys()):
        if a[command] != b[command]:
            print(f"FLAG README `cvqc-lab {command}`: data files {a[command]} -> {b[command]}")
            flagged += 1
    if a and b and not flagged:
        print(f"README data files identical at {len(a.keys() & b.keys())} commands")
    return flagged


def _criteria(bench: dict) -> dict:
    """{criterion: [its JSON lines in run order]}"""
    rows: dict = {}
    for row in bench.get("acceptance", []):
        rows.setdefault(row["criterion"], []).append(row)
    return rows


def _compare_acceptance(name_a: str, name_b: str, bench_a: dict, bench_b: dict) -> int:
    a, b = _criteria(bench_a), _criteria(bench_b)
    if a and b:
        print(f"acceptance: {name_a} -> {name_b}, elapsed_s median [quartiles]"
              f" and median headroom")
    flagged = 0
    for num in sorted(a.keys() & b.keys()):
        qa, qb = (_quartiles([row["elapsed_s"] for row in rows]) for rows in (a[num], b[num]))
        ha, hb = (statistics.median(row["headroom"] for row in rows) for rows in (a[num], b[num]))
        failed = sum(not row["passed"] for row in b[num])
        flagged += failed > 0
        # a move inside A's own spread between gate runs tells nothing
        noise = abs(qb[1] - qa[1]) < qa[2] - qa[0]
        print(f"  {num:2d} {b[num][0]['label'][:36]:36s}"
              f" {qa[1]:7.4f} [{qa[0]:.4f}, {qa[2]:.4f}] s x{ha:<7.4g}"
              f" -> {qb[1]:7.4f} [{qb[0]:.4f}, {qb[2]:.4f}] s x{hb:<7.4g}"
              f" {(qb[1] - qa[1]) / qa[1]:+7.1%}  runs {len(a[num])}/{len(b[num])}"
              f"{'  noise' if noise else ''}{f'  FLAG {failed} failed' if failed else ''}")
    return flagged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", help="record runs into BENCH_<label>.json")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two records, labels or paths")
    ap.add_argument("--workloads", nargs="+", default=["sweep", "hashed", "spectral"])
    # ten seeds give one record per side the ten same-seed pairs a GAIN needs
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--checkout", default=str(ROOT),
                    help="checkout whose perfbench/run.py and src/ are run; with --layers, "
                         "the checkout this repository's layers are timed against")
    ap.add_argument("--layers", action="store_true",
                    help="record layer timings of --checkout against this repository")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.label:
        ap.error("give --label to record or --compare A B")
    return record_layers(args) if args.layers else record(args)


if __name__ == "__main__":
    sys.exit(main())
