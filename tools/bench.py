"""Record benchmark runs in BENCH_<label>.json and compare two records.

    python3 tools/bench.py --label head --workloads hashed --seeds 1 2 3
    python3 tools/bench.py --label base --checkout ../base-checkout
    python3 tools/bench.py --compare base head

A record runs `perfbench/run.py --trace 0` of a checkout (this
repository unless --checkout names another) once per seed (1 to 10
unless --seeds names others) and workload, and keeps in
BENCH_<label>.json at the root of this repository the
command and, for each run, its result line and the machine and
`results sha256:` lines it printed on stderr.  Each record call also runs the checkout's
acceptance gate (`pytest tests/test_acceptance.py`) once, with
CVQC_LAB_ACCEPTANCE_JSON naming a temporary file, and keeps its JSON
lines under "acceptance", and "src_lines", the summed line count of the
checkout's src/cvqc_lab/*.py.  It also runs every `cvqc-lab` command of
the checkout's README `sh` blocks but `render`, as `python -m
cvqc_lab.cli` in a temporary directory against the checkout's src, and
keeps each data file's sha256 under "readme", by command.  Runs are
added to an existing record of the same label and command, so two
checkouts can be recorded in alternation.

--compare A B takes two labels (or paths) and prints both sides'
src_lines and, per workload and end-to-end metric of BENCHMARK.json,
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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
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


def _src_lines(checkout: Path) -> int:
    """The line count of checkout's src/cvqc_lab/*.py, as `cat ... | wc -l` gives it."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "cvqc_lab").glob("*.py"))


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
                    help="checkout whose perfbench/run.py and src/ are run")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.label:
        ap.error("give --label to record or --compare A B")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
